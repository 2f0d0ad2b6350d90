package segcodec

import (
	"bytes"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// FuzzSegcodecDecode hammers the binary decoder with arbitrary bytes. The
// contract under test: Decode returns an error for anything that is not a
// well-formed segment and never panics, over-allocates on lying counts, or
// loops. Valid encodings must round-trip.
func FuzzSegcodecDecode(f *testing.F) {
	// Seed with valid segments of increasing shape complexity...
	empty := &bytes.Buffer{}
	if err := Binary.Encode(empty, rdf.NewGraph(), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:abc"), P: rdf.IRI("urn:p"), O: rdf.LangLiteral("héllo", "en")})
	g.Add(rdf.Triple{S: rdf.Blank("b0"), P: rdf.IRI("urn:q"), O: rdf.TypedLiteral("42", rdf.XSDInteger)})
	one := &bytes.Buffer{}
	if err := Binary.Encode(one, g, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())

	// ...with a chain-sealed segment and prefixes of it (torn-write shapes)...
	sealed := AppendChain(one.Bytes(), Chain{Root: true, Seq: 0, Prev: [32]byte{1, 2, 3}})
	f.Add(sealed)
	f.Add(sealed[:len(one.Bytes())+3]) // cut inside the chain frame
	f.Add(sealed[:len(sealed)-1])

	// ...and with targeted corruptions of those seeds.
	f.Add([]byte{})
	f.Add(pbsMagic)
	f.Add(append(append([]byte{}, pbsMagic...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)) // huge frame length
	trunc := append([]byte{}, one.Bytes()...)
	f.Add(trunc[:len(trunc)/2])
	flip := append([]byte{}, one.Bytes()...)
	flip[len(flip)/2] ^= 0x80
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		into := rdf.NewGraph()
		err := Binary.Decode(bytes.NewReader(data), into)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		// Accepted input must re-encode to the identical bytes once any
		// chain seal is stripped: the payload format is canonical, so
		// encode(decode(x)) == StripChain(x) for any accepted x, and a seal
		// survives a decode/strip round-trip unchanged. Legacy inputs from
		// before the stats frame existed are the one tolerated divergence:
		// re-encoding adds the canonical stats frame, so for them the
		// equality holds after StripStats. (An accepted input WITH a stats
		// frame always has the canonical one — Decode rejects mismatches —
		// so no other divergence is possible.)
		var re bytes.Buffer
		if err := Binary.Encode(&re, into, nil); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		canon := re.Bytes()
		if sc := StripChain(data); !bytes.Equal(canon, sc) {
			canon = StripStats(canon)
			if !bytes.Equal(canon, sc) {
				t.Fatalf("accepted input is not canonical: %d payload bytes in, %d bytes re-encoded",
					len(sc), re.Len())
			}
		}
		if ch, ok := ChainOf(data); ok {
			resealed := AppendChain(canon, ch)
			if !bytes.Equal(resealed, data) {
				t.Fatal("seal did not survive the decode/re-seal round-trip")
			}
		}
	})
}

// rawSegment frames terms and local-ID triples verbatim — no sorting, no
// deduplication, no stats frame — so tests can build segments the encoder
// never writes, such as one that repeats a triple.
func rawSegment(terms []rdf.Term, tris [][3]uint32) []byte {
	var dict bytes.Buffer
	putUvarint(&dict, uint64(len(terms)))
	for _, t := range terms {
		dict.WriteByte(byte(t.Kind))
		putUvarint(&dict, 0)
		putUvarint(&dict, uint64(len(t.Value)))
		dict.WriteString(t.Value)
		if t.Kind == rdf.LiteralTerm {
			putUvarint(&dict, uint64(len(t.Lang)))
			dict.WriteString(t.Lang)
			putUvarint(&dict, uint64(len(t.Datatype)))
			dict.WriteString(t.Datatype)
		}
	}
	var col bytes.Buffer
	putUvarint(&col, uint64(len(tris)))
	var prev [3]int64
	for c := 0; c < 3; c++ {
		for _, t := range tris {
			if c == 0 {
				putUvarint(&col, uint64(int64(t[0])-prev[0]))
			} else {
				putSvarint(&col, int64(t[c])-prev[c])
			}
			prev[c] = int64(t[c])
		}
	}
	var out bytes.Buffer
	out.Write(pbsMagic)
	writeFrame(&out, dict.Bytes())
	writeFrame(&out, col.Bytes())
	return out.Bytes()
}

// FuzzDecodeSegmentMatchesGraph is the differential contract between the
// column decoder the out-of-core path uses and the graph decoder: for any
// input, DecodeSegment and Binary.Decode accept or reject identically, and
// on accept the distinct triple set of the columns, remapped into a shared
// dictionary, equals the decoded graph's — duplicates within a segment
// (repeated dictionary terms or triples) collapse exactly as graph union
// collapses them.
func FuzzDecodeSegmentMatchesGraph(f *testing.F) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.Blank("b0"), P: rdf.IRI("urn:q"), O: rdf.TypedLiteral("42", rdf.XSDInteger)})
	var valid bytes.Buffer
	if err := Binary.Encode(&valid, g, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	a, p, x := rdf.IRI("urn:a"), rdf.IRI("urn:p"), rdf.Literal("x")
	var repeatedTerm bytes.Buffer
	if err := writeSegment(&repeatedTerm, []rdf.Term{a, a, p, x}, [][3]uint32{{0, 2, 3}, {1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	repeatedTriple := rawSegment([]rdf.Term{a, p, x}, [][3]uint32{{0, 1, 2}, {0, 1, 2}, {0, 1, 0}})
	for _, seed := range [][]byte{repeatedTerm.Bytes(), repeatedTriple} {
		if _, _, _, _, err := DecodeSegment(seed); err != nil {
			f.Fatalf("duplicate-bearing seed rejected: %v", err)
		}
		f.Add(seed)
	}
	f.Add(rawSegment([]rdf.Term{x, p}, [][3]uint32{{0, 1, 0}})) // literal subject: invalid RDF

	f.Fuzz(func(t *testing.T, data []byte) {
		into := rdf.NewGraph()
		gerr := Binary.Decode(bytes.NewReader(data), into)
		terms, ss, ps, os, err := DecodeSegment(data)
		if (err == nil) != (gerr == nil) {
			t.Fatalf("DecodeSegment err=%v, Binary.Decode err=%v", err, gerr)
		}
		if err != nil {
			return
		}
		dict := rdf.NewSharedDict()
		cols := map[[3]rdf.ID]bool{}
		for i := range ss {
			cols[[3]rdf.ID{dict.Intern(terms[ss[i]]), dict.Intern(terms[ps[i]]), dict.Intern(terms[os[i]])}] = true
		}
		graph := map[[3]rdf.ID]bool{}
		for _, tr := range into.Triples() {
			graph[[3]rdf.ID{dict.Intern(tr.S), dict.Intern(tr.P), dict.Intern(tr.O)}] = true
		}
		if len(cols) != len(graph) {
			t.Fatalf("columns hold %d distinct triples, graph %d", len(cols), len(graph))
		}
		for row := range graph {
			if !cols[row] {
				t.Fatalf("graph triple %v missing from the columns", row)
			}
		}
	})
}
