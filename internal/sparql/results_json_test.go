package sparql

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// encodingJSON renders r through encoding/json with a two-space indent: the
// reflection-based writer WriteJSON replaced, kept as its byte-for-byte
// parity oracle.
func encodingJSON(r *Result) ([]byte, error) {
	doc := jsonResults{Head: jsonHead{Vars: append([]string{}, r.Vars...)}}
	doc.Results.Bindings = make([]map[string]jsonTerm, 0, len(r.Rows))
	for _, row := range r.Rows {
		b := make(map[string]jsonTerm, len(row))
		for _, v := range r.Vars {
			if t, ok := row[v]; ok {
				b[v] = termToJSON(t)
			}
		}
		doc.Results.Bindings = append(doc.Results.Bindings, b)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRITerm:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.BlankTerm:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

// checkWriteJSON asserts WriteJSON's bytes equal the encoding/json oracle's
// and returns them.
func checkWriteJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := r.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := encodingJSON(r)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	return got.Bytes()
}

// countingWriter records the Write calls it receives and fails the call
// numbered failAt (1-based; 0 never fails).
type countingWriter struct {
	calls, failAt int
	buf           bytes.Buffer
}

var errWriterFull = errors.New("writer full")

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		return 0, errWriterFull
	}
	return w.buf.Write(p)
}

func TestWriteJSONMatchesEncoding(t *testing.T) {
	lit := rdf.TypedLiteral("3", rdf.XSDInteger)
	cases := map[string]*Result{
		"zero":        {},
		"vars only":   {Vars: []string{"a", "b"}},
		"empty rows":  {Vars: []string{"a"}, Rows: []Binding{{}, {"other": lit}}},
		"dup vars":    {Vars: []string{"b", "a", "b"}, Rows: []Binding{{"a": rdf.IRI("x"), "b": rdf.Blank("n1")}}},
		"key order":   {Vars: []string{"z", "Z", "a_", "a"}, Rows: []Binding{{"z": lit, "Z": lit, "a_": lit, "a": lit}}},
		"term fields": {Vars: []string{"l"}, Rows: []Binding{{"l": rdf.LangLiteral("chat", "fr")}, {"l": rdf.Literal("plain")}, {"l": lit}}},
		"escapes": {Vars: []string{"v<&>"}, Rows: []Binding{
			{"v<&>": rdf.Literal("<a href=\"x\">&amp;</a>\\\n\t\x00\x7f\u2028\u2029é\xff")},
		}},
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) { checkWriteJSON(t, r) })
	}
}

// TestWriteJSONChunked: a result larger than jsonChunk reaches the writer
// in several writes with the oracle's bytes, and a failing Write stops the
// writer and is returned.
func TestWriteJSONChunked(t *testing.T) {
	r := &Result{Vars: []string{"s", "o"}}
	for i := 0; i < 2000; i++ {
		r.Rows = append(r.Rows, Binding{"s": rdf.IRI(fmt.Sprintf("https://x/s%d", i)), "o": rdf.Integer(int64(i))})
	}
	want := checkWriteJSON(t, r)
	var w countingWriter
	if err := r.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if min := len(want) / jsonChunk; w.calls < min || !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("%d writes of %d bytes, want at least %d writes of %d bytes", w.calls, w.buf.Len(), min, len(want))
	}
	for _, failAt := range []int{1, 2} {
		w := countingWriter{failAt: failAt}
		if err := r.WriteJSON(&w); !errors.Is(err, errWriterFull) {
			t.Fatalf("failAt=%d: err = %v, want %v", failAt, err, errWriterFull)
		}
		if w.calls != failAt {
			t.Fatalf("failAt=%d: %d writes, want none after the failure", failAt, w.calls)
		}
	}
}

// fuzzResult builds a Result from fuzz inputs: comma-separated var names
// (duplicates and empty names allowed), '|'-separated term values, and a
// seed choosing rows, unbound cells and term kinds. Rows also bind a name
// outside Vars, which neither writer may render.
func fuzzResult(varSpec, valSpec string, seed int64) *Result {
	r := &Result{}
	if varSpec != "" {
		r.Vars = strings.Split(varSpec, ",")
	}
	vals := strings.Split(valSpec, "|")
	rng := rand.New(rand.NewSource(seed))
	val := func() string { return vals[rng.Intn(len(vals))] }
	for n := rng.Intn(6); n > 0; n-- {
		row := Binding{"\x00unprojected": rdf.Literal(val())}
		for _, v := range r.Vars {
			switch rng.Intn(6) {
			case 0:
				// unbound
			case 1:
				row[v] = rdf.IRI(val())
			case 2:
				row[v] = rdf.Blank(val())
			case 3:
				row[v] = rdf.TypedLiteral(val(), val())
			case 4:
				row[v] = rdf.LangLiteral(val(), val())
			default:
				row[v] = rdf.Literal(val())
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// jsonText is s as JSON carries it: each byte of invalid UTF-8 becomes
// U+FFFD.
func jsonText(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(r)
	}
	return b.String()
}

// jsonRoundTrip is what ParseResultsJSON must return for r's document:
// r's projected bindings with every string as JSON carries it.
func jsonRoundTrip(r *Result) *Result {
	want := &Result{}
	for _, v := range r.Vars {
		want.Vars = append(want.Vars, jsonText(v))
	}
	for _, row := range r.Rows {
		b := Binding{}
		for _, v := range r.Vars {
			t, ok := row[v]
			switch {
			case !ok:
			case t.Kind == rdf.IRITerm:
				b[jsonText(v)] = rdf.IRI(jsonText(t.Value))
			case t.Kind == rdf.BlankTerm:
				b[jsonText(v)] = rdf.Blank(jsonText(t.Value))
			case t.Lang != "":
				b[jsonText(v)] = rdf.LangLiteral(jsonText(t.Value), jsonText(t.Lang))
			default:
				b[jsonText(v)] = rdf.TypedLiteral(jsonText(t.Value), jsonText(t.Datatype))
			}
		}
		want.Rows = append(want.Rows, b)
	}
	return want
}

// FuzzWriteJSONMatchesEncoding: WriteJSON equals the encoding/json oracle
// byte for byte, and ParseResultsJSON reads the output back into the same
// result, up to JSON's replacement of invalid UTF-8.
func FuzzWriteJSONMatchesEncoding(f *testing.F) {
	f.Add("a,b,a", "x|<&>\"\\|\u2028\u2029|\xff\xfe|é|\x01\x1f\x7f|", int64(1))
	f.Add("", "", int64(0))
	f.Add("s,p,o,", "https://x/y|42|http://www.w3.org/2001/XMLSchema#integer|en", int64(7))
	f.Add("\xffa,<b>,b&", "\u00e9\u4e16|a\tb\nc", int64(-3))
	f.Fuzz(func(t *testing.T, varSpec, valSpec string, seed int64) {
		r := fuzzResult(varSpec, valSpec, seed)
		out := checkWriteJSON(t, r)
		if !utf8.ValidString(varSpec) {
			// Distinct invalid names can render as the same U+FFFD key, so
			// only the byte parity above is checked for them.
			return
		}
		back, err := ParseResultsJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("output does not parse: %v\n%s", err, out)
		}
		if want := jsonRoundTrip(r); !identicalResults(back, want) {
			t.Fatalf("round trip changed the result\ngot:  %v\nwant: %v", back, want)
		}
	})
}
