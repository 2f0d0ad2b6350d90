package core

import (
	"bytes"
	"math"
	"slices"
	"sort"

	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// decodedUnit is one store unit decoded for out-of-core querying: its
// distinct triples in the view's global ID space, held as three sorted
// permutations of ID rows. Each row is a triple rotated so the
// permutation's key order is the row order — spo rows are (s, p, o), pos
// rows (p, o, s), osp rows (o, s, p) — and each permutation is sorted
// ascending. Every combination of bound pattern positions is a key prefix
// of one permutation, so a pattern's matches are one contiguous,
// binary-searched range with no residual filter. Terms live in the view's
// shared dictionary; the table pins only the ID rows.
//
// Tables are immutable once built, and rebuilding from identical bytes
// against the same (append-only) dictionary reproduces them exactly — so an
// evicted unit that reloads keeps serving the same rows in the same order.
type decodedUnit struct {
	spo, pos, osp [][3]rdf.ID
	terms         []rdf.ID // sorted distinct global IDs the triples use (may carry slack)
	bytes         int64    // decoded-footprint estimate the budget charges
}

// decodeUnitTable decodes one unit's bytes into a table, interning the
// terms its triples use into dict. Binary segments go straight from their
// ID columns to global IDs, interning each used dictionary term once; text
// units (.nt/.ttl) parse through a scratch graph into the same table.
func decodeUnitTable(data []byte, dict *rdf.SharedDict) (*decodedUnit, error) {
	codec := segcodec.Detect(data)
	if codec != segcodec.Binary {
		g := rdf.NewGraph()
		if err := codec.Decode(bytes.NewReader(data), g); err != nil {
			return nil, err
		}
		ts := g.Triples()
		gids := make([]rdf.ID, 0, 3*len(ts))
		rows := make([][3]uint32, len(ts))
		for i, t := range ts {
			gids = append(gids, dict.Intern(t.S), dict.Intern(t.P), dict.Intern(t.O))
			rows[i] = [3]uint32{uint32(3 * i), uint32(3*i + 1), uint32(3*i + 2)}
		}
		return newDecodedUnit(gids, rows), nil
	}
	terms, ss, ps, os, err := segcodec.DecodeSegment(data)
	if err != nil {
		return nil, err
	}
	gids := make([]rdf.ID, len(terms))
	for i := range gids {
		gids[i] = rdf.NoID
	}
	rows := make([][3]uint32, len(ss))
	for i := range ss {
		rows[i] = [3]uint32{ss[i], ps[i], os[i]}
		for _, l := range rows[i] {
			if gids[l] == rdf.NoID {
				gids[l] = dict.Intern(terms[l])
			}
		}
	}
	return newDecodedUnit(gids, rows), nil
}

// newDecodedUnit builds a table from triples given as rows of local IDs
// and the local-to-global map gids (rdf.NoID for locals no row uses). Rows
// may come in any order and repeat, and gids may map two locals to one
// global; duplicates collapse here, so the table holds the same triple set
// a graph union would. rows is reused as scratch.
//
// The permutations are sorted by counting sort in rank space: ranking the
// unit's distinct global IDs preserves their order, so the three columns
// become small dense keys. LSD passes on o, p, s sort spo; one pass on o
// turns spo order into osp order, and one pass on p turns that into pos.
func newDecodedUnit(gids []rdf.ID, rows [][3]uint32) *decodedUnit {
	terms := make([]rdf.ID, 0, len(gids))
	for _, g := range gids {
		if g != rdf.NoID {
			terms = append(terms, g)
		}
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)
	rank := make([]uint32, len(gids))
	for l, g := range gids {
		if g != rdf.NoID {
			r, _ := slices.BinarySearch(terms, g)
			rank[l] = uint32(r)
		}
	}
	for i, r := range rows {
		rows[i] = [3]uint32{rank[r[0]], rank[r[1]], rank[r[2]]}
	}

	count := make([]int, len(terms)+1)
	tmp := make([][3]uint32, len(rows))
	sortByCol(tmp, rows, 2, count)
	sortByCol(rows, tmp, 1, count)
	sortByCol(tmp, rows, 0, count)
	spo := slices.Compact(tmp)
	du := &decodedUnit{
		spo:   make([][3]rdf.ID, len(spo)),
		pos:   make([][3]rdf.ID, len(spo)),
		osp:   make([][3]rdf.ID, len(spo)),
		terms: terms,
	}
	for i, r := range spo {
		du.spo[i] = [3]rdf.ID{terms[r[0]], terms[r[1]], terms[r[2]]}
	}
	osp := rows[:len(spo)]
	sortByCol(osp, spo, 2, count)
	for i, r := range osp {
		du.osp[i] = [3]rdf.ID{terms[r[2]], terms[r[0]], terms[r[1]]}
	}
	pos := spo // spo's rank rows are copied out; reuse the buffer
	sortByCol(pos, osp, 1, count)
	for i, r := range pos {
		du.pos[i] = [3]rdf.ID{terms[r[1]], terms[r[2]], terms[r[0]]}
	}
	du.bytes = decodedBytesEstimate(du)
	return du
}

// sortByCol stably counting-sorts src into dst by column c, whose values
// are below len(count)-1; count is scratch.
func sortByCol(dst, src [][3]uint32, c int, count []int) {
	clear(count)
	for _, r := range src {
		count[r[c]+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for _, r := range src {
		dst[count[r[c]]] = r
		count[r[c]]++
	}
}

// decodedBytesEstimate charges a decoded unit for what it pins: three
// 12-byte ID rows per triple (36 B) plus the slice and struct headers. The
// terms live in the view-lifetime shared dictionary, which every unit
// shares and no unit is charged for; the term-ID set is kept per unit for
// the view's lifetime too (lazyUnit.terms), so eviction would not free it.
func decodedBytesEstimate(du *decodedUnit) int64 {
	const rowBytes, headerBytes = 12, 104
	return int64(len(du.spo)+len(du.pos)+len(du.osp))*rowBytes + headerBytes
}

// cmpPrefix compares the first n positions of two rows.
func cmpPrefix(a, b [3]rdf.ID, n int) int {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// match returns the rows matching a pattern (rdf.NoID wildcards) and the
// rotation (0 spo, 1 pos, 2 osp) that maps them back to (s, p, o): the
// permutation whose key starts with exactly the bound positions, narrowed to
// that key prefix by two binary searches.
func (du *decodedUnit) match(s, p, o rdf.ID) ([][3]rdf.ID, int) {
	perms := [3][][3]rdf.ID{du.spo, du.pos, du.osp}
	for rot, key := range [3][3]rdf.ID{{s, p, o}, {p, o, s}, {o, s, p}} {
		n := 0
		for n < 3 && key[n] != rdf.NoID {
			n++
		}
		if slices.ContainsFunc(key[n:], func(id rdf.ID) bool { return id != rdf.NoID }) {
			continue // a bound position after a wildcard: not this permutation
		}
		rows := perms[rot]
		lo := sort.Search(len(rows), func(i int) bool { return cmpPrefix(rows[i], key, n) >= 0 })
		hi := lo + sort.Search(len(rows)-lo, func(i int) bool { return cmpPrefix(rows[lo+i], key, n) > 0 })
		return rows[lo:hi], rot
	}
	return nil, 0 // unreachable: every bound set is a prefix of some rotation
}

// scanLen returns the exact number of the unit's triples matching the
// pattern.
func (du *decodedUnit) scanLen(s, p, o rdf.ID) int {
	rows, _ := du.match(s, p, o)
	return len(rows)
}

// scanRange streams matches [lo, hi) of the pattern in the chosen
// permutation's order; fn returning false stops it (and scanRange reports
// false). Concatenating adjacent ranges reproduces forEach exactly.
func (du *decodedUnit) scanRange(s, p, o rdf.ID, lo, hi int, fn func(s, p, o rdf.ID) bool) bool {
	rows, rot := du.match(s, p, o)
	hi = min(hi, len(rows))
	for i := lo; i < hi; i++ {
		t := rows[i]
		var more bool
		switch rot {
		case 0:
			more = fn(t[0], t[1], t[2])
		case 1:
			more = fn(t[2], t[0], t[1])
		default:
			more = fn(t[1], t[2], t[0])
		}
		if !more {
			return false
		}
	}
	return true
}

// forEach streams every match of the pattern.
func (du *decodedUnit) forEach(s, p, o rdf.ID, fn func(s, p, o rdf.ID) bool) bool {
	return du.scanRange(s, p, o, 0, math.MaxInt, fn)
}
