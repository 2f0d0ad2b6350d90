package sparql

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// mixedTermPool mixes every kind of term one column can hold: integers,
// decimals and doubles (NaN and a malformed integer among them), plain,
// language-tagged and other typed literals, IRIs and blank nodes.
func mixedTermPool() []rdf.Term {
	return []rdf.Term{
		rdf.Integer(9), rdf.Integer(10), rdf.Integer(-3), rdf.Integer(0),
		rdf.TypedLiteral("01", rdf.XSDInteger), rdf.TypedLiteral("1", rdf.XSDInteger),
		rdf.TypedLiteral("7", rdf.XSDLong), rdf.Decimal(2.5), rdf.Decimal(-0.5),
		rdf.TypedLiteral("1.0", rdf.XSDDouble), rdf.TypedLiteral("-0", rdf.XSDDouble),
		rdf.TypedLiteral("NaN", rdf.XSDDouble), rdf.TypedLiteral("abc", rdf.XSDInteger),
		rdf.Literal("5"), rdf.Literal("10"), rdf.Literal("apple"), rdf.Literal(""),
		rdf.LangLiteral("chat", "en"), rdf.LangLiteral("chat", "fr"),
		rdf.TypedLiteral("2022-06-27", "http://www.w3.org/2001/XMLSchema#date"),
		rdf.Boolean(true),
		rdf.IRI("https://x/a"), rdf.IRI("https://x/10"),
		rdf.Blank("b1"), rdf.Blank("b10"),
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestCanonicalOrderIsTotal: compareTerms is antisymmetric and transitive
// over the mixed pool, and ties only identical terms. A numeric-only
// value comparison with a lexical fallback fails here: 9 < 10 by value,
// 10 < "5" and "5" < 9 lexically.
func TestCanonicalOrderIsTotal(t *testing.T) {
	pool := mixedTermPool()
	for _, a := range pool {
		for _, b := range pool {
			ab, ba := compareTerms(a, b), compareTerms(b, a)
			if sign(ab) != -sign(ba) {
				t.Errorf("not antisymmetric: cmp(%v, %v) = %d, cmp(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			if (ab == 0) != (a == b) {
				t.Errorf("cmp(%v, %v) = %d", a, b, ab)
			}
			for _, c := range pool {
				if ab <= 0 && compareTerms(b, c) <= 0 && compareTerms(a, c) > 0 {
					t.Errorf("not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// TestMixedColumnOrderParity: a column mixing the pool's terms sorts, and
// folds under MIN/MAX, identically in Eval, EvalParallel at every worker
// count and the legacy engine, and in canonical order.
func TestMixedColumnOrderParity(t *testing.T) {
	pool := mixedTermPool()
	rng := rand.New(rand.NewSource(5))
	g := rdf.NewGraph()
	for i := 0; i < 600; i++ {
		s := rdf.IRI(fmt.Sprintf("%ss%d", parityNS, i))
		g.Add(rdf.Triple{S: s, P: rdf.IRI(parityNS + "grp"), O: rdf.IRI(fmt.Sprintf("%sg%d", parityNS, i%4))})
		if rng.Intn(5) > 0 { // the rest leave ?v unbound under OPTIONAL
			g.Add(rdf.Triple{S: s, P: rdf.IRI(parityNS + "val"), O: pool[rng.Intn(len(pool))]})
		}
	}
	queries := []string{
		`SELECT ?s ?v WHERE { ?s p:grp ?g . OPTIONAL { ?s p:val ?v } } ORDER BY ?v`,
		`SELECT ?s ?v WHERE { ?s p:grp ?g . OPTIONAL { ?s p:val ?v } } ORDER BY DESC(?v)`,
		`SELECT DISTINCT ?v WHERE { ?s p:val ?v . }`,
		`SELECT ?g (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s p:grp ?g . ?s p:val ?v . } GROUP BY ?g`,
		`SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s p:val ?v . }`,
	}
	for qi, query := range queries {
		q, err := Parse("PREFIX p: <"+parityNS+">\n"+query, nil)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		serial, err := Eval(g, q)
		if err != nil {
			t.Fatalf("eval %q: %v", query, err)
		}
		legacy, err := EvalLegacy(g, q)
		if err != nil {
			t.Fatalf("legacy %q: %v", query, err)
		}
		if !identicalResults(serial, legacy) {
			t.Errorf("legacy differs from Eval for %q", query)
		}
		for _, w := range parityWorkers {
			par, err := EvalParallel(g, q, w)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", w, query, err)
			}
			if !identicalResults(serial, par) {
				t.Errorf("workers=%d differs from Eval for %q", w, query)
			}
		}
		if qi < 3 {
			col, desc := serial.Vars[len(serial.Vars)-1], qi == 1
			for i := 1; i < len(serial.Rows); i++ {
				a, aok := serial.Rows[i-1][col]
				b, bok := serial.Rows[i][col]
				if desc {
					a, aok, b, bok = b, bok, a, aok
				}
				if aok && (!bok || compareTerms(a, b) > 0) {
					t.Fatalf("%q: rows %d and %d out of canonical order: %v, %v", query, i-1, i, a, b)
				}
			}
		}
	}
}
