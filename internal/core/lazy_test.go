package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// queryBytes runs q over src with the parallel executor and returns the
// serialized result rows — the byte-level fingerprint the out-of-core parity
// properties compare. The engine's finish path orders rows
// deterministically, so equal solution multisets serialize identically.
func queryBytes(t *testing.T, src sparql.ScanSource, query string, workers int) []byte {
	t.Helper()
	q, err := sparql.Parse(query, model.Namespaces())
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	res, _, err := sparql.EvalParallelOnInfo(src, q, workers)
	if err != nil {
		t.Fatalf("eval %q: %v", query, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildScatteredStore writes a seeded random graph across delta segments,
// packs the first wave, and leaves a second wave loose — the mixed pack +
// loose layout every out-of-core read has to federate. Same generator family
// as TestPrunedVsExhaustiveProperty.
func buildScatteredStore(t *testing.T, rng *rand.Rand) *Store {
	t.Helper()
	store := newBinaryVFSStore(t)
	node := func() rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
	pred := func() rdf.Term {
		rels := model.AllRelations()
		if rng.Intn(4) == 0 {
			return rdf.IRI(fmt.Sprintf("urn:p%d", rng.Intn(6)))
		}
		return rels[rng.Intn(len(rels))].IRI()
	}
	writeSegments := func(pidBase, nSegs int) {
		for s := 0; s < nSegs; s++ {
			n := 1 + rng.Intn(8)
			triples := make([]rdf.Triple, 0, n)
			for i := 0; i < n; i++ {
				o := node()
				if rng.Intn(5) == 0 {
					o = rdf.Literal(fmt.Sprintf("v%d", rng.Intn(10)))
				}
				triples = append(triples, rdf.Triple{S: node(), P: pred(), O: o})
			}
			if err := store.WriteDeltaSegment(pidBase+s%3, s/3, triples); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeSegments(0, 6+rng.Intn(6))
	if _, err := store.PackSegments(1); err != nil {
		t.Fatalf("PackSegments: %v", err)
	}
	writeSegments(10, 3+rng.Intn(4))
	return store
}

// lazyParityQueries is the fixed query mix of the parity property: full
// scans, bound positions, a join, and a union — enough shapes to exercise
// morsel partitioning, constant resolution through the shared dictionary,
// and cross-unit joins — plus the star joins whose probes take the batched
// path: a shared-subject star with FILTER and GROUP BY/COUNT/SUM, and a star
// on a subject several units hold (spread).
func lazyParityQueries(rng *rand.Rand, spread rdf.Term) []string {
	rel := model.AllRelations()[rng.Intn(len(model.AllRelations()))].IRI().Value
	return []string{
		`SELECT ?s (COUNT(?b) AS ?n) (SUM(?c) AS ?total) WHERE {
  ?s ?p ?a . ?s ?q ?b . ?s ?r ?c . FILTER(?p != ?q) } GROUP BY ?s`,
		fmt.Sprintf(`SELECT ?p ?o ?q ?x ?y WHERE { <%s> ?p ?o . <%s> ?q ?x . OPTIONAL { ?x ?r ?y } }`,
			spread.Value, spread.Value),
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <urn:p%d> ?o }`, rng.Intn(6)),
		fmt.Sprintf(`SELECT ?p ?o WHERE { <urn:n%d> ?p ?o }`, rng.Intn(40)),
		fmt.Sprintf(`SELECT ?s ?p WHERE { ?s ?p <urn:n%d> }`, rng.Intn(40)),
		fmt.Sprintf(`SELECT ?a ?c WHERE { ?a <%s> ?b . ?b ?p ?c }`, rel),
		fmt.Sprintf(`SELECT ?s WHERE { { ?s <urn:p%d> ?o } UNION { ?s <%s> ?o } }`, rng.Intn(6), rel),
	}
}

// multiUnitSubject returns the subject the most units of the store hold
// (ties to the smallest term), failing when none spans two units.
func multiUnitSubject(t *testing.T, store *Store) rdf.Term {
	t.Helper()
	v, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	units := map[rdf.Term]int{}
	for _, lu := range v.units {
		du, err := v.loadUnit(lu)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[rdf.Term]bool{}
		du.forEach(rdf.NoID, rdf.NoID, rdf.NoID, func(s, _, _ rdf.ID) bool {
			if term := v.dict.TermAt(s); !seen[term] {
				seen[term] = true
				units[term]++
			}
			return true
		})
	}
	var best rdf.Term
	for term, n := range units {
		if n > units[best] || n == units[best] && rdf.TermLess(term, best) {
			best = term
		}
	}
	if units[best] < 2 {
		t.Fatal("no subject spans two units")
	}
	return best
}

// TestLazyParityProperty is the out-of-core equivalence property: for random
// mixed layouts, every query and lineage reduction over a LazyView must be
// byte-identical to the eager path, for cache budgets unbounded, half the
// decoded footprint, and an eighth of it, at 1 and 4 workers — and the
// resident decoded set must never exceed the budget.
func TestLazyParityProperty(t *testing.T) {
	sawEviction := false
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := buildScatteredStore(t, rng)

		full, scan, err := store.MergePruned(nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		if scan.Packs != 1 {
			t.Fatalf("seed %d: layout lost its pack: %+v", seed, scan)
		}
		fullNT := ntBytes(t, full)
		queries := lazyParityQueries(rng, multiUnitSubject(t, store))
		eager := make([][]byte, len(queries))
		for i, q := range queries {
			eager[i] = queryBytes(t, full.Snapshot(), q, 2)
		}

		// The unbounded view's resident bytes after full materialization are
		// the store's total decoded footprint — the yardstick the bounded
		// budgets divide.
		v0, err := store.OpenLazy(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if g0, _, err := v0.MaterializeGraph(2); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(fullNT, ntBytes(t, g0)) {
			t.Fatalf("seed %d: unbounded MaterializeGraph differs from eager merge", seed)
		}
		total := v0.Stats().ResidentBytes
		if total <= 0 {
			t.Fatalf("seed %d: empty decoded footprint", seed)
		}

		node := func() rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
		for _, budget := range []int64{0, total / 2, total / 8} {
			for _, workers := range []int{1, 4} {
				tag := fmt.Sprintf("seed %d budget %d workers %d", seed, budget, workers)
				v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				src := v.Source(nil)
				for i, q := range queries {
					got := queryBytes(t, src, q, workers)
					if err := src.Err(); err != nil {
						t.Fatalf("%s query %d: view failed: %v", tag, i, err)
					}
					if !bytes.Equal(eager[i], got) {
						t.Fatalf("%s query %d (%s): lazy result differs from eager", tag, i, q)
					}
				}
				if g, _, err := v.MaterializeGraph(workers); err != nil {
					t.Fatalf("%s: MaterializeGraph: %v", tag, err)
				} else if !bytes.Equal(fullNT, ntBytes(t, g)) {
					t.Fatalf("%s: MaterializeGraph differs from eager merge", tag)
				}

				for trial := 0; trial < 2; trial++ {
					roots := []rdf.Term{node()}
					hops := 1 + rng.Intn(3)
					want, _, err := store.ReduceLineagePruned(roots, hops, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := v.ReduceLineagePruned(roots, hops, workers)
					if err != nil {
						t.Fatalf("%s: lazy lineage: %v", tag, err)
					}
					if !bytes.Equal(ntBytes(t, want), ntBytes(t, got)) {
						t.Fatalf("%s: lazy lineage differs from eager (roots=%v hops=%d)", tag, roots, hops)
					}
				}

				// A pruner admits the same units lazily as eagerly: hydrating
				// the lazy source's unit list reproduces the pruned merge.
				p := PrunePattern{S: termPtr(node())}
				if rng.Intn(2) == 0 {
					p = PrunePattern{O: termPtr(node())}
				}
				pr := &SegmentPruner{Patterns: []PrunePattern{p}}
				wantPruned, _, err := store.MergePruned(pr, workers)
				if err != nil {
					t.Fatal(err)
				}
				ps := v.Source(pr)
				gotPruned := rdf.NewGraph()
				if err := v.hydrateUnits(ps.units, gotPruned, workers); err != nil {
					t.Fatalf("%s: hydrating pruned source: %v", tag, err)
				}
				if !bytes.Equal(ntBytes(t, wantPruned), ntBytes(t, gotPruned)) {
					t.Fatalf("%s: pruned lazy source differs from eager pruned merge", tag)
				}

				st := v.Stats()
				if budget > 0 {
					if st.PeakBytes > budget {
						t.Fatalf("%s: peak resident %d exceeds budget %d", tag, st.PeakBytes, budget)
					}
					if st.ResidentBytes > budget {
						t.Fatalf("%s: resident %d exceeds budget %d", tag, st.ResidentBytes, budget)
					}
					if st.Evictions > 0 {
						sawEviction = true
					}
				}
				if st.Hits+st.Misses == 0 {
					t.Fatalf("%s: cache never touched", tag)
				}
			}
		}
	}
	if !sawEviction {
		t.Fatal("no bounded run ever evicted: the budgets are not exercising the cache")
	}
}

// TestLazyScanRangePartitioning pins the ScanSource contract on the
// federation: concatenating adjacent ScanRange windows reproduces the full
// enumeration exactly, for arbitrary split points — the property the
// parallel executor's morsel scheduler relies on.
func TestLazyScanRangePartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := buildScatteredStore(t, rng)
	v, err := store.OpenLazy(CacheConfig{MaxBytes: 1}) // everything transient: worst case
	if err != nil {
		t.Fatal(err)
	}
	src := v.Source(nil)

	collect := func(s, p, o rdf.ID, cuts []int) []string {
		var out []string
		prev := 0
		for _, c := range append(cuts, src.ScanLen(s, p, o)) {
			src.ScanRange(s, p, o, prev, c, func(a, b, cc rdf.ID) bool {
				out = append(out, fmt.Sprintf("%d %d %d", a, b, cc))
				return true
			})
			prev = c
		}
		return out
	}
	pid, _ := src.TermID(rdf.IRI("urn:p1"))
	nid, _ := src.TermID(rdf.IRI("urn:n3"))
	patterns := [][3]rdf.ID{
		{rdf.NoID, rdf.NoID, rdf.NoID},
		{rdf.NoID, pid, rdf.NoID},
		{nid, rdf.NoID, rdf.NoID},
		{rdf.NoID, rdf.NoID, nid},
	}
	for _, pat := range patterns {
		n := src.ScanLen(pat[0], pat[1], pat[2])
		whole := collect(pat[0], pat[1], pat[2], nil)
		for trial := 0; trial < 4; trial++ {
			var cuts []int
			for c := 0; c < 1+rng.Intn(3); c++ {
				if n > 0 {
					cuts = append(cuts, rng.Intn(n+1))
				}
			}
			// ScanRange windows must be ordered; sort the cut points.
			for i := range cuts {
				for j := i + 1; j < len(cuts); j++ {
					if cuts[j] < cuts[i] {
						cuts[i], cuts[j] = cuts[j], cuts[i]
					}
				}
			}
			split := collect(pat[0], pat[1], pat[2], cuts)
			if len(split) != len(whole) {
				t.Fatalf("pattern %v cuts %v: %d emitted, want %d", pat, cuts, len(split), len(whole))
			}
			for i := range whole {
				if whole[i] != split[i] {
					t.Fatalf("pattern %v cuts %v: item %d is %s, want %s", pat, cuts, i, split[i], whole[i])
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyViewServesOldLayoutFromCache: a fully resident view must keep
// answering with its open-time layout after PackSegments and Compact rewrite
// the store underneath it — the "old consistent layout" half of the race
// contract.
func TestLazyViewServesOldLayoutFromCache(t *testing.T) {
	store := newBinaryVFSStore(t)
	for pid := 0; pid < 3; pid++ {
		smallHistory(t, store, pid)
	}
	baseline := ntBytes(t, mustMerge(t, store))
	v, err := store.OpenLazy(CacheConfig{}) // unbounded: everything stays resident
	if err != nil {
		t.Fatal(err)
	}
	if g, _, err := v.MaterializeGraph(2); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatal("pre-maintenance materialization differs from merge")
	}
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	g, _, err := v.MaterializeGraph(2)
	if err != nil {
		t.Fatalf("resident view failed after maintenance: %v", err)
	}
	if !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatal("resident view's answer changed under maintenance")
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyViewStaleAfterMaintenance: a view that must re-fetch (tiny budget,
// nothing resident) after Compact/PackSegments rewrote the layout fails with
// an error classified as ErrStaleView — the other half of the race contract:
// never a partial mixture of generations.
func TestLazyViewStaleAfterMaintenance(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		store := newBinaryVFSStore(t)
		smallHistory(t, store, 0)
		smallHistory(t, store, 1)
		v, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.MaterializeGraph(1); err != nil {
			t.Fatal(err)
		}
		if err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.MaterializeGraph(1); !errors.Is(err, ErrStaleView) {
			t.Fatalf("materialize after Compact: err=%v, want ErrStaleView", err)
		}
	})
	t.Run("pack", func(t *testing.T) {
		store := newBinaryVFSStore(t)
		smallHistory(t, store, 0)
		smallHistory(t, store, 1)
		v, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := v.Source(nil)
		baseline := queryBytes(t, src, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 2)
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.PackSegments(1); err != nil {
			t.Fatal(err)
		}
		// The segments the view pinned are gone; the sticky view error must
		// classify the staleness, and the discarded result must not be
		// mistaken for an answer.
		queryBytes(t, src, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 2)
		if err := src.Err(); !errors.Is(err, ErrStaleView) {
			t.Fatalf("query after PackSegments: Err()=%v, want ErrStaleView", err)
		}
		// A fresh view over the new layout answers identically.
		v2, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		src2 := v2.Source(nil)
		if got := queryBytes(t, src2, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 2); !bytes.Equal(baseline, got) {
			t.Fatal("reopened view answers differently over the packed layout")
		}
		if err := src2.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEagerScanStaleClassification: the eager scan path classifies a unit
// list raced by maintenance the same way — a pack that vanished between
// listing and decode surfaces ErrStaleView, not a bare read error.
func TestEagerScanStaleClassification(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	smallHistory(t, store, 1)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	var st ScanStats
	units, err := store.scanUnits(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil { // folds the pack away
		t.Fatal(err)
	}
	members := 0
	for i := range units {
		if units[i].member == "" {
			continue
		}
		members++
		units[i].data = nil
		if _, err := units[i].fetch(store); !errors.Is(err, ErrStaleView) {
			t.Fatalf("fetch of vanished pack member %s: err=%v, want ErrStaleView", units[i].member, err)
		}
	}
	if members == 0 {
		t.Fatal("layout grew no pack members; the race never happened")
	}
}

// TestLazyReadFaultInjection drives lazy reads through faultfs: injected
// read failures and a mid-read crash must surface as classified errors on a
// cold view while a warm view keeps serving its cached, consistent decode —
// never partial output.
func TestLazyReadFaultInjection(t *testing.T) {
	inner := VFSBackend{View: vfs.NewStore().NewView()}
	ffs := faultfs.New(inner, 1)
	store, err := NewStore(ffs, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	smallHistory(t, store, 0)
	smallHistory(t, store, 1)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	baseline := ntBytes(t, mustMerge(t, store))

	warm, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g, _, err := warm.MaterializeGraph(2); err != nil || !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatalf("warm view baseline: err=%v", err)
	}
	cold, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}

	ffs.FailReads(true)
	if _, _, err := cold.MaterializeGraph(2); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("cold view under failing reads: err=%v, want ErrInjected", err)
	}
	if g, _, err := warm.MaterializeGraph(2); err != nil || !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatalf("warm view under failing reads: err=%v (cache must serve)", err)
	}
	ffs.Heal()

	// Crash point during a lazy read epoch: the crash fires on the next
	// mutating operation, after which every backend read returns ErrCrashed.
	ffs.CrashAt(0, 0)
	if err := store.WriteDeltaSegment(9, 0, []rdf.Triple{
		{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:b")},
	}); err == nil {
		t.Fatal("write survived the armed crash point")
	}
	cold2, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
	if err == nil {
		if _, _, merr := cold2.MaterializeGraph(2); !errors.Is(merr, faultfs.ErrCrashed) {
			t.Fatalf("cold view across crash: err=%v, want ErrCrashed", merr)
		}
	}
	if g, _, err := warm.MaterializeGraph(2); err != nil || !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatalf("warm view across crash: err=%v (cache must serve)", err)
	}
}

// withCrossUnitDuplicates adds one more loose unit holding a sample of the
// store's triples again, so batches see triples duplicated across units.
func withCrossUnitDuplicates(t *testing.T, store *Store, rng *rand.Rand) {
	t.Helper()
	var dup []rdf.Triple
	for _, tr := range mustMerge(t, store).SortedTriples() {
		if rng.Intn(3) == 0 {
			dup = append(dup, tr)
		}
	}
	if err := store.WriteDeltaSegment(30, 0, dup); err != nil {
		t.Fatal(err)
	}
}

// randomBatch draws a probe batch: wildcard and bound positions, a variable
// predicate, constants no unit holds, triples taken whole from the store
// (some of them held by several units), and repeated patterns.
func randomBatch(rng *rand.Rand, src *LazySource, triples []rdf.Triple, n int) [][3]rdf.ID {
	id := func(t rdf.Term) rdf.ID { i, _ := src.TermID(t); return i }
	var pats [][3]rdf.ID
	for len(pats) < n {
		tr := triples[rng.Intn(len(triples))]
		switch rng.Intn(7) {
		case 0:
			pats = append(pats, [3]rdf.ID{id(tr.S), rdf.NoID, rdf.NoID})
		case 1:
			pats = append(pats, [3]rdf.ID{rdf.NoID, id(tr.P), rdf.NoID})
		case 2:
			pats = append(pats, [3]rdf.ID{id(tr.S), rdf.NoID, id(tr.O)}) // variable predicate
		case 3:
			pats = append(pats, [3]rdf.ID{id(tr.S), id(tr.P), id(tr.O)})
		case 4:
			absent := id(rdf.IRI(fmt.Sprintf("urn:absent%d", rng.Intn(3))))
			pats = append(pats, [3]rdf.ID{absent, id(tr.P), rdf.NoID})
		case 5:
			pats = append(pats, [3]rdf.ID{rdf.NoID, rdf.NoID, id(tr.O)})
		default:
			if len(pats) > 0 {
				pats = append(pats, pats[rng.Intn(len(pats))])
			}
		}
	}
	return pats
}

// batchOutput collects MatchBatch output per pattern, in emission order.
func batchOutput(src *LazySource, pats [][3]rdf.ID) [][][3]rdf.ID {
	out := make([][][3]rdf.ID, len(pats))
	src.MatchBatch(pats, func(i int, s, p, o rdf.ID) {
		out[i] = append(out[i], [3]rdf.ID{s, p, o})
	})
	return out
}

// maxUnitBytes decodes every unit of the store once and returns the largest
// decoded footprint: a cache budget of that size holds one unit.
func maxUnitBytes(t *testing.T, store *Store) int64 {
	t.Helper()
	v, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.MaterializeGraph(1); err != nil {
		t.Fatal(err)
	}
	var max int64
	for _, lu := range v.units {
		if lu.decBytes > max {
			max = lu.decBytes
		}
	}
	return max
}

// TestLazyMatchBatchParity is the batched-probe property: for random mixed
// layouts at cache budgets unbounded, an eighth of the decoded footprint, one
// unit and one byte, MatchBatch's output for each pattern equals the
// pattern's own ForEachMatchIDs output and the exact ScanRange enumeration,
// in the same order, and matches the eager merged graph; a batch loads each
// admitted unit at most once; and no unit's term set ever lacks a term one
// of its own triples uses.
func TestLazyMatchBatchParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := buildScatteredStore(t, rng)
		withCrossUnitDuplicates(t, store, rng)
		full := mustMerge(t, store)
		triples := full.SortedTriples()
		one := maxUnitBytes(t, store)

		v0, err := store.OpenLazy(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := v0.MaterializeGraph(1); err != nil {
			t.Fatal(err)
		}
		total := v0.Stats().ResidentBytes

		for _, budget := range []int64{0, total / 8, one, 1} {
			tag := fmt.Sprintf("seed %d budget %d", seed, budget)
			v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			src := v.Source(nil)
			for trial := 0; trial < 6; trial++ {
				pats := randomBatch(rng, src, triples, 2+rng.Intn(40))
				before := v.Stats().Misses
				got := batchOutput(src, pats)
				if misses := v.Stats().Misses - before; misses > uint64(src.Admitted()) {
					t.Fatalf("%s: a batch over %d units missed the cache %d times", tag, src.Admitted(), misses)
				}
				for i, pat := range pats {
					var each, scan [][3]rdf.ID
					src.ForEachMatchIDs(pat[0], pat[1], pat[2], func(s, p, o rdf.ID) bool {
						each = append(each, [3]rdf.ID{s, p, o})
						return true
					})
					src.ScanRange(pat[0], pat[1], pat[2], 0, src.ScanLen(pat[0], pat[1], pat[2]), func(s, p, o rdf.ID) bool {
						scan = append(scan, [3]rdf.ID{s, p, o})
						return true
					})
					if fmt.Sprint(got[i]) != fmt.Sprint(each) || fmt.Sprint(got[i]) != fmt.Sprint(scan) {
						t.Fatalf("%s pattern %d %v: batch %v, ForEachMatchIDs %v, ScanRange %v", tag, i, pat, got[i], each, scan)
					}
					sp, pp, op := src.termPtr(pat[0]), src.termPtr(pat[1]), src.termPtr(pat[2])
					if want := len(full.Find(sp, pp, op)); want != len(got[i]) {
						t.Fatalf("%s pattern %d %v: %d matches, eager graph has %d", tag, i, pat, len(got[i]), want)
					}
				}
			}
			if err := src.Err(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if budget > 0 && v.Stats().PeakBytes > budget {
				t.Fatalf("%s: peak %d exceeds budget", tag, v.Stats().PeakBytes)
			}

			for _, lu := range src.units {
				du, err := v.loadUnit(lu)
				if err != nil {
					t.Fatal(err)
				}
				du.forEach(rdf.NoID, rdf.NoID, rdf.NoID, func(gs, gp, gob rdf.ID) bool {
					if !src.mayMatch(lu, gs, gp, gob) {
						t.Fatalf("%s: unit %s reported lacking its own triple %d %d %d", tag, lu.u.path+lu.u.member, gs, gp, gob)
					}
					return true
				})
			}
		}
	}
}

// TestLazyMatchBatchConcurrentResidency is the regression test for the
// residency hazard: several goroutines run the same batches on one source
// at a one-unit budget while another goroutine keeps loading units, so
// residency changes under every batch. Residency may only order a batch's
// visits; if it decided which units are visited — say, resident ones in one
// pass and the rest in a second pass — a unit that changed state between
// the passes would be skipped or read twice and an answer would differ from
// the serial one.
func TestLazyMatchBatchConcurrentResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	store := buildScatteredStore(t, rng)
	withCrossUnitDuplicates(t, store, rng)
	triples := mustMerge(t, store).SortedTriples()
	v, err := store.OpenLazy(CacheConfig{MaxBytes: maxUnitBytes(t, store)})
	if err != nil {
		t.Fatal(err)
	}
	src := v.Source(nil)
	var batches [][][3]rdf.ID
	var want []string
	for i := 0; i < 8; i++ {
		pats := randomBatch(rng, src, triples, 24)
		batches = append(batches, pats)
		want = append(want, fmt.Sprint(batchOutput(src, pats)))
	}

	rounds := 300
	if testing.Short() {
		rounds = 150
	}
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := v.loadUnit(v.units[i%len(v.units)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for r := 0; r < rounds; r++ {
				b := (g + r) % len(batches)
				if got := fmt.Sprint(batchOutput(src, batches[b])); got != want[b] {
					errs <- fmt.Errorf("goroutine %d round %d batch %d: answer differs from the serial one", g, r, b)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-churned
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Evictions == 0 {
		t.Fatal("the churn never evicted: residency did not change")
	}
}

// TestLazyScanLenMemoBounded: the view-lifetime scanLens memo must not grow
// with the number of queries a view serves. Batched join probes never touch
// it, so serial star joins leave it empty however many run; parallel
// queries memoize their lead patterns, at most scanLenMemoCap per unit.
func TestLazyScanLenMemoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := buildScatteredStore(t, rng)
	v, err := store.OpenLazy(CacheConfig{MaxBytes: maxUnitBytes(t, store)})
	if err != nil {
		t.Fatal(err)
	}
	memo := func() int {
		n := 0
		for _, lu := range v.units {
			lu.mu.Lock()
			n += len(lu.scanLens)
			lu.mu.Unlock()
		}
		return n
	}
	star := func(i int) string {
		return fmt.Sprintf(`SELECT ?a ?p ?b ?q ?c WHERE { ?a ?p <urn:n%d> . ?a ?q ?b . ?b ?r ?c }`, i)
	}
	run := func(from, to, workers int) {
		for i := from; i < to; i++ {
			src := v.Source(nil)
			queryBytes(t, src, star(i), workers)
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0, 10, 1)
	if n := memo(); n != 0 {
		t.Fatalf("serial star joins left %d memo entries; probes must not touch the memo", n)
	}
	run(0, 40, 1)
	if n := memo(); n != 0 {
		t.Fatalf("serial star joins left %d memo entries after 40 queries", n)
	}
	limit := scanLenMemoCap * len(v.units)
	run(0, 2*scanLenMemoCap, 2)
	first := memo()
	if first == 0 {
		t.Fatal("parallel queries memoized no lead pattern: the test exercises nothing")
	}
	run(2*scanLenMemoCap, 4*scanLenMemoCap, 2)
	if n := memo(); n != first || n > limit {
		t.Fatalf("memo holds %d entries after %d parallel queries, %d after %d (bound %d)",
			first, 2*scanLenMemoCap, n, 4*scanLenMemoCap, limit)
	}
}

// buildLineageStore writes a small multi-process workflow across delta
// segments, a pack and loose segments: each process writes a file holding a
// dataset holding an attribute, and reads and derives from the previous
// process's file, so lineage from any of them crosses units. It returns one
// file, dataset and attribute node of the middle of the chain.
func buildLineageStore(t *testing.T) (store *Store, file, dataset, attribute rdf.Term) {
	t.Helper()
	store = newBinaryVFSStore(t)
	for pid := 0; pid < 4; pid++ {
		cfg := DefaultConfig()
		cfg.Mode = ModePeriodic
		cfg.FlushEvery = 3
		tr := NewTracker(cfg, store, pid)
		prog := tr.RegisterProgram(fmt.Sprintf("step%d", pid), tr.RegisterUser("alice"))
		path := fmt.Sprintf("/run/out%d.h5", pid)
		f := tr.TrackDataObject(model.File, path, path, rdf.Term{}, prog)
		ds := tr.TrackDataObject(model.Dataset, path+"/d", "d", f, prog)
		attr := tr.TrackDataObject(model.Attribute, path+"/d/units", "units", ds, prog)
		tr.TrackIO(model.Write, "H5Dwrite", ds, prog, time.Millisecond, time.Millisecond)
		tr.TrackIO(model.Write, "H5Awrite", attr, prog, 2*time.Millisecond, time.Millisecond)
		if pid > 0 {
			prev := rdf.IRI(model.NodeIRI(model.File, fmt.Sprintf("/run/out%d.h5", pid-1)))
			tr.TrackIO(model.Read, "H5Dread", prev, prog, 3*time.Millisecond, time.Millisecond)
			tr.TrackDerivation(f, prev)
		}
		if err := tr.Drain(); err != nil {
			t.Fatal(err)
		}
		if pid == 1 {
			file, dataset, attribute = f, ds, attr
			if _, err := store.PackSegments(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store, file, dataset, attribute
}

// TestLazyLineageColdDictionary: lineage must be correct as the first call
// on a fresh view, when the shared dictionary holds no term yet — roots and
// relation predicates have to be interned, not looked up. For an attribute,
// a dataset, a file and an absent root, unbounded and 1–3 hops, at budgets
// unbounded, one unit and one byte, the lazy answer equals the eager
// reduction of the merged store.
func TestLazyLineageColdDictionary(t *testing.T) {
	store, file, dataset, attribute := buildLineageStore(t)
	full := mustMerge(t, store)
	one := maxUnitBytes(t, store)
	roots := map[string]rdf.Term{
		"attribute": attribute,
		"dataset":   dataset,
		"file":      file,
		"absent":    rdf.IRI("urn:absent"),
	}
	for _, budget := range []int64{0, one, 1} {
		for name, root := range roots {
			for hops := 0; hops <= 3; hops++ {
				tag := fmt.Sprintf("budget %d root %s hops %d", budget, name, hops)
				want := ntBytes(t, ReduceLineageUncached(full, []rdf.Term{root}, hops))
				if name != "absent" && len(want) == 0 {
					t.Fatalf("%s: eager reduction is empty; the store does not exercise lineage", tag)
				}
				v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := v.ReduceLineagePruned([]rdf.Term{root}, hops, 2)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !bytes.Equal(want, ntBytes(t, got)) {
					t.Fatalf("%s: lazy lineage on a cold view differs from eager:\n got %d triples\nwant %d triples", tag, got.Len(), bytes.Count(want, []byte("\n")))
				}
				if budget > 0 && st.CachePeakBytes > budget {
					t.Fatalf("%s: peak %d exceeds budget", tag, st.CachePeakBytes)
				}
			}
		}
	}
}
