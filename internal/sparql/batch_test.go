package sparql

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// reversedBatches is a snapshot that also answers batched probes, emitting
// the batch's patterns last to first — the cross-pattern interleaving is the
// source's choice, so the executor must restore input-row order itself.
type reversedBatches struct {
	*rdf.Snapshot
	calls atomic.Int64
}

func (r *reversedBatches) MatchBatch(pats [][3]rdf.ID, fn func(i int, s, p, o rdf.ID)) {
	r.calls.Add(1)
	for i := len(pats) - 1; i >= 0; i-- {
		r.ForEachMatchIDs(pats[i][0], pats[i][1], pats[i][2], func(s, p, o rdf.ID) bool {
			fn(i, s, p, o)
			return true
		})
	}
}

// TestBatchSourceParity: joins over a BatchSource take the batched probe
// path and return exactly the rows the row-at-a-time path returns, serially
// and in parallel.
func TestBatchSourceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	batched := int64(0)
	for iter := 0; iter < 30; iter++ {
		g := bigParityGraph(rng, 150+rng.Intn(300))
		query := "SELECT * WHERE { " + strings.Join(randomBGP(rng), " ") + " }"
		q, err := Parse(query, nil)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		want, err := Eval(g, q)
		if err != nil {
			t.Fatal(err)
		}
		src := &reversedBatches{Snapshot: g.Snapshot()}
		for _, w := range []int{1, 2, 4} {
			got, _, err := EvalParallelOnInfo(src, q, w)
			if err != nil {
				t.Fatal(err)
			}
			if !identicalResults(want, got) {
				t.Fatalf("iter %d workers=%d: batched probes differ for %q: %d rows, want %d",
					iter, w, query, len(got.Rows), len(want.Rows))
			}
		}
		batched += src.calls.Load()
	}
	if batched == 0 {
		t.Fatal("no join took the batched probe path")
	}
}
