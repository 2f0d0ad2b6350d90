package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
)

// buildTestQueryStore builds the query workloads' store in a temp dir.
func buildTestQueryStore(t *testing.T) (string, int64) {
	t.Helper()
	fs, err := newInputs(queryPlan.shape)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := buildQueryStore(fs, backend.Dir{}, dir, queryPlan, nil, nil, -1); err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStore(backend.Dir{}, dir, core.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	all, err := st.OpenLazy(core.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := all.MaterializeGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	return dir, maxStartOf(g)
}

// lazyTrace runs a fixed request list through a bounded lazy view over b
// and returns every request's scan stats and rendered answers.
func lazyTrace(t *testing.T, b core.StoreBackend, dir string, budget int64, reqs []request) ([]core.ScanStats, [][32]byte) {
	t.Helper()
	st, err := core.NewStore(b, dir, core.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	view, err := st.OpenLazy(core.CacheConfig{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	var stats []core.ScanStats
	var digests [][32]byte
	for _, r := range reqs {
		if r.query == "" {
			continue
		}
		q, err := provio.ParseQuery(r.query)
		if err != nil {
			t.Fatal(err)
		}
		src := view.Source(provio.PrunerForQuery(q))
		res, _, err := provio.QueryLazyParallelInfo(src, r.query, queryWorkers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		stats = append(stats, *src.Stats())
		digests = append(digests, sha256.Sum256(buf.Bytes()))
	}
	return stats, digests
}

// The backend timing decorator must keep ReadFileRange: core probes the
// outermost backend for it, and without it every pack-member read of the
// lazy view would become a whole-pack read.
func TestTimedBackendKeepsRangeReads(t *testing.T) {
	dir, maxStart := buildTestQueryStore(t)
	if _, ok := newTimedBackend(backend.Dir{}, nil, &ioCounts{}).(interface {
		ReadFileRange(string, int64, int64) ([]byte, error)
	}); !ok {
		t.Fatal("decorator over a range-capable backend lost ReadFileRange")
	}
	if _, ok := newTimedBackend(noRange{backend.Dir{}}, nil, &ioCounts{}).(interface {
		ReadFileRange(string, int64, int64) ([]byte, error)
	}); ok {
		t.Fatal("decorator invented ReadFileRange for a backend without it")
	}

	mx := newMix(7, queryPlan.shape, maxStart)
	var reqs []request
	for len(reqs) < 30 {
		for _, r := range mx.round() {
			if r.class != classBulkExport && r.class != classTopDurations && r.class != classOpCounts {
				reqs = append(reqs, r)
			}
		}
	}
	const budget = 1 << 18
	plain, answers := lazyTrace(t, backend.Dir{}, dir, budget, reqs)

	tr := newTracer()
	io := &ioCounts{}
	timed := newTimedBackend(backend.Dir{}, tr.newLane(0), io)
	wrapped, wrappedAnswers := lazyTrace(t, timed, dir, budget, reqs)
	if !reflect.DeepEqual(answers, wrappedAnswers) {
		t.Fatal("answers differ with the decorator")
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Fatalf("scan stats differ with the decorator:\nplain   %+v\nwrapped %+v", plain, wrapped)
	}
	if io.rangeCalls.Load() == 0 {
		t.Fatal("wrapped lazy view made no range reads")
	}

	// A decorator without ReadFileRange measures a different program:
	// pack members are fetched by whole-pack reads.
	whole := &ioCounts{}
	_, _ = lazyTrace(t, newTimedBackend(noRange{backend.Dir{}}, tr.newLane(0), whole), dir, budget, reqs)
	if whole.rangeCalls.Load() != 0 || whole.readBytes.Load() <= io.readBytes.Load() {
		t.Fatalf("whole-file reads: %d range calls, %d bytes vs %d with ranges",
			whole.rangeCalls.Load(), whole.readBytes.Load(), io.readBytes.Load())
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// noRange hides a backend's ReadFileRange.
type noRange struct{ core.StoreBackend }

// The VOL timing shims must not change what is tracked.
func TestTimedVOLPreservesProvenance(t *testing.T) {
	sh := shape{Files: 4, Channels: 2, Attrs: 3, Samples: 16, User: "user-000001"}
	fs, err := newInputs(sh)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *tracer) (records, triples, bytes int64) {
		dir := filepath.Join(t.TempDir(), "store")
		spec := runSpec{shape: sh, files: ints(0, sh.Files), ranks: 2, prov: ingestConfig(),
			backend: backend.Dir{}, dir: dir, tr: tr, io: &ioCounts{}}
		out, err := runWorkflow(fs, spec)
		if err != nil {
			t.Fatal(err)
		}
		cleanOutputs(fs, spec.files, ints(0, 2))
		for _, tk := range out.trackers {
			r, n := tk.Stats()
			records += r
			triples += n
		}
		st, err := core.NewStore(backend.Dir{}, dir, core.FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		if bytes, err = st.TotalBytes(); err != nil {
			t.Fatal(err)
		}
		return records, triples, bytes
	}
	r0, t0, b0 := run(nil)
	r1, t1, b1 := run(newTracer())
	if r0 != r1 || t0 != t1 || b0 != b1 {
		t.Fatalf("untraced %d records/%d triples/%d bytes, traced %d/%d/%d", r0, t0, b0, r1, t1, b1)
	}
	if r0 == 0 {
		t.Fatal("nothing tracked")
	}
}

// The seed fixes the query list, record counts and bytes per record; a
// different seed changes the query constants.
func TestSeedDeterminism(t *testing.T) {
	rounds := func(seed int64) []request {
		m := newMix(seed, queryPlan.shape, 1_000_000)
		var out []request
		for i := 0; i < 5; i++ {
			out = append(out, m.round()...)
		}
		return out
	}
	if !reflect.DeepEqual(rounds(3), rounds(3)) {
		t.Fatal("same seed, different query lists")
	}
	a, b := rounds(3), rounds(4)
	same := 0
	for i := range a {
		if a[i].key() == b[i].key() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds gave the same query constants")
	}

	sample := func(seed int64) ingestSample {
		sh := ingestShape(seed)
		sh.Files = 4
		fs, err := newInputs(sh)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ingestOnce(fs, sh, t.TempDir(), 0, nil, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := sample(11), sample(11)
	if s1.records != s2.records || s1.triples != s2.triples || s1.storeBytes != s2.storeBytes {
		t.Fatalf("same seed: %+v vs %+v", s1, s2)
	}
}

// Self time is never negative, however children overlap or overrun.
func TestSelfTimeNonNegative(t *testing.T) {
	spans := []span{
		{name: "parent", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 60, parent: 0},
		{name: "b", start: 40, end: 130, parent: 0}, // overlaps a, overruns the parent
		{name: "c", start: 20, end: 30, parent: 1},
	}
	self := selfTime(spans)
	if want := []int64{10, 40, 90, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}

	sh := shape{Files: 4, Channels: 2, Attrs: 3, Samples: 16, User: "user-000001"}
	fs, err := newInputs(sh)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, err := ingestOnce(fs, sh, t.TempDir(), 0, tr, &ioCounts{}, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range tr.lanes {
		for i, s := range selfTime(l.spans) {
			n++
			if s < 0 {
				t.Fatalf("span %q has negative self time %d", l.spans[i].name, s)
			}
		}
	}
	if n == 0 {
		t.Fatal("no spans recorded")
	}
}

// BENCHMARK.json at the repository root names exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, sortedKeys(workloads)) {
		t.Errorf("workloads %v, program runs %v", names, sortedKeys(workloads))
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
