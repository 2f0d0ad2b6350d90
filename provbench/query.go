package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
)

// heapRounds bounds the rounds peak_heap_mb covers. The merged graph's
// result memo keeps every distinct answer, so its heap grows with the
// requests served; a fixed amount of work keeps the figure from rising
// when queries get faster.
const heapRounds = 200

// queryWorkers is the executor's worker count: the workloads keep at most
// two goroutines working at once.
const queryWorkers = 2

// queryPlan is the query store both query workloads serve. It does not
// depend on the seed, so every seed queries the same bytes and only the
// query constants and order change.
var queryPlan = storePlan{
	shape:      shape{Files: 8, Channels: 4, Attrs: 12, Samples: 64, User: "dassa-user"},
	wave1:      2,
	wave2:      2,
	wave1Files: 6,
	flushEvery: 512,
}

// response is what the timed loop keeps of one request for the check.
type response struct {
	req     request
	latency float64 // ms
	digest  [32]byte
}

// queryState is the set-up a query workload times against.
type queryState struct {
	store    *core.Store
	graph    *rdf.Graph     // query-merged
	view     *core.LazyView // query-lazy
	timed    timedStore     // query-lazy traced runs: the view's backend
	budget   int64
	maxStart int64
}

// setupQuery builds the query store and readies it for serving: the merged
// graph with a warmed snapshot index, or a lazy view budgeted at a quarter
// of the store's decoded footprint.
func setupQuery(b *bench, lazy bool, rep int, io *ioCounts) (*queryState, buildTimes, error) {
	var st setupTimes
	start := time.Now()
	fs, err := newInputs(queryPlan.shape)
	if err != nil {
		return nil, buildTimes{}, err
	}
	dir := filepath.Join(b.work, fmt.Sprintf("store-%d", rep))
	var tr *tracer
	req := int32(-1)
	if b.trace && rep == 0 {
		// The first build is traced: its write path fills the write-side
		// layer figures of the query workloads.
		tr, req = b.tr, 1<<20
		tr.request(req, "tracked")
		tr.request(req+1, "untracked")
	}
	bt, err := buildQueryStore(fs, backend.Dir{}, dir, queryPlan, tr, io, req)
	if err != nil {
		return nil, bt, err
	}
	st.build = time.Since(start) - bt.pack
	st.pack = bt.pack

	qs := &queryState{}
	var b0 core.StoreBackend = backend.Dir{}
	if lazy && b.trace {
		qs.timed = newTimedBackend(b0, nil, io)
		b0 = qs.timed
	}
	if qs.store, err = core.NewStore(b0, dir, core.FormatBinary); err != nil {
		return nil, bt, err
	}
	if !lazy {
		start = time.Now()
		if qs.graph, err = qs.store.MergeParallel(queryWorkers); err != nil {
			return nil, bt, fmt.Errorf("merge: %w", err)
		}
		st.merge = time.Since(start)
		start = time.Now()
		// The first query pays for the snapshot index; users of a
		// long-lived graph do not.
		res, err := provio.Query(qs.graph, `SELECT (MAX(?t) AS ?max) WHERE { ?api provio:startedAt ?t . }`)
		if err != nil {
			return nil, bt, fmt.Errorf("index warm-up: %w", err)
		}
		st.warm = time.Since(start)
		if len(res.Rows) != 1 {
			return nil, bt, fmt.Errorf("index warm-up: %d rows", len(res.Rows))
		}
		if qs.maxStart, err = strconv.ParseInt(res.Rows[0]["max"].Value, 10, 64); err != nil {
			return nil, bt, fmt.Errorf("index warm-up: %w", err)
		}
	} else {
		// The decoded footprint sizes the budget: materialize every unit
		// through an unbounded view once.
		start = time.Now()
		all, err := qs.store.OpenLazy(core.CacheConfig{})
		if err != nil {
			return nil, bt, err
		}
		g, _, err := all.MaterializeGraph(queryWorkers)
		if err != nil {
			return nil, bt, fmt.Errorf("footprint: %w", err)
		}
		footprint := all.Stats().ResidentBytes
		qs.maxStart = maxStartOf(g)
		st.merge = time.Since(start)
		b.env["decoded_footprint_bytes"] = footprint
		b.env["store_triples"] = g.Len()
		qs.budget = footprint / 4

		start = time.Now()
		if qs.view, err = qs.store.OpenLazy(core.CacheConfig{MaxBytes: qs.budget}); err != nil {
			return nil, bt, err
		}
		st.openLazy = time.Since(start)
		// Warm the view's dictionary and cache with one selective query.
		start = time.Now()
		warm := newMix(-1, queryPlan.shape, qs.maxStart).next(classLineagePath)
		if _, _, err := runLazy(qs, warm, nil, &bytes.Buffer{}, nil); err != nil {
			return nil, bt, fmt.Errorf("warm-up: %w", err)
		}
		st.warm = time.Since(start)
	}
	b.setups = append(b.setups, st)
	return qs, bt, nil
}

func maxStartOf(g *rdf.Graph) int64 {
	var m int64
	p := rdf.IRI(model.PropTimestamp.IRI().Value)
	g.ForEachMatch(nil, &p, nil, func(t rdf.Triple) bool {
		if v, err := strconv.ParseInt(t.O.Value, 10, 64); err == nil && v > m {
			m = v
		}
		return true
	})
	return m
}

// queryMeasure collects the traced figures of the query workloads.
type queryMeasure struct {
	sparqlReqs, memoHits, executed, parallel int
	rows                                     int64
	lineageReqs                              int
	lineageTriples                           int64
	lazyReqs                                 int
	lazyScan
	hits, misses, evictions uint64 // cache counters over traced requests
}

// runMerged serves one request from the merged graph; it returns the
// rendered results (or lineage graph) for the check.
func runMerged(qs *queryState, r request, l *lane, buf *bytes.Buffer, m *queryMeasure) (func() [32]byte, error) {
	if r.query == "" {
		s := l.begin("core.lineage")
		g := provio.ReduceLineage(qs.graph, []rdf.Term{rdf.IRI(r.root)}, r.hops)
		l.end(s)
		if l != nil {
			m.lineageReqs++
			m.lineageTriples += int64(g.Len())
		}
		return func() [32]byte { return graphDigest(g) }, nil
	}
	if l != nil {
		// Parsing is timed with a separate call: the query entry point
		// parses internally.
		s := l.begin("sparql.parse")
		_, err := provio.ParseQuery(r.query)
		l.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := l.begin("sparql.eval")
	res, info, err := provio.QueryParallelInfo(qs.graph, r.query, queryWorkers)
	l.end(s)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	s = l.begin("sparql.render")
	err = res.WriteJSON(buf)
	l.end(s)
	if l != nil {
		m.sparqlCounts(info, len(res.Rows))
	}
	return func() [32]byte { return sha256.Sum256(buf.Bytes()) }, err
}

func (m *queryMeasure) sparqlCounts(info provio.QueryInfo, rows int) {
	m.sparqlReqs++
	m.rows += int64(rows)
	if info.CacheHit {
		m.memoHits++
		return
	}
	m.executed++
	if info.Parallel {
		m.parallel++
	}
}

// lazyScan is what one out-of-core request touched.
type lazyScan struct {
	units, admitted, decoded int
	lineageTriples           int // lineage requests: size of the reduced graph
}

// runLazy serves one request out-of-core through the long-lived view.
func runLazy(qs *queryState, r request, l *lane, buf *bytes.Buffer, m *queryMeasure) (func() [32]byte, lazyScan, error) {
	if r.query == "" {
		s := l.begin("core.lineage")
		l.waitOn(s)
		g, st, err := qs.view.ReduceLineagePruned([]rdf.Term{rdf.IRI(r.root)}, r.hops, queryWorkers)
		l.end(s)
		if err != nil {
			return nil, lazyScan{}, err
		}
		// The lineage fixpoint admits exactly the units it decodes.
		return func() [32]byte { return graphDigest(g) }, lazyScan{st.Units, st.Decoded, st.Decoded, g.Len()}, nil
	}
	s := l.begin("sparql.parse")
	q, err := provio.ParseQuery(r.query)
	l.end(s)
	if err != nil {
		return nil, lazyScan{}, err
	}
	s = l.begin("core.admission")
	src := qs.view.Source(provio.PrunerForQuery(q))
	l.end(s)
	s = l.begin("sparql.eval")
	l.waitOn(s)
	res, info, err := provio.QueryLazyParallelInfo(src, r.query, queryWorkers)
	l.end(s)
	if err != nil {
		return nil, lazyScan{}, err
	}
	buf.Reset()
	s = l.begin("sparql.render")
	err = res.WriteJSON(buf)
	l.end(s)
	if l != nil {
		m.sparqlCounts(info, len(res.Rows))
	}
	st := src.Stats()
	return func() [32]byte { return sha256.Sum256(buf.Bytes()) }, lazyScan{st.Units, src.Admitted(), st.Decoded, 0}, err
}

// graphDigest hashes a graph's sorted N-Triples rendering.
func graphDigest(g *rdf.Graph) [32]byte {
	h := sha256.New()
	for _, t := range g.SortedTriples() {
		h.Write([]byte(t.String()))
		h.Write([]byte{'\n'})
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func runQuery(b *bench, lazy bool) error {
	io := &ioCounts{}
	var qs *queryState
	var rate, over, bpr []float64
	var first buildTimes
	for rep := 0; rep < setupRepeats; rep++ {
		if qs != nil {
			// Release the previous set-up before building the next.
			os.RemoveAll(qs.store.Dir())
			qs = nil
			runtime.GC()
		}
		var bt buildTimes
		var err error
		if qs, bt, err = setupQuery(b, lazy, rep, io); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if rep == 0 {
			first = bt
		}
		total, err := qs.store.TotalBytes()
		if err != nil {
			return err
		}
		// The traced build's rates carry tracing cost; use the others.
		for i := range bt.trackedNS {
			if b.trace && rep == 0 {
				break
			}
			rate = append(rate, float64(bt.wave1Records)/(float64(bt.trackedNS[i])/1e9))
			over = append(over, float64(bt.trackedNS[i]-bt.untrackedNS[i])/1e3/float64(bt.calls))
		}
		bpr = append(bpr, float64(total)/float64(bt.records))
	}
	b.set("bytes_per_record", median(bpr))
	b.set("ingest.records_per_s", median(rate))
	b.set("ingest.overhead_us_per_io", median(over))
	if b.trace {
		b.writeLayers(io, collectPairs, first.wave1Records, first.wave1Triples)
		*io = ioCounts{}
	}
	if lazy {
		b.env["lazy_budget_bytes"] = qs.budget
	}
	if lv, err := qs.store.Levels(); err == nil {
		units := map[string]int{}
		for _, l := range lv {
			units[fmt.Sprintf("L%d", l.Level)] = l.Units
		}
		b.env["units_per_level"] = units
	}

	// Merged and lazy draw from different seed streams.
	seed := 2 * b.seed
	if lazy {
		seed++
	}
	mx := newMix(seed, queryPlan.shape, qs.maxStart)
	client := b.tr.newLane(0)
	var out []response
	var m queryMeasure
	var tracedLat, plainLat []float64
	var busy time.Duration
	var readNS int64
	buf := &bytes.Buffer{}

	gc0 := readGC()
	// Lazy requests are slow enough to collect before each one; the merged
	// graph's heap is larger and its requests far shorter.
	interval := 250 * time.Millisecond
	if lazy {
		interval = time.Nanosecond
	}
	heap := startHeapSampler(interval)
	deadline := time.Now().Add(b.seconds)
	for round := 0; time.Now().Before(deadline); round++ {
		if round == heapRounds {
			b.peakHeapMB = heap.stopMB()
			heap = nil
		}
		var l *lane
		if b.trace && round%2 == 0 {
			l = client
		}
		if qs.timed != nil {
			qs.timed.setLane(l)
		}
		for _, r := range mx.round() {
			if heap != nil {
				heap.quiesce()
			}
			b.attempted++
			req := int32(b.attempted)
			b.tr.request(req, "query")
			client.setReq(req)
			var c0 core.CacheStats
			if lazy && l != nil {
				c0 = qs.view.Stats()
			}
			start := time.Now()
			var digest func() [32]byte
			var sc lazyScan
			var err error
			if lazy {
				digest, sc, err = runLazy(qs, r, l, buf, &m)
			} else {
				digest, err = runMerged(qs, r, l, buf, &m)
			}
			d := time.Since(start)
			if err != nil {
				b.fail("%s request %q: %v", r.class, r.key(), err)
				continue
			}
			busy += d
			resp := response{req: r, latency: ms(d), digest: digest()}
			out = append(out, resp)
			if l == nil {
				plainLat = append(plainLat, resp.latency)
				continue
			}
			tracedLat = append(tracedLat, resp.latency)
			if lazy {
				c1 := qs.view.Stats()
				m.lazyReqs++
				m.units += sc.units
				m.admitted += sc.admitted
				m.decoded += sc.decoded
				if r.query == "" {
					m.lineageReqs++
					m.lineageTriples += int64(sc.lineageTriples)
				}
				m.hits += c1.Hits - c0.Hits
				m.misses += c1.Misses - c0.Misses
				m.evictions += c1.Evictions - c0.Evictions
			}
		}
	}
	if heap != nil {
		b.peakHeapMB = heap.stopMB()
	}
	b.gcDelta(gc0)
	if qs.timed != nil {
		qs.timed.setLane(nil)
	}
	if len(out) == 0 {
		return fmt.Errorf("no request completed")
	}
	lat := make([]float64, len(out))
	for i, r := range out {
		lat[i] = r.latency
	}
	b.requests(lat, busy)

	var cache core.CacheStats
	if lazy {
		cache = qs.view.Stats()
		if cache.PeakBytes > qs.budget {
			b.fail("lazy cache peak %d bytes exceeds budget %d", cache.PeakBytes, qs.budget)
		}
		b.env["lazy_cache_peak_bytes"] = cache.PeakBytes
	}
	if b.trace {
		f := b.tr.fold()
		get := func(name string) *layerStat { return statOf(f, "query", name) }
		parse := get("sparql.parse")
		xs := make([]float64, len(parse.durs))
		for i, d := range parse.durs {
			xs[i] = float64(d) / 1e3
		}
		b.set("sparql.parse_us", median(xs))
		b.set("sparql.eval_ms", medianMS(get("sparql.eval")))
		b.set("sparql.render_ms", medianMS(get("sparql.render")))
		b.set("core.lineage_ms", medianMS(get("core.lineage")))
		b.set("core.admission_ms", medianMS(get("core.admission")))
		reads := get("backend.read")
		readNS = reads.totalNS
		byClass := map[string][]float64{}
		for _, r := range out {
			byClass[r.req.class] = append(byClass[r.req.class], r.latency)
		}
		for _, c := range classes {
			b.set("class."+c+".p50_ms", median(byClass[c]))
		}
		b.set("trace.overhead_ms", mean(tracedLat)-mean(plainLat))
		b.set("core.lineage_triples_out", per(float64(m.lineageTriples), m.lineageReqs))
		b.set("sparql.rows_out", per(float64(m.rows), m.sparqlReqs))
		b.set("sparql.parallel_share", per(float64(m.parallel), m.executed))
		b.set("sparql.memo_hit_ratio", per(float64(m.memoHits), m.sparqlReqs))
		if lazy {
			n := m.lazyReqs
			b.set("core.units_admitted", per(float64(m.admitted), n))
			b.set("core.units_decoded", per(float64(m.decoded), n))
			b.set("core.units_skipped_share", per(float64(m.units-m.decoded), m.units))
			hits, misses := float64(m.hits), float64(m.misses)
			b.set("lazy.cache.hits", per(hits, n))
			b.set("lazy.cache.misses", per(misses, n))
			b.set("lazy.cache.evictions", per(float64(m.evictions), n))
			if hits+misses > 0 {
				b.set("lazy.cache.hit_ratio", hits/(hits+misses))
			}
			b.set("lazy.cache.peak_bytes", float64(cache.PeakBytes))
			b.set("lazy.cache.misses_per_decoded_unit", per(misses, m.decoded))
			evalNS := get("sparql.eval").totalNS + get("core.lineage").totalNS
			b.set("lazy.decode_remap_ms", per(float64(evalNS-readNS)/1e6, n))
			b.set("backend.read_calls", per(float64(io.readCalls.Load()), n))
			b.set("backend.range_read_calls", per(float64(io.rangeCalls.Load()), n))
			b.set("backend.read_bytes_per_query", per(float64(io.readBytes.Load()), n))
			b.set("backend.read_ms", per(float64(readNS)/1e6, n))
		}
	}

	// Check every response against the serial executor over the merged
	// graph. query-lazy merges only now, after its view is gone.
	g := qs.graph
	if lazy {
		qs.view = nil
		runtime.GC()
		var err error
		if g, err = qs.store.MergeParallel(queryWorkers); err != nil {
			return fmt.Errorf("oracle merge: %w", err)
		}
	}
	return b.check(g, out)
}

// check compares every response with its oracle answer: serial evaluation
// without the result memo, and the uncached lineage reduction.
func (b *bench) check(g *rdf.Graph, out []response) error {
	oracle := map[string][32]byte{}
	var buf bytes.Buffer
	for _, r := range out {
		k := r.req.key()
		want, ok := oracle[k]
		if !ok {
			if r.req.query == "" {
				want = graphDigest(core.ReduceLineageUncached(g, []rdf.Term{rdf.IRI(r.req.root)}, r.req.hops))
			} else {
				q, err := sparql.Parse(r.req.query, model.Namespaces())
				if err != nil {
					return err
				}
				res, err := sparql.Eval(g, q)
				if err != nil {
					return fmt.Errorf("oracle %q: %w", k, err)
				}
				buf.Reset()
				if err := res.WriteJSON(&buf); err != nil {
					return err
				}
				want = sha256.Sum256(buf.Bytes())
			}
			oracle[k] = want
		}
		if r.digest != want {
			b.fail("%s answer differs from the serial oracle: %q", r.req.class, k)
		}
	}
	b.env["distinct_queries"] = len(oracle)
	return nil
}
