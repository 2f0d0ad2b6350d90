package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
)

const ingestRanks = 2

// ingestShape derives the workflow from the seed: the seed picks the user
// (a fixed-width name, so record sizes do not depend on it) and the sample
// count per channel (data volume, not record count).
func ingestShape(seed int64) shape {
	u := uint64(seed)
	return shape{Files: 24, Channels: 4, Attrs: 12, Samples: 48 + 16*int(u%3),
		User: fmt.Sprintf("user-%06d", u%1000000)}
}

// ingestConfig is Fig. 6(b)'s worst case, attribute lineage, persisted as
// the binary format with periodic flushes through the async pipeline.
func ingestConfig() *core.Config {
	cfg := dassa.AttrLineage.ProvConfig()
	cfg.Format = core.FormatBinary
	cfg.Mode = core.ModePeriodic
	cfg.Pipeline = core.PipelineAsync
	cfg.FlushEvery = 1024
	return cfg
}

// ingestSample is one iteration: the tracked run and the same I/O stream
// untracked.
type ingestSample struct {
	trackedNS, untrackedNS int64
	calls                  int64 // intercepted VOL + POSIX calls of the tracked run
	records, triples       int64
	storeBytes             int64
}

// ingestOnce runs one iteration in a fresh store directory under work and
// checks it: the store verifies clean and its merged graph holds exactly
// the union of the rank trackers' graphs. tracedReq >= 0 traces the
// iteration's two runs under request ids tracedReq and tracedReq+1.
func ingestOnce(fs *vfs.Store, sh shape, work string, iter int, tr *tracer, io *ioCounts, tracedReq int32) (ingestSample, error) {
	var s ingestSample
	dir := filepath.Join(work, fmt.Sprintf("ingest-%04d", iter))
	defer os.RemoveAll(dir)
	files := ints(0, sh.Files)
	spec := runSpec{shape: sh, files: files, ranks: ingestRanks, prov: ingestConfig(),
		backend: backend.Dir{}, dir: dir}
	untracked := spec
	untracked.prov = nil
	if tr != nil {
		spec.tr, spec.io, spec.req = tr, io, tracedReq
		untracked.tr, untracked.req = tr, tracedReq+1
		tr.request(tracedReq, "tracked")
		tr.request(tracedReq+1, "untracked")
	}

	var out runOut
	runTracked := func() error {
		start := time.Now()
		var err error
		out, err = runWorkflow(fs, spec)
		s.trackedNS = int64(time.Since(start))
		cleanOutputs(fs, files, ints(0, ingestRanks))
		return err
	}
	runUntracked := func() error {
		start := time.Now()
		_, err := runWorkflow(fs, untracked)
		s.untrackedNS = int64(time.Since(start))
		cleanOutputs(fs, files, ints(0, ingestRanks))
		return err
	}
	// Alternate which run goes first so neither inherits the other's
	// warm caches or garbage systematically.
	first, second := runTracked, runUntracked
	if iter%2 == 1 {
		first, second = runUntracked, runTracked
	}
	if err := first(); err != nil {
		return s, err
	}
	if err := second(); err != nil {
		return s, err
	}
	s.calls = out.volCalls + out.posixCalls
	union := rdf.NewGraph()
	for _, t := range out.trackers {
		r, n := t.Stats()
		s.records += r
		s.triples += n
		union.AddAll(t.Graph().Triples())
	}

	store, err := core.NewStore(backend.Dir{}, dir, core.FormatBinary)
	if err != nil {
		return s, err
	}
	rep, err := store.Verify()
	if err != nil {
		return s, fmt.Errorf("verify: %w", err)
	}
	if !rep.Clean() {
		return s, fmt.Errorf("verify: store not clean: %v", rep.Defects)
	}
	merged, err := store.MergeParallel(2)
	if err != nil {
		return s, fmt.Errorf("merge: %w", err)
	}
	if merged.Len() != union.Len() {
		return s, fmt.Errorf("merged store holds %d triples, rank trackers %d", merged.Len(), union.Len())
	}
	if s.storeBytes, err = store.TotalBytes(); err != nil {
		return s, err
	}
	return s, nil
}

// modeledOverheadPct is the simclock figure the paper plots in Fig. 6(b):
// dassa.Run's virtual completion time with attribute lineage over the
// untracked baseline, for the same workflow.
func modeledOverheadPct(sh shape) (float64, error) {
	run := func(l dassa.Lineage) (time.Duration, error) {
		cfg := sh.dassaConfig()
		cfg.Ranks, cfg.Lineage = ingestRanks, l
		fs := vfs.NewStore()
		if err := dassa.GenerateInputs(fs.NewView(), cfg); err != nil {
			return 0, err
		}
		res, err := dassa.Run(fs, cfg)
		return res.Completion, err
	}
	base, err := run(dassa.LineageBaseline)
	if err != nil {
		return 0, err
	}
	tracked, err := run(dassa.AttrLineage)
	if err != nil {
		return 0, err
	}
	return 100 * float64(tracked-base) / float64(base), nil
}

func runIngest(b *bench) error {
	sh := ingestShape(b.seed)
	var fs *vfs.Store
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if fs, err = newInputs(sh); err != nil {
			return err
		}
		// Warm-up iteration: heap growth and first-use costs land here.
		if _, err := ingestOnce(fs, sh, b.work, -1-i, nil, nil, -1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		b.setups = append(b.setups, setupTimes{build: time.Since(start)})
	}

	var samples, plain []ingestSample
	var tracedTracked, plainTracked []float64
	io := &ioCounts{}
	var peaks []float64
	gc0 := readGC()
	deadline := time.Now().Add(b.seconds)
	for iter := 0; time.Now().Before(deadline); iter++ {
		b.attempted++
		var tr *tracer
		req := int32(-1)
		if b.trace && iter%2 == 0 {
			tr, req = b.tr, int32(2*iter)
		}
		// Each iteration starts from a collected heap, and its peak is one
		// sample: the median does not grow with the number of iterations.
		heap := startHeapSampler(0)
		s, err := ingestOnce(fs, sh, b.work, iter, tr, io, req)
		peaks = append(peaks, heap.stopMB())
		if err != nil {
			b.fail("ingest iteration %d: %v", iter, err)
			continue
		}
		samples = append(samples, s)
		if tr != nil {
			tracedTracked = append(tracedTracked, ms(time.Duration(s.trackedNS)))
		} else {
			plain = append(plain, s)
			plainTracked = append(plainTracked, ms(time.Duration(s.trackedNS)))
		}
	}
	b.peakHeapMB = median(peaks)
	b.gcDelta(gc0)
	if len(samples) == 0 {
		return fmt.Errorf("no ingest iteration completed")
	}

	var lat, bpr []float64
	var trackedNS int64
	for _, s := range samples {
		lat = append(lat, ms(time.Duration(s.trackedNS)))
		bpr = append(bpr, float64(s.storeBytes)/float64(s.records))
		trackedNS += s.trackedNS
	}
	b.requests(lat, time.Duration(trackedNS))
	b.set("bytes_per_record", median(bpr))
	// The write path's own rates, from iterations run without tracing.
	var rate, over []float64
	for _, s := range plain {
		rate = append(rate, float64(s.records)/(float64(s.trackedNS)/1e9))
		over = append(over, float64(s.trackedNS-s.untrackedNS)/1e3/float64(s.calls))
	}
	b.set("ingest.records_per_s", median(rate))
	b.set("ingest.overhead_us_per_io", median(over))
	b.env["ingest_files"] = sh.Files
	b.env["ingest_samples_per_channel"] = sh.Samples
	b.env["records_per_run"] = samples[0].records

	if b.trace {
		n := len(tracedTracked)
		b.writeLayers(io, n, samples[0].records, samples[0].triples)
		b.set("trace.overhead_ms", mean(tracedTracked)-mean(plainTracked))
		pct, err := modeledOverheadPct(sh)
		if err != nil {
			return err
		}
		b.set("simclock.modeled_overhead_pct", pct)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
