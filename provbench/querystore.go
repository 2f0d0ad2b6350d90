package main

import (
	"fmt"
	"os"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
)

// storePlan is the layout of the query store: a first wave of periodic
// processes drained to sealed delta segments and packed into L1, then a
// final batch of processes closed to canonical files left loose at L0.
type storePlan struct {
	shape      shape
	wave1      int // processes in the packed wave
	wave2      int // processes in the loose final batch
	wave1Files int // files the first wave processes; the rest go to wave 2
	flushEvery int
}

// queryConfig is the tracking configuration of the query store: the DASSA
// attribute-lineage classes plus files and datasets (so the containment
// chain attribute -> dataset -> file carries prov:wasDerivedFrom), with
// per-call durations recorded, flushed periodically.
func queryConfig(flushEvery int) *core.Config {
	cfg := dassa.AttrLineage.ProvConfig().Enable("File", "Dataset")
	cfg.Duration = true
	cfg.Format = core.FormatBinary
	cfg.Mode = core.ModePeriodic
	cfg.FlushEvery = flushEvery
	// Inline delta segments: drained processes keep no writer goroutine.
	cfg.Pipeline = core.PipelineDelta
	return cfg
}

// collectPairs is how many times a build runs the first wave's I/O stream
// tracked and untracked; the store keeps the last tracked run. One wave is
// tens of milliseconds, too short to time alone on a shared machine.
const collectPairs = 3

// buildTimes are the figures of one query-store build.
type buildTimes struct {
	pack             time.Duration
	records, triples int64 // both waves, as stored
	// Per collection pair: tracked and untracked wall time of the first
	// wave, the intercepted calls and the records it made.
	trackedNS, untrackedNS []int64
	calls                  int64
	wave1Records           int64
	wave1Triples           int64
}

// buildQueryStore runs the plan into a fresh store at dir. A traced build
// logs its tracked runs under request id req and untracked ones under
// req+1.
func buildQueryStore(fs *vfs.Store, b core.StoreBackend, dir string, p storePlan, tr *tracer, io *ioCounts, req int32) (buildTimes, error) {
	var bt buildTimes
	var first, second []int
	for i := 0; i < p.shape.Files; i++ {
		if i < p.wave1Files {
			first = append(first, i)
		} else {
			second = append(second, i)
		}
	}
	spec := runSpec{shape: p.shape, files: first, ranks: p.wave1, prov: queryConfig(p.flushEvery),
		backend: b, modeled: true, drain: true, tr: tr, io: io, req: req}
	untracked := spec
	untracked.prov, untracked.req = nil, req+1

	var out runOut
	for pair := 0; pair < collectPairs; pair++ {
		spec.dir = fmt.Sprintf("%s.pair%d", dir, pair)
		if pair == collectPairs-1 {
			spec.dir = dir
		}
		var trackedNS, untrackedNS int64
		runUntracked := func() error {
			start := time.Now()
			_, err := runWorkflow(fs, untracked)
			untrackedNS = int64(time.Since(start))
			cleanOutputs(fs, first, ints(0, p.wave1))
			return err
		}
		runTracked := func() error {
			start := time.Now()
			var err error
			out, err = runWorkflow(fs, spec)
			trackedNS = int64(time.Since(start))
			cleanOutputs(fs, first, ints(0, p.wave1))
			return err
		}
		a, c := runTracked, runUntracked
		if pair%2 == 1 {
			a, c = runUntracked, runTracked
		}
		if err := a(); err != nil {
			return bt, fmt.Errorf("wave 1: %w", err)
		}
		if err := c(); err != nil {
			return bt, fmt.Errorf("wave 1: %w", err)
		}
		bt.trackedNS = append(bt.trackedNS, trackedNS)
		bt.untrackedNS = append(bt.untrackedNS, untrackedNS)
		if spec.dir != dir {
			if err := os.RemoveAll(spec.dir); err != nil {
				return bt, err
			}
		}
	}
	bt.calls = out.volCalls + out.posixCalls
	bt.addStats(out.trackers)
	bt.wave1Records, bt.wave1Triples = bt.records, bt.triples

	start := time.Now()
	store, err := core.NewStore(b, dir, core.FormatBinary)
	if err != nil {
		return bt, err
	}
	if _, err := store.PackSegments(1); err != nil {
		return bt, fmt.Errorf("pack: %w", err)
	}
	bt.pack = time.Since(start)

	// The final batch is not traced: a traced build's figures describe one
	// first-wave run.
	spec.files, spec.ranks, spec.pidBase, spec.drain, spec.tr = second, p.wave2, p.wave1, false, nil
	if out, err = runWorkflow(fs, spec); err != nil {
		return bt, fmt.Errorf("wave 2: %w", err)
	}
	bt.addStats(out.trackers)
	cleanOutputs(fs, second, ints(p.wave1, p.wave2))
	return bt, nil
}

// ints returns base, base+1, ..., base+n-1.
func ints(base, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i
	}
	return out
}

func (bt *buildTimes) addStats(trs []*core.Tracker) {
	for _, t := range trs {
		r, n := t.Stats()
		bt.records += r
		bt.triples += n
	}
}
