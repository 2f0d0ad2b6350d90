package main

import "time"

// Per-layer figures folded from the traced run's spans and counters.

// statOf returns the (kind, name) aggregate, or an empty one.
func statOf(f map[string]map[string]*layerStat, kind, name string) *layerStat {
	if st := f[kind][name]; st != nil {
		return st
	}
	return &layerStat{}
}

func perCall(ns int64, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / float64(unit)
}

func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func medianMS(st *layerStat) float64 {
	xs := make([]float64, len(st.durs))
	for i, d := range st.durs {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// writeLayers reports the write path — VOL, POSIX, tracker Close, backend
// writes — over n traced tracked runs (and their untracked twins), each of
// which made records records of triples triples.
func (b *bench) writeLayers(io *ioCounts, n int, records, triples int64) {
	f := b.tr.fold()
	outer := statOf(f, "tracked", "vol")
	native := statOf(f, "tracked", "vol.native")
	b.set("vol.calls", per(float64(outer.count), n))
	b.set("vol.prov_self_us_per_call", perCall(outer.selfNS, outer.count, time.Microsecond))
	b.set("vol.native_us_per_call", perCall(native.totalNS, native.count, time.Microsecond))

	pt := statOf(f, "tracked", "posixio")
	pu := statOf(f, "untracked", "posixio")
	b.set("posixio.calls", per(float64(pt.count), n))
	b.set("posixio.tracked_us_per_call", perCall(pt.totalNS, pt.count, time.Microsecond))
	b.set("posixio.untracked_us_per_call", perCall(pu.totalNS, pu.count, time.Microsecond))

	b.set("core.tracker.records", float64(records))
	b.set("core.tracker.triples", float64(triples))
	// The call that makes a run durable: Close, or Drain for a drained run.
	closes := statOf(f, "tracked", "core.tracker.close")
	if drains := statOf(f, "tracked", "core.tracker.drain"); drains.count > 0 {
		closes = drains
	}
	ranks := statOf(f, "tracked", "rank")
	b.set("core.tracker.close_ms", medianMS(closes))
	if ranks.totalNS > 0 {
		b.set("core.tracker.close_share", float64(closes.totalNS)/float64(ranks.totalNS))
	}

	w := statOf(f, "tracked", "backend.write")
	b.set("backend.write_calls", per(float64(io.writeCalls.Load()), n))
	b.set("backend.write_bytes", per(float64(io.writeBytes.Load()), n))
	b.set("backend.write_ms", per(float64(w.totalNS)/1e6, n))
	b.set("backend.list_calls", per(float64(io.listCalls.Load()), n))
}
