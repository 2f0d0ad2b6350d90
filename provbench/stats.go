package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (mean of the two middle ones); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile, at most 99, that has
// at least ten samples beyond it, and the nearest-rank value there.
func tailPercentile(xs []float64) (pct int, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct = int(math.Floor(100 * (1 - 10/float64(n))))
	pct = min(pct, 99)
	if pct < 50 {
		pct = 50
	}
	idx := int(math.Ceil(float64(pct)/100*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return pct, s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak live heap (runtime/metrics
// /gc/heap/live:bytes, the heap marked live by the latest GC) while it runs.
// A continuous sampler reads it every 5 ms, catching every GC the workload
// triggers. Otherwise the caller calls quiesce between requests, which
// collects and reads it at most once per interval: the heap the workload
// retains between requests, free of what in-flight requests happen to hold
// when a GC strikes.
type heapSampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	mu       sync.Mutex
	peak     uint64
	lastGC   time.Time
	interval time.Duration
	periodic bool
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// collect runs two GC cycles: the second frees what the first only
// released to sync.Pool victim caches, which would otherwise show as
// sporadic live-heap spikes.
func collect() {
	runtime.GC()
	runtime.GC()
}

// startHeapSampler collects garbage left by set-up and starts sampling:
// continuously when interval is 0, else at quiesce calls.
func startHeapSampler(interval time.Duration) *heapSampler {
	collect()
	h := &heapSampler{stop: make(chan struct{}), peak: liveHeap(), lastGC: time.Now(),
		interval: interval, periodic: interval > 0}
	if h.periodic {
		return h
	}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

// quiesce collects and samples if an interval has passed since the last
// time.
func (h *heapSampler) quiesce() {
	if !h.periodic || time.Since(h.lastGC) < h.interval {
		return
	}
	collect()
	h.observe()
	h.lastGC = time.Now()
}

func (h *heapSampler) observe() {
	v := liveHeap()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// stopMB stops sampling and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	if h.periodic {
		collect()
	}
	h.observe()
	return float64(h.peak) / (1 << 20)
}

// gcCounters snapshots the Go runtime's allocation and GC CPU totals.
type gcCounters struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c gcCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = s[2].Value.Float64()
	}
	return c
}
