package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every layer call the benchmark
// makes: name, start, end, parent span and request id. Spans stay in memory
// and are folded into per-layer figures when the run ends. Nothing inside
// the program is instrumented; layers below a public call are timed by
// decorators the benchmark stacks into the program's extension points (a
// VOL connector, a store backend).

// span is one timed layer call. Times are nanoseconds since the tracer's
// epoch; parent indexes the same lane's spans, -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

// tracer owns the lanes of one traced run. A nil *tracer disables tracing:
// every method on it and on the nil lanes it hands out is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
	kinds map[int32]string // request id -> request kind
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kinds: map[int32]string{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// request registers a request id under a kind ("tracked", "query", ...).
func (t *tracer) request(id int32, kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.kinds[id] = kind
	t.mu.Unlock()
}

// lane is the span log of one caller goroutine (a rank, the query client).
// Spans begun on the lane nest through its stack. Decorators called from
// other goroutines on the caller's behalf (the tracker's async writer, the
// query workers) record finished spans with record; they hang under the
// span set by waitOn, which marks a call that blocks until that background
// work is done (Close, a lazy query), and are roots otherwise.
type lane struct {
	t       *tracer
	mu      sync.Mutex
	spans   []span
	stack   []int32
	req     int32
	waiting atomic.Int32
}

func (t *tracer) newLane(req int32) *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t, req: req}
	l.waiting.Store(-1)
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// setReq switches the lane to a new request id.
func (l *lane) setReq(req int32) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.req = req
	l.mu.Unlock()
}

func (l *lane) begin(name string) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, start: l.t.now(), end: -1, parent: parent, req: l.req})
	l.stack = append(l.stack, i)
	l.mu.Unlock()
	return i
}

func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[i].end = l.t.now()
	if n := len(l.stack); n > 0 && l.stack[n-1] == i {
		l.stack = l.stack[:n-1]
	}
	if l.waiting.Load() == i {
		l.waiting.Store(-1)
	}
	l.mu.Unlock()
}

// waitOn marks span i as waiting for background work until it ends.
func (l *lane) waitOn(i int32) {
	if l == nil {
		return
	}
	l.waiting.Store(i)
}

// record logs a finished span made on another goroutine for this lane.
func (l *lane) record(name string, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: l.waiting.Load(), req: l.req})
	l.mu.Unlock()
}

// layerStat aggregates the spans of one (request kind, span name) pair.
type layerStat struct {
	count   int
	totalNS int64
	selfNS  int64
	durs    []int64
}

// selfTime returns each span's duration minus the part of its interval its
// child spans cover (children clipped to the parent, overlaps merged), so
// it is never negative.
func selfTime(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		if len(children[i]) > 0 {
			iv := make([][2]int64, 0, len(children[i]))
			for _, c := range children[i] {
				lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
				if hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			var covered, curLo, curHi int64 = 0, -1, -1
			for _, x := range iv {
				if x[0] > curHi {
					if curHi > curLo {
						covered += curHi - curLo
					}
					curLo, curHi = x[0], x[1]
				} else if x[1] > curHi {
					curHi = x[1]
				}
			}
			if curHi > curLo {
				covered += curHi - curLo
			}
			d -= covered
		}
		self[i] = d
	}
	return self
}

// fold aggregates every finished span by request kind and name.
func (t *tracer) fold() map[string]map[string]*layerStat {
	out := map[string]map[string]*layerStat{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		l.mu.Lock()
		self := selfTime(l.spans)
		for i, s := range l.spans {
			if s.end < 0 {
				continue
			}
			kind := t.kinds[s.req]
			byName := out[kind]
			if byName == nil {
				byName = map[string]*layerStat{}
				out[kind] = byName
			}
			st := byName[s.name]
			if st == nil {
				st = &layerStat{}
				byName[s.name] = st
			}
			st.count++
			st.totalNS += s.end - s.start
			st.selfNS += self[i]
			st.durs = append(st.durs, s.end-s.start)
		}
		l.mu.Unlock()
	}
	return out
}
