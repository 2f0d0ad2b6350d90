package main

import (
	"sync/atomic"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/hdf5"
	"github.com/hpc-io/prov-io/internal/vol"
)

// timedVOL is a timing VOL connector: it embeds vol.Passthrough and wraps
// every call in a span named after its position in the stack. Placed under
// the ProvConnector it times the native layer; a second one above it times
// the whole call, so the ProvConnector's self time is outer minus inner.
type timedVOL struct {
	vol.Passthrough
	lane *lane
	name string
}

func newTimedVOL(next vol.Connector, l *lane, name string) *timedVOL {
	return &timedVOL{Passthrough: vol.Passthrough{Next: next}, lane: l, name: name}
}

var _ vol.Connector = (*timedVOL)(nil)

func (t *timedVOL) FileCreate(path string) (*hdf5.File, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.FileCreate(path)
}

func (t *timedVOL) FileOpen(path string, readonly bool) (*hdf5.File, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.FileOpen(path, readonly)
}

func (t *timedVOL) FileFlush(f *hdf5.File) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.FileFlush(f)
}

func (t *timedVOL) FileClose(f *hdf5.File) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.FileClose(f)
}

func (t *timedVOL) GroupCreate(parent *hdf5.Group, name string) (*hdf5.Group, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.GroupCreate(parent, name)
}

func (t *timedVOL) GroupOpen(parent *hdf5.Group, path string) (*hdf5.Group, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.GroupOpen(parent, path)
}

func (t *timedVOL) DatasetCreate(parent *hdf5.Group, name string, dt hdf5.Datatype, dims []int) (*hdf5.Dataset, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetCreate(parent, name, dt, dims)
}

func (t *timedVOL) DatasetOpen(parent *hdf5.Group, path string) (*hdf5.Dataset, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetOpen(parent, path)
}

func (t *timedVOL) DatasetWrite(ds *hdf5.Dataset, data []byte) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetWrite(ds, data)
}

func (t *timedVOL) DatasetWriteRows(ds *hdf5.Dataset, start, count int, data []byte) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetWriteRows(ds, start, count, data)
}

func (t *timedVOL) DatasetAppend(ds *hdf5.Dataset, rows int, data []byte) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetAppend(ds, rows, data)
}

func (t *timedVOL) DatasetRead(ds *hdf5.Dataset) ([]byte, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetRead(ds)
}

func (t *timedVOL) DatasetReadRows(ds *hdf5.Dataset, start, count int) ([]byte, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatasetReadRows(ds, start, count)
}

func (t *timedVOL) AttrCreate(host hdf5.Object, name string, dt hdf5.Datatype, dims []int, value []byte) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.AttrCreate(host, name, dt, dims, value)
}

func (t *timedVOL) AttrRead(host hdf5.Object, name string) ([]byte, hdf5.AttrInfo, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.AttrRead(host, name)
}

func (t *timedVOL) DatatypeCommit(parent *hdf5.Group, name string, dt hdf5.Datatype) (*hdf5.NamedDatatype, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatatypeCommit(parent, name, dt)
}

func (t *timedVOL) DatatypeOpen(parent *hdf5.Group, path string) (*hdf5.NamedDatatype, error) {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.DatatypeOpen(parent, path)
}

func (t *timedVOL) LinkCreateSoft(parent *hdf5.Group, name, target string) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.LinkCreateSoft(parent, name, target)
}

func (t *timedVOL) LinkCreateHard(parent *hdf5.Group, name, target string) error {
	defer t.lane.end(t.lane.begin(t.name))
	return t.Next.LinkCreateHard(parent, name, target)
}

// ioCounts are the store-backend counters of a traced run.
type ioCounts struct {
	writeCalls, writeBytes atomic.Int64
	readCalls, rangeCalls  atomic.Int64
	readBytes, listCalls   atomic.Int64
}

// timedBackend is a timing core.StoreBackend decorator. While a lane is set,
// calls are logged as finished spans on it (they may run on the tracker's
// async writer or on query workers) and counted; without one it only
// forwards. Inner exposes the wrapped backend to core's decorator
// unwrapping.
type timedBackend struct {
	inner core.StoreBackend
	lane  atomic.Pointer[lane]
	n     *ioCounts
}

// rangeTimedBackend adds the optional ReadFileRange. core finds it by type
// assertion on the outermost backend, so a decorator that dropped it would
// turn every lazy pack-member read into a whole-pack read.
type rangeTimedBackend struct {
	timedBackend
	rr interface {
		ReadFileRange(path string, off, n int64) ([]byte, error)
	}
}

// newTimedBackend wraps b, keeping ReadFileRange exactly when b has it.
func newTimedBackend(b core.StoreBackend, l *lane, n *ioCounts) timedStore {
	var t timedStore = &timedBackend{inner: b, n: n}
	if rr, ok := b.(interface {
		ReadFileRange(path string, off, n int64) ([]byte, error)
	}); ok {
		t = &rangeTimedBackend{timedBackend: timedBackend{inner: b, n: n}, rr: rr}
	}
	t.setLane(l)
	return t
}

// timedStore is a timing backend whose lane can be switched between
// requests (nil stops timing).
type timedStore interface {
	core.StoreBackend
	setLane(l *lane)
}

func (t *timedBackend) setLane(l *lane) { t.lane.Store(l) }

// timed runs fn, logging a span when a lane is set; it reports whether it
// did, so counters cover exactly the timed calls.
func (t *timedBackend) timed(name string, fn func() error) (bool, error) {
	l := t.lane.Load()
	if l == nil {
		return false, fn()
	}
	start := l.t.now()
	err := fn()
	l.record(name, start, l.t.now())
	return true, err
}

func (t *timedBackend) MkdirAll(dir string) error { return t.inner.MkdirAll(dir) }

func (t *timedBackend) WriteFile(path string, data []byte) error {
	on, err := t.timed("backend.write", func() error { return t.inner.WriteFile(path, data) })
	if on {
		t.n.writeCalls.Add(1)
		t.n.writeBytes.Add(int64(len(data)))
	}
	return err
}

func (t *timedBackend) ReadFile(path string) (data []byte, err error) {
	on, err := t.timed("backend.read", func() error {
		data, err = t.inner.ReadFile(path)
		return err
	})
	if on {
		t.n.readCalls.Add(1)
		t.n.readBytes.Add(int64(len(data)))
	}
	return data, err
}

func (t *timedBackend) List(dir string) (names []string, err error) {
	on, err := t.timed("backend.list", func() error {
		names, err = t.inner.List(dir)
		return err
	})
	if on {
		t.n.listCalls.Add(1)
	}
	return names, err
}

func (t *timedBackend) Remove(path string) error { return t.inner.Remove(path) }

func (t *timedBackend) Stat(path string) (int64, error) { return t.inner.Stat(path) }

func (t *timedBackend) Caps() uint32 { return t.inner.Caps() }

func (t *timedBackend) Inner() any { return t.inner }

func (t *rangeTimedBackend) ReadFileRange(path string, off, n int64) (data []byte, err error) {
	on, err := t.timed("backend.read", func() error {
		data, err = t.rr.ReadFileRange(path, off, n)
		return err
	})
	if on {
		t.n.rangeCalls.Add(1)
		t.n.readBytes.Add(int64(len(data)))
	}
	return data, err
}
