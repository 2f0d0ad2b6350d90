package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/hdf5"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/vol"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
)

// shape is the size of a DASSA-shaped workflow: how many TDMS inputs exist
// and how each is laid out. The benchmark derives it from the seed.
type shape struct {
	Files    int
	Channels int
	Attrs    int
	Samples  int
	User     string
}

func (s shape) dassaConfig() dassa.Config {
	return dassa.Config{Files: s.Files, ChannelsPerFile: s.Channels,
		AttrsPerChannel: s.Attrs, SampleSamplesPerChannel: s.Samples, User: s.User}
}

// byteScale charges each sampled byte as dassa.Run does: one input file
// stands for 660 MB, the paper's 1.35 TB over 2048 files.
func (s shape) byteScale() float64 {
	return float64(660<<20) / float64(s.Channels*s.Samples*4)
}

// newInputs stages the raw TDMS inputs in a fresh in-memory namespace with
// the workload package's own generator.
func newInputs(s shape) (*vfs.Store, error) {
	fs := vfs.NewStore()
	if err := dassa.GenerateInputs(fs.NewView(), s.dassaConfig()); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	return fs, nil
}

// The input paths are dassa.GenerateInputs' layout; outputs live beside them.
func rawPath(i int) string       { return fmt.Sprintf("/das/raw/WestSac_%04d.tdms", i) }
func convertedPath(i int) string { return fmt.Sprintf("/das/converted/WestSac_%04d.h5", i) }
func productPath(i int) string   { return fmt.Sprintf("/das/products/WestSac_%04d.decimate.h5", i) }
func xcorrPath(pid int) string   { return fmt.Sprintf("/das/products/xcorr_stack_p%06d.h5", pid) }

// runSpec is one run of the workflow: which files, on how many ranks, and
// whether (and how) provenance is tracked.
type runSpec struct {
	shape shape
	files []int // file indices, dealt round-robin to the ranks
	ranks int
	// prov is the tracking configuration; nil runs the same I/O untracked
	// (POSIX wrapper disabled, no ProvConnector).
	prov *core.Config
	// backend and dir locate the provenance store. Each rank opens its own
	// Store over the shared directory, as separate MPI processes would.
	backend core.StoreBackend
	dir     string
	pidBase int
	// modeled charges every VOL call to a per-rank virtual clock (the cost
	// connector dassa.Run uses), so duration tracking records non-trivial
	// elapsed times.
	modeled bool
	// drain ends each rank with Tracker.Drain instead of Close, leaving the
	// periodic delta segments sealed on disk.
	drain bool
	// tr, when set, records spans around every layer call, and io counts
	// the store backend's calls.
	tr  *tracer
	io  *ioCounts
	req int32
}

// runOut reports one run.
type runOut struct {
	trackers   []*core.Tracker
	volCalls   int64 // calls into the top VOL connector
	posixCalls int64 // calls into the POSIX wrapper
}

// runWorkflow executes the DASSA call sequence of internal/workloads/dassa —
// tdms2h5 conversion (POSIX read of the TDMS input, HDF5 write with
// per-channel attributes), decimation (attributes read back, every k-th
// sample kept), and one X-correlation stack per rank — on spec.ranks
// concurrent ranks. Outputs it creates are removed by cleanOutputs.
func runWorkflow(fs *vfs.Store, spec runSpec) (runOut, error) {
	out := runOut{trackers: make([]*core.Tracker, spec.ranks)}
	errs := make([]error, spec.ranks)
	calls := make([][2]int64, spec.ranks)
	var wg sync.WaitGroup
	for r := 0; r < spec.ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var mine []int
			for k, f := range spec.files {
				if k%spec.ranks == r {
					mine = append(mine, f)
				}
			}
			rk := &rank{spec: spec, view: fs.NewView(), pid: spec.pidBase + r}
			errs[r] = rk.run(mine)
			out.trackers[r] = rk.tracker
			calls[r] = [2]int64{rk.volCalls, rk.posixCalls}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d: %w", r, err)
		}
		out.volCalls += calls[r][0]
		out.posixCalls += calls[r][1]
	}
	return out, nil
}

// cleanOutputs removes the converted files and products of a run so the
// next iteration starts from the same namespace.
func cleanOutputs(fs *vfs.Store, files []int, pids []int) {
	v := fs.NewView()
	for _, i := range files {
		_ = v.Remove(convertedPath(i)) // absent after a failed run; nothing to do
		_ = v.Remove(productPath(i))
	}
	for _, pid := range pids {
		_ = v.Remove(xcorrPath(pid))
	}
}

type rank struct {
	spec    runSpec
	view    *vfs.View
	pid     int
	tracker *core.Tracker
	lane    *lane

	volCalls, posixCalls int64
}

func (rk *rank) run(files []int) error {
	spec := rk.spec
	rk.lane = spec.tr.newLane(spec.req)
	defer rk.lane.end(rk.lane.begin("rank"))
	var clock *simclock.Clock
	cost := simclock.Default()
	if spec.modeled {
		clock = simclock.NewClock()
	}
	tracked := spec.prov != nil
	if tracked {
		b := spec.backend
		if spec.tr != nil {
			b = newTimedBackend(b, rk.lane, spec.io)
		}
		store, err := core.NewStore(b, spec.dir, core.FormatBinary)
		if err != nil {
			return err
		}
		rk.tracker = core.NewTracker(spec.prov, store, rk.pid)
	} else {
		rk.tracker = core.NewTracker(core.DefaultConfig().DisableAll(), nil, rk.pid)
	}
	user := rk.tracker.RegisterUser(spec.shape.User)
	convProg := rk.tracker.RegisterProgram("tdms2h5-a1", user)
	decProg := rk.tracker.RegisterProgram("decimate-a1", user)
	xcorrProg := rk.tracker.RegisterProgram("xcorr_stack-a1", user)

	popts := posixio.DefaultOptions()
	popts.Disabled = !tracked
	pfs := posixio.Wrap(rk.view, rk.tracker, posixio.Agent{User: user, Program: convProg}, popts)

	// Connector stack, top to bottom: [timed "vol"] → ProvConnector →
	// [timed "vol.native"] → [CostConnector] → Native. The two timing
	// shims exist only in traced runs; the ProvConnector only when tracked.
	stack := func(prog vol.Context) vol.Connector {
		var c vol.Connector = vol.NewNative(rk.view)
		if spec.modeled {
			c = vol.NewCostConnector(c, clock, cost, spec.shape.byteScale(), 1)
		}
		if spec.tr != nil && tracked {
			c = newTimedVOL(c, rk.lane, "vol.native")
		}
		if tracked {
			c = vol.NewProvConnector(c, rk.tracker, prog, clock)
		}
		if spec.tr != nil {
			c = newTimedVOL(c, rk.lane, "vol")
		}
		return c
	}
	conv := stack(vol.Context{User: user, Program: convProg})
	dec := stack(vol.Context{User: user, Program: decProg})
	xc := stack(vol.Context{User: user, Program: xcorrProg})

	var products []string
	for _, i := range files {
		if err := rk.convert(pfs, conv, i); err != nil {
			return fmt.Errorf("tdms2h5 file %d: %w", i, err)
		}
		if err := rk.decimate(dec, i); err != nil {
			return fmt.Errorf("decimate file %d: %w", i, err)
		}
		products = append(products, productPath(i))
	}
	if len(products) > 0 {
		if err := rk.xcorr(xc, products, xcorrPath(rk.pid)); err != nil {
			return fmt.Errorf("xcorr: %w", err)
		}
	}
	if !tracked {
		return nil
	}
	if spec.drain {
		s := rk.lane.begin("core.tracker.drain")
		rk.lane.waitOn(s)
		err := rk.tracker.Drain()
		rk.lane.end(s)
		return err
	}
	s := rk.lane.begin("core.tracker.close")
	rk.lane.waitOn(s)
	err := rk.tracker.Close()
	rk.lane.end(s)
	return err
}

// readTDMS reads one input through the POSIX wrapper (the TDMS decode is
// the same work tracked and untracked).
func (rk *rank) readTDMS(pfs *posixio.FS, path string) (*dassa.TDMS, error) {
	rk.posixCalls++
	s := rk.lane.begin("posixio")
	t, err := dassa.ReadTDMS(pfs, path)
	rk.lane.end(s)
	return t, err
}

func (rk *rank) convert(pfs *posixio.FS, conn vol.Connector, idx int) error {
	t, err := rk.readTDMS(pfs, rawPath(idx))
	if err != nil {
		return err
	}
	rk.volCalls++
	f, err := conn.FileCreate(convertedPath(idx))
	if err != nil {
		return err
	}
	for _, ch := range t.Channels {
		rk.volCalls += 2
		ds, err := conn.DatasetCreate(f.Root(), ch.Name, hdf5.TypeFloat32, []int{len(ch.Samples)})
		if err != nil {
			return err
		}
		if err := conn.DatasetWrite(ds, f32bytes(ch.Samples)); err != nil {
			return err
		}
		for a := 0; a < rk.spec.shape.Attrs; a++ {
			k := attrName(a)
			v := []byte(ch.Properties[k])
			rk.volCalls++
			if err := conn.AttrCreate(ds, k, hdf5.TypeString(len(v)), []int{1}, v); err != nil {
				return err
			}
		}
	}
	rk.volCalls += 2
	if err := conn.FileFlush(f); err != nil {
		return err
	}
	return conn.FileClose(f)
}

func (rk *rank) decimate(conn vol.Connector, idx int) error {
	const factor = 8
	rk.volCalls += 2
	in, err := conn.FileOpen(convertedPath(idx), true)
	if err != nil {
		return err
	}
	out, err := conn.FileCreate(productPath(idx))
	if err != nil {
		return err
	}
	for c := 0; c < rk.spec.shape.Channels; c++ {
		name := fmt.Sprintf("channel_%02d", c)
		rk.volCalls++
		ds, err := conn.DatasetOpen(in.Root(), name)
		if err != nil {
			return err
		}
		// DASSA reads the channel's metadata attributes before the data.
		for a := 0; a < rk.spec.shape.Attrs; a++ {
			rk.volCalls++
			if _, _, err := conn.AttrRead(ds, attrName(a)); err != nil {
				return err
			}
		}
		rk.volCalls++
		raw, err := conn.DatasetRead(ds)
		if err != nil {
			return err
		}
		samples := bytesF32(raw)
		kept := make([]float32, 0, len(samples)/factor+1)
		for i := 0; i < len(samples); i += factor {
			kept = append(kept, samples[i])
		}
		rk.volCalls += 2
		ods, err := conn.DatasetCreate(out.Root(), name, hdf5.TypeFloat32, []int{len(kept)})
		if err != nil {
			return err
		}
		if err := conn.DatasetWrite(ods, f32bytes(kept)); err != nil {
			return err
		}
		// Products carry the channel metadata forward.
		for a := 0; a < rk.spec.shape.Attrs; a++ {
			k := attrName(a)
			rk.volCalls += 2
			val, _, err := conn.AttrRead(ds, k)
			if err != nil {
				return err
			}
			if err := conn.AttrCreate(ods, k, hdf5.TypeString(len(val)), []int{1}, val); err != nil {
				return err
			}
		}
	}
	rk.volCalls += 3
	if err := conn.FileFlush(out); err != nil {
		return err
	}
	if err := conn.FileClose(out); err != nil {
		return err
	}
	return conn.FileClose(in)
}

func (rk *rank) xcorr(conn vol.Connector, inputs []string, outPath string) error {
	var acc []float32
	for _, p := range inputs {
		rk.volCalls += 4
		f, err := conn.FileOpen(p, true)
		if err != nil {
			return err
		}
		ds, err := conn.DatasetOpen(f.Root(), "channel_00")
		if err != nil {
			return err
		}
		raw, err := conn.DatasetRead(ds)
		if err != nil {
			return err
		}
		samples := bytesF32(raw)
		if acc == nil {
			acc = make([]float32, len(samples))
		}
		for i := range samples {
			if i < len(acc) {
				acc[i] += samples[i]
			}
		}
		if err := conn.FileClose(f); err != nil {
			return err
		}
	}
	rk.volCalls += 5
	out, err := conn.FileCreate(outPath)
	if err != nil {
		return err
	}
	ds, err := conn.DatasetCreate(out.Root(), "stack", hdf5.TypeFloat32, []int{len(acc)})
	if err != nil {
		return err
	}
	if err := conn.DatasetWrite(ds, f32bytes(acc)); err != nil {
		return err
	}
	if err := conn.FileFlush(out); err != nil {
		return err
	}
	return conn.FileClose(out)
}

func attrName(a int) string { return fmt.Sprintf("prop_%02d", a) }

func f32bytes(v []float32) []byte {
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(x))
	}
	return out
}

func bytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
