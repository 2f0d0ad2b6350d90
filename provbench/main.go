// Command provbench is the PROV-IO benchmark: it runs one seeded workload,
// checks every output, and prints the workload's metrics by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. README.md describes the
// workloads and what each metric is expected to move.
//
// Usage (from the repository root; provbench/run.sh builds and runs it):
//
//	provbench -workload ingest-dassa|query-merged|query-lazy -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"request_p50_ms", "ms"},
	{"request_p99_ms", "ms"},
	{"requests_per_s", "1/s"},
	{"bytes_per_record", "B"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// load reports 0.
var perLayer = []metricDef{
	{"ingest.records_per_s", "1/s"},
	{"ingest.overhead_us_per_io", "us"},
	{"vol.calls", "count"},
	{"vol.prov_self_us_per_call", "us"},
	{"vol.native_us_per_call", "us"},
	{"posixio.calls", "count"},
	{"posixio.tracked_us_per_call", "us"},
	{"posixio.untracked_us_per_call", "us"},
	{"core.tracker.records", "count"},
	{"core.tracker.triples", "count"},
	{"core.tracker.close_ms", "ms"},
	{"core.tracker.close_share", "ratio"},
	{"backend.write_calls", "count"},
	{"backend.write_bytes", "B"},
	{"backend.write_ms", "ms"},
	{"backend.list_calls", "count"},
	{"simclock.modeled_overhead_pct", "%"},
	{"setup.build_s", "s"},
	{"setup.pack_s", "s"},
	{"setup.merge_s", "s"},
	{"setup.index_warm_s", "s"},
	{"setup.open_lazy_ms", "ms"},
	{"sparql.parse_us", "us"},
	{"sparql.eval_ms", "ms"},
	{"sparql.render_ms", "ms"},
	{"sparql.rows_out", "count"},
	{"sparql.parallel_share", "ratio"},
	{"sparql.memo_hit_ratio", "ratio"},
	{"class.lineage_path.p50_ms", "ms"},
	{"class.lineage_khop.p50_ms", "ms"},
	{"class.who_modified.p50_ms", "ms"},
	{"class.op_counts.p50_ms", "ms"},
	{"class.top_durations.p50_ms", "ms"},
	{"class.bulk_export.p50_ms", "ms"},
	{"core.lineage_ms", "ms"},
	{"core.lineage_triples_out", "count"},
	{"core.admission_ms", "ms"},
	{"core.units_admitted", "count"},
	{"core.units_decoded", "count"},
	{"core.units_skipped_share", "ratio"},
	{"lazy.cache.hits", "count"},
	{"lazy.cache.misses", "count"},
	{"lazy.cache.evictions", "count"},
	{"lazy.cache.hit_ratio", "ratio"},
	{"lazy.cache.peak_bytes", "B"},
	{"lazy.cache.misses_per_decoded_unit", "ratio"},
	{"lazy.decode_remap_ms", "ms"},
	{"backend.read_calls", "count"},
	{"backend.range_read_calls", "count"},
	{"backend.read_bytes_per_query", "B"},
	{"backend.read_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ms", "ms"},
}

var workloads = map[string]func(*bench) error{
	"ingest-dassa": runIngest,
	"query-merged": func(b *bench) error { return runQuery(b, false) },
	"query-lazy":   func(b *bench) error { return runQuery(b, true) },
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// setupTimes is one set-up, by phase.
type setupTimes struct {
	build, pack, merge, warm, openLazy time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.build + s.pack + s.merge + s.warm + s.openLazy
}

// bench is one run's configuration and results.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory inside the checkout
	tr       *tracer

	attempted, failed int
	setups            []setupTimes
	peakHeapMB        float64
	values            map[string]float64
	env               map[string]any
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "provbench: check failed: "+format+"\n", args...)
}

// set records a metric value under its name.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// requests records the request latencies (ms) of the timed phase and the
// time they took.
func (b *bench) requests(lat []float64, busy time.Duration) {
	b.set("request_p50_ms", median(lat))
	pct, v := tailPercentile(lat)
	b.set("request_p99_ms", v)
	b.set("requests_per_s", float64(len(lat))/busy.Seconds())
	b.env["requests"] = len(lat)
	b.env["request_tail_percentile"] = pct
}

// gcDelta reports the Go runtime's allocation and GC share over the timed
// phase.
func (b *bench) gcDelta(c0 gcCounters) {
	c1 := readGC()
	b.set("runtime.alloc_mb", float64(c1.allocBytes-c0.allocBytes)/(1<<20)/float64(max(b.attempted, 1)))
	if cpu := c1.totalCPU - c0.totalCPU; cpu > 0 {
		b.set("runtime.gc_cpu_fraction", (c1.gcCPU-c0.gcCPU)/cpu)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "ingest-dassa | query-merged | query-lazy")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "provbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		return 2
	}
	err := os.MkdirAll(".bench_build", 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(".bench_build", "work-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "provbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: work, values: map[string]float64{}, env: environment()}
	if b.trace {
		b.tr = newTracer()
	}
	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "provbench: %s: %v\n", *workload, err)
		return 1
	}
	return b.report()
}

// report prints the environment, every metric, and the result line.
func (b *bench) report() int {
	if len(b.setups) > 0 {
		var tot, build, pack, merge, warm, open []float64
		for _, s := range b.setups {
			tot = append(tot, s.total().Seconds())
			build = append(build, s.build.Seconds())
			pack = append(pack, s.pack.Seconds())
			merge = append(merge, s.merge.Seconds())
			warm = append(warm, s.warm.Seconds())
			open = append(open, ms(s.openLazy))
		}
		b.set("setup_s", median(tot))
		b.set("setup.build_s", median(build))
		b.set("setup.pack_s", median(pack))
		b.set("setup.merge_s", median(merge))
		b.set("setup.index_warm_s", median(warm))
		b.set("setup.open_lazy_ms", median(open))
	}
	b.set("peak_heap_mb", b.peakHeapMB)
	b.env["workload"], b.env["seed"], b.env["seconds"], b.env["trace"] = b.workload, b.seed, b.seconds.Seconds(), b.trace

	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok && !b.trace {
			fmt.Fprintf(os.Stderr, "provbench: %s reported no %s\n", b.workload, d.name)
			return 1
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	envJSON, _ := json.Marshal(b.env) // plain maps of numbers and strings
	fmt.Printf("environment %s\n", envJSON)
	correct := b.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, b.attempted, b.failed, metrics})
	if err != nil { // a non-finite metric
		fmt.Fprintf(os.Stderr, "provbench: result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct || b.attempted == 0 {
		return 1
	}
	return 0
}

// environment records where a result was measured.
func environment() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"revision":   revision(),
	}
}
