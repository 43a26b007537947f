// Command perfbench is Raven's end-to-end benchmark. It serves a fresh
// engine behind the HTTP and Postgres-wire front ends on loopback
// listeners, drives one named workload against it from this same
// process, checks every response against a reference computed outside
// the query path, and prints one JSON result line.
//
//	perfbench --workload online_score|batch_score|ingest_analytics \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it runs the same workload, then replays a sample of its
// requests layer by layer with spans recorded around each call, writes
// the spans to .bench_build/perfbench/ and reports per-layer metrics.
// See README.md for the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are what a
// run reports, and BENCHMARK.json must declare exactly them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"qps", "req/s"},
	{"rows_per_s", "rows/s"},
	{"slo_frac", "share"},
	{"heap_peak_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.self_ms", "ms"}, {"server.insert_self_ms", "ms"},
		{"pgwire.self_ns_per_row", "ns"}, {"pgwire.self_ms", "ms"},
		{"sched.wait_ms_mean", "ms"}, {"sched.queued_frac", "share"}, {"sched.rejected", "count"},
		{"plancache.hit_frac", "share"}, {"rt.session_hit_frac", "share"},
		{"sql.parse_us", "us"}, {"plan.bind_us", "us"}, {"ir.build_us", "us"}, {"xopt.optimize_us", "us"},
		{"codegen.lower_us", "us"},
		{"exec.data_ms", "ms"}, {"exec.groupby_ms", "ms"}, {"exec.topn_ms", "ms"}, {"exec.range_ms", "ms"}, {"exec.join_ms", "ms"},
	}
	for _, s := range shapes {
		defs = append(defs,
			metricDef{"xopt.nn_translation_frac." + s, "share"},
			metricDef{"infer.interp_us_per_row." + s, "us"},
			metricDef{"infer.nn_us_per_row." + s, "us"},
			metricDef{"infer.chosen_us_per_row." + s, "us"},
			metricDef{"infer.interp_alloc_b_per_row." + s, "B"},
			metricDef{"infer.nn_alloc_b_per_row." + s, "B"},
			metricDef{"ort.build_ms." + s, "ms"},
			metricDef{"infer.request_frac." + s, "share"},
		)
	}
	return append(defs,
		metricDef{"wal.append_sync_us", "us"},
		metricDef{"storage.wal_bytes_per_user_byte", "ratio"},
		metricDef{"storage.disk_bytes_per_user_byte", "ratio"},
		metricDef{"storage.wal_records_per_insert", "ratio"},
		metricDef{"storage.sealed_frac", "share"},
		metricDef{"storage.checkpoint_ms", "ms"},
		metricDef{"storage.recover_ms", "ms"},
		metricDef{"go.alloc_kb_per_op", "KB"},
		metricDef{"go.gc_cpu_frac", "share"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.repeat_frac", "share"},
		metricDef{"trace.overhead_frac", "share"},
		metricDef{"trace.unattributed_frac", "share"},
	)
}()

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	prov    map[string]any
	metrics map[string]metric

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

func (r *run) set(name string, v float64) {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// op records one attempted operation and whether it failed.
func (r *run) op(failed bool) {
	r.mu.Lock()
	r.attempted++
	if failed {
		r.failed++
	}
	r.mu.Unlock()
}

// problem records a correctness or validity failure; any problem makes
// the run's result incorrect.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note records a figure that is not in the gated metric set (see
// README) in the provenance line, with its unit.
func (r *run) note(name string, v float64, unit string) {
	m, _ := r.prov["ungated_metrics"].(map[string]metric)
	if m == nil {
		m = map[string]metric{}
		r.prov["ungated_metrics"] = m
	}
	m[name] = metric{Value: v, Unit: unit}
}

// notePct notes a nearest-rank percentile when at least minBeyond
// samples lie beyond it; its sample counts go to the provenance either
// way.
func (r *run) notePct(name string, xs []float64, p float64) {
	q := nearestRank(xs, p)
	r.prov["percentile."+name] = q
	if q.OK {
		r.note(name, q.Value, "ms")
	}
}

// pct reports a nearest-rank percentile as metric name, recording its
// sample size in the provenance; a percentile with fewer than minBeyond
// samples above it is a validity failure.
func (r *run) pct(name string, xs []float64, p float64) {
	q := nearestRank(xs, p)
	r.set(name, q.Value)
	r.prov["percentile."+name] = q
	if !q.OK {
		r.problem("%s: only %d samples beyond p%v (n=%d), need %d", name, q.Beyond, p, q.N, minBeyond)
	}
}

// windowPct reports windowPctl of a latency sample as metric name, with
// the window count behind it in the provenance; fewer than half the
// windows holding enough samples is a validity failure.
func (r *run) windowPct(name string, at []time.Duration, xs []float64, span, w time.Duration, p float64) {
	v, n := windowPctl(at, xs, span, w, p)
	r.set(name, v)
	whole := int(span / w)
	r.prov["percentile."+name] = map[string]any{
		"p": p, "window_s": w.Seconds(), "windows": n, "whole_windows": whole,
		"whole_run": nearestRank(xs, p),
	}
	if n == 0 || 2*n < whole {
		r.problem("%s: only %d of %d windows hold %d samples beyond p%v", name, n, whole, minBeyond, p)
	}
}

// heapPct reports heap_peak_mb from a percentile of window peaks.
func (r *run) heapPct(q pctl) {
	r.set("heap_peak_mb", q.Value)
	r.prov["percentile.heap_peak_mb"] = map[string]any{"windows": heapWindows, "of_window_peaks": q}
	if !q.OK {
		r.problem("heap_peak_mb: only %d window peaks beyond p%v (n=%d), need %d", q.Beyond, q.P, q.N, minBeyond)
	}
}

// gcCounters are the Go runtime counters read around a timed phase.
type gcCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcCounters {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	val := func(x metrics.Value) float64 {
		switch x.Kind() {
		case metrics.KindUint64:
			return float64(x.Uint64())
		case metrics.KindFloat64:
			return x.Float64()
		}
		return 0
	}
	return gcCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// goLayer reports the Go runtime's per-layer figures over a phase of
// ops operations.
func (r *run) goLayer(before, after gcCounters, ops int) {
	if ops > 0 {
		r.set("go.alloc_kb_per_op", (after.allocBytes-before.allocBytes)/1024/float64(ops))
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
}

// heapSampler tracks the live Go heap (the bytes the last GC found
// reachable) while it runs: the memory the process actually holds,
// without the garbage whose amount depends on when GC happened to run.
// The load generator shares this process, so its heap is included.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	start   time.Time
	at      []time.Duration // sample times from start
	mb      []float64       // live heap at each sample, MB
	stopped time.Duration
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.at = append(h.at, time.Since(h.start))
			h.mb = append(h.mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
	h.stopped = time.Since(h.start)
}

// peaks returns the peak live heap in each of the stretches between
// consecutive bounds (times from the sampler's start); a stretch with
// no sample is left out.
func (h *heapSampler) peaks(bounds []time.Duration) []float64 {
	var out []float64
	i := 0
	for k := 0; k+1 < len(bounds); k++ {
		for i < len(h.at) && h.at[i] < bounds[k] {
			i++
		}
		peak, seen := 0.0, false
		for ; i < len(h.at) && h.at[i] < bounds[k+1]; i++ {
			peak, seen = max(peak, h.mb[i]), true
		}
		if seen {
			out = append(out, peak)
		}
	}
	return out
}

// heapWindows is how many whole windows heap_peak_mb's p90 is taken
// over, so that 10 window peaks lie beyond it.
const heapWindows = 110

// windowPeakP90 is the nearest-rank p90, over heapWindows whole windows
// of the phase, of each window's peak live heap: the heap the workload
// reaches in a tenth of its time, which a part of the traffic that
// needs more memory raises, while a single GC cycle that marked at a
// bad moment does not.
func (h *heapSampler) windowPeakP90() pctl {
	w := h.stopped / heapWindows
	bounds := make([]time.Duration, heapWindows+1)
	for k := range bounds {
		bounds[k] = time.Duration(k) * w
	}
	return nearestRank(h.peaks(bounds), 90)
}

// maxHostSteal is the largest share of the host's CPU time the
// hypervisor may give to other machines during a timed phase. Above it
// the run measured a slower host than the one its figures are compared
// with, so it is recorded as a problem and the run is invalid. Below
// it, a run's figures stand: on a 2-vCPU host an online_score run at
// 7% steal reads up to twice the open-loop p90 of runs at under 1%,
// and the median and interquartile spread of ten runs absorb a run or
// two like that, while a run that reports no result at all cannot be
// absorbed.
const maxHostSteal = 0.15

// stealMeter reads the host's steal time around a timed phase.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

// cpuTicks returns the steal and total clock ticks of the host's
// aggregate cpu line in /proc/stat; ok is false off Linux.
func cpuTicks() (m stealMeter) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return m
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return stealMeter{}
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	m.ok = true
	return m
}

// finish records the phase's steal share in the provenance and makes
// the run invalid above maxHostSteal.
func (m stealMeter) finish(r *run) {
	end := cpuTicks()
	if !m.ok || !end.ok || end.total <= m.total {
		r.prov["host_steal_frac"] = nil
		return
	}
	frac := float64(end.steal-m.steal) / float64(end.total-m.total)
	r.prov["host_steal_frac"] = frac
	r.prov["host_steal_limit"] = maxHostSteal
	if frac > maxHostSteal {
		r.problem("host steal %.3f over the timed phase, above %.2f: the run measured a slower host", frac, maxHostSteal)
	}
}

func main() {
	workload := flag.String("workload", "", "online_score, batch_score or ingest_analytics")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured duration of the workload phase")
	trace := flag.Int("trace", 0, "1 = also replay a sample layer by layer and report per-layer metrics")
	flag.Parse()

	runners := map[string]func(*run) error{
		"online_score":     runOnline,
		"batch_score":      runBatch,
		"ingest_analytics": runIngest,
	}
	fn, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload online_score|batch_score|ingest_analytics --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir:  filepath.Join(".bench_build", "perfbench"),
		prov:    map[string]any{},
		metrics: map[string]metric{},
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.prov["workload"] = r.workload
	r.prov["seed"] = r.seed
	r.prov["seconds"] = r.seconds
	r.prov["trace"] = r.trace
	r.prov["nproc"] = runtime.NumCPU()
	r.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.prov["go_version"] = runtime.Version()
	r.prov["os_arch"] = runtime.GOOS + "/" + runtime.GOARCH
	// Results are comparable only between runs with the same host shape.
	r.prov["host_shape"] = fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	r.prov["load_generator"] = "in process: shares CPUs and the Go heap with the server; heap_peak_mb includes it"

	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// print writes the provenance line and then the result line, which
// carries exactly the declared metrics of the mode: a metric a workload
// does not exercise is reported as 0 and named in the provenance.
func (r *run) print(w *os.File) error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	var absent []string
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			if !r.trace {
				r.problem("end-to-end metric %s was not measured", d.name)
			}
			absent = append(absent, d.name)
			m = metric{Value: 0, Unit: d.unit}
		}
		out[d.name] = m
	}
	sort.Strings(absent)
	if len(absent) > 0 {
		r.prov["not_exercised"] = strings.Join(absent, " ")
	}
	r.prov["problems"] = r.problems
	if r.attempted > 0 {
		r.note("error_frac", float64(r.failed)/float64(r.attempted), "share")
	}
	prov, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", prov, res)
	return err
}
