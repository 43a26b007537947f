package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"raven"
	"raven/internal/ml"
	"raven/internal/nnconv"
	"raven/internal/ort"
	"raven/internal/rt"
	"raven/internal/types"
)

// predictors are the two scoring paths of one stored pipeline, built
// outside the engine so that measuring them leaves the engine's session
// cache untouched: the interpreter (rt.PipelinePredictor) and the
// NN-translated tensor session (what rt.Runtime.NNPredictor builds).
type predictors struct {
	interp *rt.PipelinePredictor
	nn     *rt.SessionPredictor
}

// newPredictors builds both paths; each NN build is traced as its own
// root span "ort.build" (translate + session compile), reps times.
func newPredictors(t *tracer, req int, p *ml.Pipeline, reps int) (*predictors, error) {
	pr := &predictors{interp: rt.NewPipelinePredictor(p, types.Float)}
	for i := 0; i < reps; i++ {
		root := t.start(req+i, -1, "ort.build")
		var g *ort.Graph
		if _, err := t.timed(req+i, root, "nnconv.translate", func() error {
			var err error
			g, err = nnconv.TranslatePipeline(p)
			return err
		}); err != nil {
			return nil, err
		}
		var s *ort.Session
		if _, err := t.timed(req+i, root, "ort.new_session", func() error {
			var err error
			s, err = ort.NewSession(g)
			return err
		}); err != nil {
			return nil, err
		}
		t.stop(root)
		pr.nn = &rt.SessionPredictor{Session: s, InputCols: p.InputColumns, OutType: types.Float}
	}
	return pr, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() float64 {
	s := append([]metrics.Sample(nil), allocSample...)
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// reqMeta is what a replayed request was, for turning its spans into
// per-layer figures.
type reqMeta struct {
	wire     string // wire span name: "wire.http" or "wire.pg"
	shape    string // model shape scored, "" for SQL-only requests
	class    string // analytic class of an ingest read, "" otherwise
	insert   bool
	wireRows int
	dataRows int
	chosen   string   // "nn" or "interp": the path the optimizer picked
	rules    []string // cross-optimizer rules applied to the statement
	// engineCPU is the process CPU time the in-process engine call used
	// (all its worker threads).
	engineCPU time.Duration
	interpB   float64
	nnB       float64
}

// dataAndPredict drains the PREDICT's DATA subquery alone in process,
// then scores the materialized batch with both predictors, recording
// the allocation bytes of each call.
func (pr *predictors) dataAndPredict(ctx context.Context, db *raven.DB, t *tracer, req, parent int, dataSQL string, m *reqMeta) error {
	var batch *types.Batch
	if _, err := t.timed(req, parent, "exec.data", func() error {
		rows, err := db.QueryContext(ctx, dataSQL)
		if err != nil {
			return err
		}
		res, err := rows.Collect()
		if err != nil {
			return err
		}
		batch = res.Batch
		return nil
	}); err != nil {
		return err
	}
	m.dataRows = batch.Len()
	for _, p := range []struct {
		name string
		fn   func(*types.Batch) ([]*types.Vector, error)
		b    *float64
	}{
		{"infer.interp", pr.interp.PredictBatch, &m.interpB},
		{"infer.nn", pr.nn.PredictBatch, &m.nnB},
	} {
		a0 := allocBytes()
		if _, err := t.timed(req, parent, p.name, func() error {
			// Score in the executor's batch size, as the engine does.
			for lo := 0; lo < batch.Len(); lo += types.DefaultBatchSize {
				sub := batch.Slice(lo, min(lo+types.DefaultBatchSize, batch.Len()))
				out, err := p.fn(sub)
				if err != nil {
					return err
				}
				if len(out) != 1 || out[0].Len() != sub.Len() {
					return fmt.Errorf("%s returned a malformed result", p.name)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		*p.b = allocBytes() - a0
	}
	return nil
}

// untracedCall times one wire call without spans, for
// trace.overhead_frac, after a forced GC. A replay runs it before the
// traced request on even iterations and after it on odd ones, and the
// traced request also starts after a forced GC, so neither side always
// runs on the heap and caches the other left behind.
func untracedCall(untraced *[]float64, call func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := call(); err != nil {
		return err
	}
	*untraced = append(*untraced, ms(time.Since(t0)))
	return nil
}

// benchGC collects the heap inside a "bench.gc" span, so an in-process
// engine call starts from the same heap state as the wire call it is
// compared with, and the collection is attributed to the benchmark.
func benchGC(t *tracer, req, parent int) {
	t.timed(req, parent, "bench.gc", func() error { runtime.GC(); return nil })
}

// finishTrace checks the span trees, writes the span file and derives
// the span-based per-layer metrics. untraced holds wire-call latencies
// (ms) measured without spans, for trace.overhead_frac.
func finishTrace(r *run, t *tracer, metas map[int]*reqMeta, untraced []float64) error {
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := writeSpans(path, t.spans); err != nil {
		return err
	}
	r.prov["span_file"] = path
	r.prov["spans"] = len(t.spans)
	trees, err := analyze(t.spans)
	if err != nil {
		r.problem("trace integrity: %v", err)
		return nil
	}
	l := map[string][]float64{}
	add := func(name string, v float64) { l[name] = append(l[name], v) }
	builds := map[string][]float64{}
	rules := map[string]map[string]bool{} // statement kind -> rules applied
	var traced []float64
	for req, tr := range trees {
		if tr.root.Name == "ort.build" {
			builds[metas[req].shape] = append(builds[metas[req].shape], ms(tr.root.dur()))
			continue
		}
		m := metas[req]
		kind := m.shape + m.class
		if m.insert {
			kind = "insert"
		}
		if rules[kind] == nil {
			rules[kind] = map[string]bool{}
		}
		for _, rule := range m.rules {
			rules[kind][rule] = true
		}
		add("trace.unattributed_frac", tr.unattributed())
		wire, _ := tr.durOf(m.wire)
		traced = append(traced, ms(wire))
		engine, _ := tr.durOf("engine")
		switch {
		case m.wire == "wire.http" && m.insert:
			add("server.insert_self_ms", ms(wire-engine))
		case m.wire == "wire.http":
			add("server.self_ms", ms(wire-engine))
		case m.wire == "wire.pg":
			add("pgwire.self_ms", ms(wire-engine))
			// Per-row figures only mean something over a large stream.
			if m.wireRows >= 1000 {
				add("pgwire.self_ns_per_row", float64(wire-engine)/float64(m.wireRows))
			}
		}
		for name, metric := range map[string]string{
			"sql.parse": "sql.parse_us", "plan.bind": "plan.bind_us", "ir.build": "ir.build_us",
			"xopt.optimize": "xopt.optimize_us", "codegen.lower": "codegen.lower_us",
		} {
			if d, ok := tr.selfOf(name); ok {
				add(metric, us(d))
			}
		}
		if m.class != "" {
			if d, ok := tr.durOf("exec.drain"); ok {
				add("exec."+m.class+"_ms", ms(d))
			}
		}
		if m.shape == "" {
			continue
		}
		data, _ := tr.durOf("exec.data")
		add("exec.data_ms", ms(data))
		interp, _ := tr.durOf("infer.interp")
		nn, _ := tr.durOf("infer.nn")
		rows := float64(m.dataRows)
		add("infer.interp_us_per_row."+m.shape, us(interp)/rows)
		add("infer.nn_us_per_row."+m.shape, us(nn)/rows)
		add("infer.interp_alloc_b_per_row."+m.shape, m.interpB/rows)
		add("infer.nn_alloc_b_per_row."+m.shape, m.nnB/rows)
		chosen, nnFrac := interp, 0.0
		if m.chosen == "nn" {
			chosen, nnFrac = nn, 1
		}
		add("infer.chosen_us_per_row."+m.shape, us(chosen)/rows)
		add("xopt.nn_translation_frac."+m.shape, nnFrac)
		// The predictors run on one thread; the engine may score on
		// several, so the share is taken of the engine call's CPU time.
		if m.engineCPU > 0 {
			add("infer.request_frac."+m.shape, float64(chosen)/float64(m.engineCPU))
		}
	}
	for name, xs := range l {
		if name == "xopt.nn_translation_frac.forest" || name == "xopt.nn_translation_frac.linear" || name == "xopt.nn_translation_frac.pipeline" {
			r.set(name, mean(xs))
			continue
		}
		r.set(name, median(xs))
	}
	for shape, xs := range builds {
		r.set("ort.build_ms."+shape, median(xs))
	}
	if u := median(untraced); u > 0 {
		r.set("trace.overhead_frac", median(traced)/u-1)
	}
	r.prov["replayed_requests"] = len(traced)
	applied := map[string][]string{}
	for kind, set := range rules {
		applied[kind] = []string{}
		for rule := range set {
			applied[kind] = append(applied[kind], rule)
		}
		sort.Strings(applied[kind])
	}
	r.prov["rules_applied"] = applied
	return nil
}

// schedLayer reports admission-scheduler deltas over the timed phase.
func schedLayer(r *run, a, b raven.Stats) {
	if a.Scheduler == nil || b.Scheduler == nil {
		return
	}
	admitted := float64(b.Scheduler.Admitted - a.Scheduler.Admitted)
	if admitted > 0 {
		r.set("sched.wait_ms_mean", ms(b.Scheduler.TotalWait-a.Scheduler.TotalWait)/admitted)
		r.set("sched.queued_frac", float64(b.Scheduler.Queued-a.Scheduler.Queued)/admitted)
	}
	r.set("sched.rejected", float64(b.Scheduler.Rejected-a.Scheduler.Rejected))
	r.prov["sched_admitted"] = admitted
}

// cacheLayer reports plan-cache and inference-session-cache hit shares
// over the timed phase, with their lookup counts.
func cacheLayer(r *run, a, b raven.Stats) {
	ph, pm := b.PlanCache.Hits-a.PlanCache.Hits, b.PlanCache.Misses-a.PlanCache.Misses
	if ph+pm > 0 {
		r.set("plancache.hit_frac", float64(ph)/float64(ph+pm))
	}
	r.prov["plancache_lookups"] = ph + pm
	sh, sm := b.SessionCache.Hits-a.SessionCache.Hits, b.SessionCache.Misses-a.SessionCache.Misses
	if sh+sm > 0 {
		r.set("rt.session_hit_frac", float64(sh)/float64(sh+sm))
	}
	r.prov["session_lookups"] = sh + sm
}
