package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven"
	"raven/internal/server"
)

// online_score: interactive point scoring. A prepared PREDICT scores a
// narrow patient-id range of the hospital 3-way join with a stored
// forest, sent to HTTP /stmt/{id}/query. Open loop first (seeded Poisson
// arrivals at a fixed rate), then a closed loop of nproc clients for
// saturation throughput.
const (
	onlineRows  = 250 // rows per hospital table: below the 50k parallel threshold, so DOP 1
	onlineTrees = 8
	// onlineRate is the open-loop offered rate, well below saturation.
	onlineRate = 100.0
	// onlineSLO is the latency limit behind slo_frac.
	onlineSLO = 25 * time.Millisecond
	// onlineOpenShare is the open-loop part of the measured seconds; the
	// closed loop gets the rest.
	onlineOpenShare = 0.7
	// onlineMaxULP bounds how far an engine score may sit from the
	// interpreted forest: the default plan scores through the
	// NN-translated forest, whose tensor evaluation adds the trees' leaf
	// values in another order than the interpreter.
	onlineMaxULP    = 4
	onlineReplay    = 40 // requests replayed layer by layer in a traced run
	onlineSetupReps = 21
)

const onlineModel = "los_forest"

const onlineSQL = `SELECT d.id, p.score FROM PREDICT(MODEL='los_forest',
	DATA=(SELECT * FROM patient_info AS pi
	      JOIN blood_tests AS bt ON pi.id = bt.id
	      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
	WITH (score FLOAT) AS p WHERE d.id >= @lo AND d.id < @hi`

const onlineDataSQL = `SELECT * FROM patient_info AS pi
	JOIN blood_tests AS bt ON pi.id = bt.id
	JOIN prenatal_tests AS pt ON bt.id = pt.id`

// pointReq is one online request: score ids in [lo, hi).
type pointReq struct{ lo, hi int64 }

func (q pointReq) params() map[string]string {
	return map[string]string{"lo": strconv.FormatInt(q.lo, 10), "hi": strconv.FormatInt(q.hi, 10)}
}

func (q pointReq) literalSQL() string {
	return strings.NewReplacer("@lo", strconv.FormatInt(q.lo, 10), "@hi", strconv.FormatInt(q.hi, 10)).Replace(onlineSQL)
}

type online struct {
	h       *hospital
	maxSeen atomic.Uint64 // largest ulp distance from the reference seen
}

func drawPoint(rng *rand.Rand) pointReq {
	lo := rng.Int63n(onlineRows * hospitalIDStride)
	return pointReq{lo, lo + int64(8+rng.Intn(25))*hospitalIDStride}
}

// check compares a wire result with the interpreted forest's scores for
// exactly the ids in range.
func (o *online) check(q pointReq, rows [][]any) error {
	ids := o.h.IDs
	first := sort.Search(len(ids), func(i int) bool { return ids[i] >= q.lo })
	last := sort.Search(len(ids), func(i int) bool { return ids[i] >= q.hi })
	if len(rows) != last-first {
		return fmt.Errorf("[%d,%d): %d rows, want %d", q.lo, q.hi, len(rows), last-first)
	}
	seen := make(map[int64]bool, len(rows))
	for _, row := range rows {
		if len(row) != 2 {
			return fmt.Errorf("row has %d columns, want 2", len(row))
		}
		idf, ok1 := row[0].(float64)
		score, ok2 := row[1].(float64)
		if !ok1 || !ok2 {
			return fmt.Errorf("row %v is not (id, score)", row)
		}
		id := int64(idf)
		i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
		if i < first || i >= last || ids[i] != id || seen[id] {
			return fmt.Errorf("unexpected or repeated id %d in [%d,%d)", id, q.lo, q.hi)
		}
		seen[id] = true
		d := ulpDiff(score, o.h.Ref[i])
		for {
			m := o.maxSeen.Load()
			if d <= m || o.maxSeen.CompareAndSwap(m, d) {
				break
			}
		}
		if d > onlineMaxULP {
			return fmt.Errorf("id %d: score %v, reference %v (%d ulp)", id, score, o.h.Ref[i], d)
		}
	}
	return nil
}

// onlineStack is one set-up stack with its prepared statement.
type onlineStack struct {
	*stack
	stmtID string
}

// setup opens an engine, loads the tables and the model, starts both
// front ends, prepares the statement and waits for one correct
// response. It returns the stack and the elapsed time.
func (o *online) setup(ctx context.Context, warm pointReq) (*onlineStack, time.Duration, error) {
	t0 := time.Now()
	db, err := raven.Open(servedOptions()...)
	if err != nil {
		return nil, 0, err
	}
	if err := o.h.load(db.Catalog()); err != nil {
		db.Close()
		return nil, 0, err
	}
	if err := db.StoreModel(onlineModel, o.h.Model); err != nil {
		db.Close()
		return nil, 0, err
	}
	st, err := serve(db)
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	c, closeIdle := httpClient(st.httpBase)
	defer closeIdle()
	prep, err := c.PrepareContext(ctx, server.QueryRequest{SQL: onlineSQL})
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("prepare: %w", err)
	}
	res, err := c.StmtQueryContext(ctx, prep.ID, server.QueryRequest{Params: warm.params()})
	if err == nil {
		err = o.check(warm, res.Rows)
	}
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return &onlineStack{st, prep.ID}, time.Since(t0), nil
}

func runOnline(r *run) error {
	ctx := context.Background()
	h, err := genHospital(r.seed, onlineRows, onlineTrees)
	if err != nil {
		return err
	}
	o := &online{h: h}
	rng := rand.New(rand.NewSource(r.seed + 10))
	nproc := runtime.NumCPU()
	r.prov["tables"] = map[string]int{"patient_info": onlineRows, "blood_tests": onlineRows, "prenatal_tests": onlineRows}
	r.prov["model"] = fmt.Sprintf("%s: random forest, %d trees, depth 8, 9 features", onlineModel, onlineTrees)
	r.prov["offered_rate_per_s"] = onlineRate
	r.prov["slo_limit_ms"] = ms(onlineSLO)
	r.prov["connections"] = nproc
	r.prov["max_ulp"] = onlineMaxULP

	var st *onlineStack
	var setups []float64
	for i := 0; i < onlineSetupReps; i++ {
		// A set-up takes a few milliseconds, so a collection of the
		// previous stack's garbage landing inside one would be a large
		// share of it: each starts from a collected heap.
		runtime.GC()
		s, d, err := o.setup(ctx, drawPoint(rng))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		st = s
	}
	r.set("setup_s", median(setups))
	r.prov["setup_s_samples"] = setups

	heap := startHeapSampler()
	steal := cpuTicks()
	stats0 := st.db.Stats()
	gc0 := readGC()
	openDur := time.Duration(r.seconds * onlineOpenShare * float64(time.Second))
	ol := o.openLoop(ctx, r, st, rng, openDur, nproc)
	closedDur := time.Duration(r.seconds*float64(time.Second)) - openDur
	cl := o.closedLoop(ctx, r, st, rng, closedDur, nproc)
	gc1 := readGC()
	stats1 := st.db.Stats()
	steal.finish(r)
	heap.finish()
	r.heapPct(heap.windowPeakP90())

	r.windowPct("p50_ms", ol.latAt, ol.lat, ol.dur, time.Second, 50)
	// At the offered rate a 2-s window holds about 200 requests, so its
	// p90 has about 20 samples beyond it.
	r.windowPct("p90_ms", ol.latAt, ol.lat, ol.dur, 2*time.Second, 90)
	r.notePct("p99_ms", ol.lat, 99)
	r.set("slo_frac", float64(ol.withinSLO)/float64(ol.sent))
	// The gated rates are what the open loop delivered: the offered load
	// while the stack keeps up, less when it does not. Saturation
	// throughput moves with the host's memory-contention phases by more
	// than the gate's bound between runs of the same code, so it is
	// printed ungated.
	r.set("qps", windowRate(ol.doneAt, nil, ol.dur, rateWindow))
	r.set("rows_per_s", windowRate(ol.doneAt, ol.rows, ol.dur, rateWindow))
	r.note("saturation_qps", windowRate(cl.at, nil, cl.dur, rateWindow), "req/s")
	r.note("saturation_rows_per_s", windowRate(cl.at, cl.rows, cl.dur, rateWindow), "rows/s")
	r.prov["open_loop"] = map[string]any{"sent": ol.sent, "ok": len(ol.lat), "within_slo": ol.withinSLO,
		"backlog_first_quarter": ol.backlogHead, "backlog_last_quarter": ol.backlogTail}
	r.prov["closed_loop"] = map[string]any{"done": len(cl.at), "seconds": cl.dur.Seconds(),
		"per_window": windowCounts(cl.at, cl.dur, rateWindow)}
	r.prov["max_ulp_seen"] = o.maxSeen.Load()
	if ol.growing {
		r.problem("open loop: backlog grew across the phase (first quarter mean %.2f, last quarter %.2f): the offered rate is above what the stack sustains", ol.backlogHead, ol.backlogTail)
	}

	if r.trace {
		r.set("loadgen.late_p99_ms", nearestRank(ol.late, 99).Value)
		r.set("loadgen.repeat_frac", ol.repeatFrac)
		r.goLayer(gc0, gc1, ol.sent+len(cl.at))
		schedLayer(r, stats0, stats1)
		cacheLayer(r, stats0, stats1)
		if err := o.replay(ctx, r, st, rng); err != nil {
			return err
		}
	}
	return st.close()
}

// openResult is what the open-loop phase measured.
type openResult struct {
	sent       int
	lat        []float64       // ms from due time, successful requests
	latAt      []time.Duration // each one's due time from the phase start
	doneAt     []time.Duration // each one's completion time from the phase start
	rows       []float64       // rows each one delivered
	dur        time.Duration
	late       []float64 // ms the generator dispatched after the due time
	withinSLO  int
	repeatFrac float64

	backlogHead, backlogTail float64
	growing                  bool
}

// openLoop sends seeded Poisson arrivals at onlineRate for dur. Due
// requests wait in the generator while all nproc connections are busy;
// no extra connection is opened. Latency runs from the due time.
func (o *online) openLoop(ctx context.Context, r *run, st *onlineStack, rng *rand.Rand, dur time.Duration, nproc int) openResult {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / onlineRate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	reqs := make([]pointReq, len(due))
	seen := make(map[pointReq]bool, len(due))
	repeats := 0
	for i := range reqs {
		reqs[i] = drawPoint(rng)
		if seen[reqs[i]] {
			repeats++
		}
		seen[reqs[i]] = true
	}

	res := openResult{sent: len(due), dur: dur}
	if len(due) > 0 {
		res.repeatFrac = float64(repeats) / float64(len(due))
	}
	lat := make([]float64, len(due))
	nrows := make([]float64, len(due))
	ok := make([]bool, len(due))
	late := make([]float64, len(due))
	backlog := make([]int, len(due))
	var completed atomic.Int64
	jobs := make(chan int, len(due)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, closeIdle := httpClient(st.httpBase)
			defer closeIdle()
			for k := range jobs {
				q := reqs[k]
				out, err := c.StmtQueryContext(ctx, st.stmtID, server.QueryRequest{Params: q.params()})
				done := time.Now()
				if err == nil {
					err = o.check(q, out.Rows)
					if err != nil {
						r.problem("online_score oracle: %v", err)
					}
				}
				r.op(err != nil)
				if err == nil {
					lat[k] = ms(dueLatency(start.Add(due[k]), done))
					nrows[k] = float64(len(out.Rows))
					ok[k] = true
				}
				completed.Add(1)
			}
		}()
	}
	for k, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		late[k] = ms(time.Since(start.Add(d)))
		backlog[k] = k - int(completed.Load())
		jobs <- k
	}
	close(jobs)
	wg.Wait()

	for k := range due {
		if ok[k] {
			res.lat = append(res.lat, lat[k])
			res.latAt = append(res.latAt, due[k])
			res.doneAt = append(res.doneAt, due[k]+time.Duration(lat[k]*float64(time.Millisecond)))
			res.rows = append(res.rows, nrows[k])
			if lat[k] <= ms(onlineSLO) {
				res.withinSLO++
			}
		}
	}
	res.late = late
	if q := len(backlog) / 4; q > 0 {
		var head, tail float64
		for _, b := range backlog[:q] {
			head += float64(b)
		}
		for _, b := range backlog[len(backlog)-q:] {
			tail += float64(b)
		}
		res.backlogHead, res.backlogTail = head/float64(q), tail/float64(q)
		// Poisson arrivals make the backlog fluctuate; growth means the
		// tail's mean queue is both larger than the head's and more than
		// one request per connection.
		res.growing = res.backlogTail > 2*res.backlogHead+float64(nproc)
	}
	return res
}

type closedResult struct {
	at   []time.Duration // completion times from the phase start
	rows []float64       // rows delivered by each completion
	dur  time.Duration
}

// closedLoop runs nproc clients back to back for dur.
func (o *online) closedLoop(ctx context.Context, r *run, st *onlineStack, rng *rand.Rand, dur time.Duration, nproc int) closedResult {
	seeds := make([]int64, nproc)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	res := closedResult{dur: dur}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, closeIdle := httpClient(st.httpBase)
			defer closeIdle()
			wrng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				q := drawPoint(wrng)
				out, err := c.StmtQueryContext(ctx, st.stmtID, server.QueryRequest{Params: q.params()})
				if err == nil {
					if err = o.check(q, out.Rows); err != nil {
						r.problem("online_score oracle: %v", err)
					}
				}
				r.op(err != nil)
				if err == nil {
					mu.Lock()
					res.at = append(res.at, time.Since(start))
					res.rows = append(res.rows, float64(len(out.Rows)))
					mu.Unlock()
				}
			}
		}(seeds[w])
	}
	wg.Wait()
	return res
}

// replay re-runs a sample of requests one at a time, layer by layer.
// Each request's root span holds, in sequence: the wire call, the same
// request in process, the decomposed compile and its drain (checked
// against the engine's result), the drain of the DATA subquery alone,
// and both predictors over the materialized DATA batch. An untraced
// wire call before each traced one gives trace.overhead_frac.
func (o *online) replay(ctx context.Context, r *run, st *onlineStack, rng *rand.Rand) error {
	t := newTracer()
	metas := map[int]*reqMeta{}
	const buildReq = 1 << 20
	pr, err := newPredictors(t, buildReq, o.h.Model, 3)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		metas[buildReq+i] = &reqMeta{shape: "forest"}
	}
	stmt, err := st.db.Prepare(onlineSQL)
	if err != nil {
		return err
	}
	c, closeIdle := httpClient(st.httpBase)
	defer closeIdle()
	var untraced []float64
	for i := 0; i < onlineReplay; i++ {
		plain := drawPoint(rng)
		untracedWire := func() error {
			return untracedCall(&untraced, func() error {
				_, err := c.StmtQueryContext(ctx, st.stmtID, server.QueryRequest{Params: plain.params()})
				return err
			})
		}
		if i%2 == 0 {
			if err := untracedWire(); err != nil {
				return err
			}
		}
		q := drawPoint(rng)

		m := &reqMeta{wire: "wire.http", shape: "forest"}
		metas[i] = m
		runtime.GC()
		root := t.start(i, -1, "request")
		var wire *server.StreamResult
		if _, err := t.timed(i, root, "wire.http", func() error {
			var err error
			wire, err = c.StmtQueryContext(ctx, st.stmtID, server.QueryRequest{Params: q.params()})
			return err
		}); err != nil {
			return err
		}
		m.wireRows = len(wire.Rows)
		var engine fingerprint
		if err := engineCall(t, i, root, func() (*raven.Rows, error) {
			return stmt.QueryContext(ctx, raven.P("lo", strconv.FormatInt(q.lo, 10)), raven.P("hi", strconv.FormatInt(q.hi, 10)))
		}, &engine, m); err != nil {
			return err
		}
		if err := decomposedCall(ctx, st.db, t, i, root, q.literalSQL(), onlineSQL, engine, m); err != nil {
			r.problem("online_score replay: %v", err)
			return nil
		}
		if err := pr.dataAndPredict(ctx, st.db, t, i, root, onlineDataSQL, m); err != nil {
			return err
		}
		if _, err := t.timed(i, root, "bench.check", func() error { return o.check(q, wire.Rows) }); err != nil {
			r.problem("online_score replay oracle: %v", err)
		}
		t.stop(root)
		if i%2 == 1 {
			if err := untracedWire(); err != nil {
				return err
			}
		}
	}
	return finishTrace(r, t, metas, untraced)
}
