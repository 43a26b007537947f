package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"raven"
)

// batch_score: bulk scoring. One pgwire connection, simple protocol, in
// a closed loop; each job scores the whole flights_features table
// (above the 50k-row parallel threshold, so morsel-parallel) and streams
// every (id, score) row back. Jobs cycle through three model shapes.
const (
	batchRows  = 50_000 // the engine's default parallel threshold
	batchWidth = 100    // feature columns
	batchTrees = 4
	// batchSLO is the per-job latency limit behind slo_frac, set from
	// the forest jobs (the slowest shape) on a shared 2-vCPU host: their
	// median ranged 290-330 ms and their p90 335-415 ms across the
	// host's faster and slower phases. The limit sits 1.2× above the
	// slowest p90, so a slower phase alone misses few jobs, while a
	// forest regression of a quarter to a half fails a third of them.
	// A limit inside the forest distribution moved slo_frac with the
	// host's phase by more than a third of its bound.
	batchSLO = 500 * time.Millisecond
	// batchReplayCycles is how many job cycles a traced run replays.
	batchReplayCycles = 2
	batchSetupReps    = 3
)

// batchMaxULP bounds how far a streamed score may sit from the
// interpreted pipeline, per shape. The default plan scores every shape
// through its NN translation: tensor kernels sum tree leaves and linear
// terms in another order than the interpreter, so the last bits can
// differ; everything else about the row must match exactly.
var batchMaxULP = map[string]uint64{"forest": 4, "linear": 64, "pipeline": 64}

func batchSQL(shape string) string {
	return fmt.Sprintf(`SELECT d.id, p.score FROM PREDICT(MODEL='delay_%s', DATA=flights_features AS d) WITH (score FLOAT) AS p`, shape)
}

const batchDataSQL = `SELECT * FROM flights_features`

type batch struct {
	fl      *flights
	want    map[string]uint64 // reference checksum per shape
	maxSeen map[string]uint64 // largest ulp distance seen, per shape
}

// job streams one shape's scores over pg and checks every row against
// the reference. It returns the row count.
func (b *batch) job(c *pgConn, shape string) (int, error) {
	o := &scoreOracle{Ref: b.fl.Ref[shape], MaxULP: batchMaxULP[shape]}
	n, err := c.query(batchSQL(shape), func(f [][]byte) error {
		if len(f) != 2 || f[0] == nil || f[1] == nil {
			return fmt.Errorf("row is not (id, score)")
		}
		id, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return err
		}
		score, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return err
		}
		o.add(id, score)
		return nil
	})
	b.maxSeen[shape] = max(b.maxSeen[shape], o.MaxSeen)
	if err != nil {
		return n, err
	}
	if err := o.verdict(b.want[shape]); err != nil {
		return n, fmt.Errorf("%s job: %w", shape, err)
	}
	return n, nil
}

type batchStack struct {
	*stack
	conn *pgConn
}

func (s *batchStack) close() error {
	s.conn.close()
	return s.stack.close()
}

// setup opens an engine, loads flights_features and the three models,
// starts both front ends, connects over pg and runs one correct job of
// every shape.
func (b *batch) setup(ctx context.Context) (*batchStack, time.Duration, error) {
	t0 := time.Now()
	db, err := raven.Open(servedOptions()...)
	if err != nil {
		return nil, 0, err
	}
	if err := b.fl.load(db.Catalog()); err != nil {
		db.Close()
		return nil, 0, err
	}
	for _, s := range shapes {
		if err := db.StoreModel("delay_"+s, b.fl.Models[s]); err != nil {
			db.Close()
			return nil, 0, err
		}
	}
	st, err := serve(db)
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	c, err := dialPG(ctx, st.pgAddr, "perfbench")
	if err != nil {
		st.close()
		return nil, 0, err
	}
	bs := &batchStack{st, c}
	for _, s := range shapes {
		if _, err := b.job(c, s); err != nil {
			bs.close()
			return nil, 0, fmt.Errorf("first %s job: %w", s, err)
		}
	}
	return bs, time.Since(t0), nil
}

func runBatch(r *run) error {
	ctx := context.Background()
	fl, err := genFlights(r.seed, batchRows, batchWidth, batchTrees)
	if err != nil {
		return err
	}
	b := &batch{fl: fl, want: map[string]uint64{}, maxSeen: map[string]uint64{}}
	for _, s := range shapes {
		b.want[s] = wantSum(fl.Ref[s])
	}
	r.prov["tables"] = map[string]int{"flights_features": batchRows}
	r.prov["table_width"] = batchWidth + 1
	r.prov["models"] = map[string]string{
		"forest":   fmt.Sprintf("random forest, %d trees, depth 8", batchTrees),
		"linear":   "L1 logistic regression",
		"pipeline": "one-hot(8 binary columns) + standard scaler + L1 logistic regression",
	}
	r.prov["max_ulp"] = batchMaxULP
	r.prov["slo_limit_ms"] = ms(batchSLO)
	r.prov["connections"] = 1

	var st *batchStack
	var setups []float64
	for i := 0; i < batchSetupReps; i++ {
		s, d, err := b.setup(ctx)
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
	// Whole cycles only, so every run scores the same mix of shapes;
	// throughput and peak heap are medians over cycles.
	var lat, cycleRows, cycleJobs []float64
	var cycleBounds []time.Duration
	byShape := map[string][]float64{}
	within, attempted := 0, 0
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		c0, rows := time.Now(), 0
		cycleBounds = append(cycleBounds, c0.Sub(heap.start))
		for _, s := range shapes {
			t0 := time.Now()
			n, err := b.job(st.conn, s)
			d := time.Since(t0)
			attempted++
			r.op(err != nil)
			if err != nil {
				r.problem("batch_score: %v", err)
				continue
			}
			rows += n
			lat = append(lat, ms(d))
			byShape[s] = append(byShape[s], ms(d))
			if d <= batchSLO {
				within++
			}
		}
		sec := time.Since(c0).Seconds()
		cycleRows = append(cycleRows, float64(rows)/sec)
		cycleJobs = append(cycleJobs, float64(len(shapes))/sec)
	}
	cycleBounds = append(cycleBounds, time.Since(heap.start))
	gc1 := readGC()
	stats1 := st.db.Stats()
	steal.finish(r)
	heap.finish()
	// The peak of each cycle sees every shape's memory; the median over
	// cycles is steady against one GC that marked at a bad moment.
	cyclePeaks := heap.peaks(cycleBounds)
	r.set("heap_peak_mb", median(cyclePeaks))
	r.prov["heap_peak_mb_cycles"] = len(cyclePeaks)

	r.pct("p50_ms", lat, 50)
	r.pct("p90_ms", lat, 90)
	r.set("qps", median(cycleJobs))
	r.set("rows_per_s", median(cycleRows))
	if attempted > 0 {
		r.set("slo_frac", float64(within)/float64(attempted))
	}
	perShape := map[string]float64{}
	for s, xs := range byShape {
		perShape[s] = median(xs)
	}
	r.prov["job_p50_ms_by_shape"] = perShape
	r.prov["jobs"] = len(lat)
	r.prov["cycles"] = len(cycleRows)
	r.prov["max_ulp_seen"] = b.maxSeen

	if r.trace {
		r.goLayer(gc0, gc1, len(lat))
		schedLayer(r, stats0, stats1)
		cacheLayer(r, stats0, stats1)
		if err := b.replay(ctx, r, st); err != nil {
			return err
		}
	}
	return st.close()
}

// replay re-runs batchReplayCycles job cycles one job at a time, layer
// by layer, like online_score's replay but over pg.
func (b *batch) replay(ctx context.Context, r *run, st *batchStack) error {
	t := newTracer()
	metas := map[int]*reqMeta{}
	pr := map[string]*predictors{}
	buildReq := 1 << 20
	for _, s := range shapes {
		p, err := newPredictors(t, buildReq, b.fl.Models[s], 3)
		if err != nil {
			return err
		}
		pr[s] = p
		for i := 0; i < 3; i++ {
			metas[buildReq+i] = &reqMeta{shape: s}
		}
		buildReq += 3
	}
	count := func([][]byte) error { return nil }
	var untraced []float64
	for i := 0; i < batchReplayCycles*len(shapes); i++ {
		s := shapes[i%len(shapes)]
		q := batchSQL(s)
		untracedWire := func() error {
			return untracedCall(&untraced, func() error {
				_, err := st.conn.query(q, count)
				return err
			})
		}
		if i%2 == 0 {
			if err := untracedWire(); err != nil {
				return err
			}
		}

		m := &reqMeta{wire: "wire.pg", shape: s}
		metas[i] = m
		runtime.GC()
		root := t.start(i, -1, "request")
		if _, err := t.timed(i, root, "wire.pg", func() error {
			var err error
			m.wireRows, err = st.conn.query(q, count)
			return err
		}); err != nil {
			return err
		}
		var engine fingerprint
		if err := engineCall(t, i, root, func() (*raven.Rows, error) { return st.db.QueryContext(ctx, q) }, &engine, m); err != nil {
			return err
		}
		if engine.Rows != m.wireRows {
			r.problem("batch_score replay: engine returned %d rows, the wire %d", engine.Rows, m.wireRows)
		}
		if err := decomposedCall(ctx, st.db, t, i, root, q, q, engine, m); err != nil {
			r.problem("batch_score replay: %v", err)
			return nil
		}
		if err := pr[s].dataAndPredict(ctx, st.db, t, i, root, batchDataSQL, m); err != nil {
			return err
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
