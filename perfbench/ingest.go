package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven"
	"raven/internal/storage"
	"raven/internal/types"
	"raven/internal/wal"
)

// ingest_analytics: writes beside reads on a durable engine (WAL with
// fsync "always", as ravenserved defaults, and segment sealing on). One
// open-loop writer sends fixed-size multi-row INSERTs over HTTP at
// seeded Poisson arrivals; one closed-loop reader on pgwire cycles
// ad-hoc, SQL-only analytic queries with fresh literals. No PREDICT.
const (
	ingestBaseRows  = 200_000
	ingestBatchRows = 20 // rows per INSERT statement
	// ingestInsertRate is the writer's offered INSERTs per second: 1000
	// rows/s, under half of what a closed-loop writer beside the reader
	// reached on a 2-vCPU host (2300-3900 rows/s), and few enough that
	// the one connection is mostly idle. The closed loop's rate followed
	// the host's fsync latency (insert p50 0.4-1.6 ms between runs of
	// the same code) by more than its bound.
	ingestInsertRate  = 50
	ingestSegmentRows = 8192
	ingestFsync       = "always"
	// ingestSLO is the analytic-read latency limit behind slo_frac.
	ingestSLO        = 40 * time.Millisecond
	ingestSetupReps  = 5
	ingestReplayRead = 5 // replayed reads per class in a traced run
	ingestReplayIns  = 10
	ingestUserBytes  = 5 * 8 // user bytes per events row: five 8-byte values
)

// Analytic read classes, cycled in this order.
const (
	classGroupBy = iota
	classTopN
	classRange
	classJoin
	numClasses
)

var classNames = [numClasses]string{"groupby", "topn", "range", "join"}

// readReq is one analytic read with its literals.
type readReq struct {
	class   int
	a, b, n int64
}

func (q readReq) sql() string {
	switch q.class {
	case classGroupBy:
		return fmt.Sprintf("SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM events WHERE k >= %d GROUP BY grp", q.a)
	case classTopN:
		return fmt.Sprintf("SELECT id, v FROM events WHERE grp = %d AND k < %d ORDER BY v DESC, id LIMIT %d", q.b, q.a, q.n)
	case classRange:
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE id >= %d AND id < %d", q.a, q.b)
	default:
		return fmt.Sprintf("SELECT c.region, COUNT(*) AS n, SUM(e.v) AS s FROM events AS e JOIN customers AS c ON e.cust = c.cust WHERE e.k < %d GROUP BY c.region", q.a)
	}
}

// drawRead draws fresh literals for class c over a table of rows rows.
func drawRead(rng *rand.Rand, c, rows int) readReq {
	q := readReq{class: c, a: rng.Int63n(eventKeySpace)}
	switch c {
	case classTopN:
		q.b, q.n = int64(rng.Intn(eventGroups)), int64(5+rng.Intn(16))
	case classRange:
		w := int64(rows/100 + 1)
		q.a = rng.Int63n(int64(rows) - w + 1)
		q.b = q.a + w
	}
	return q
}

// canon renders result fields as one comparable string; rows of
// unordered classes are sorted first.
func canon(class int, rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, ":")
	}
	if class != classTopN {
		sort.Strings(lines)
	}
	return strings.Join(lines, ";")
}

// numText formats an integer-valued count or sum the way a result is
// canonicalized (integers print without a fraction).
func numText(x int64) string { return strconv.FormatInt(x, 10) }

// ledger is every row of events in insertion order (row i has id i):
// the base rows, then the writer's rows as they were sent.
type ledger struct {
	rows    []event
	regions []int32
}

// expect computes each class's answer over prefixes [0, p) of the
// ledger, incrementally: it is advanced row by row and asked for the
// current answer.
type expect struct {
	l   *ledger
	q   readReq
	p   int
	cnt []int64
	sum []int64
	top []int // ids, ordered by v desc, id asc
}

func newExpect(l *ledger, q readReq) *expect {
	e := &expect{l: l, q: q}
	switch q.class {
	case classGroupBy:
		e.cnt, e.sum = make([]int64, eventGroups), make([]int64, eventGroups)
	case classJoin:
		e.cnt, e.sum = make([]int64, regions), make([]int64, regions)
	default:
		e.cnt, e.sum = make([]int64, 1), make([]int64, 1)
	}
	return e
}

// advance adds rows until the prefix has p rows.
func (e *expect) advance(p int) {
	for ; e.p < p; e.p++ {
		r := e.l.rows[e.p]
		id := int64(e.p)
		switch e.q.class {
		case classGroupBy:
			if int64(r.K) >= e.q.a {
				e.cnt[r.Grp]++
				e.sum[r.Grp] += int64(r.V)
			}
		case classJoin:
			if int64(r.K) < e.q.a {
				g := e.l.regions[r.Cust]
				e.cnt[g]++
				e.sum[g] += int64(r.V)
			}
		case classRange:
			if id >= e.q.a && id < e.q.b {
				e.cnt[0]++
				e.sum[0] += int64(r.V)
			}
		case classTopN:
			if int64(r.Grp) == e.q.b && int64(r.K) < e.q.a {
				e.insertTop(e.p)
			}
		}
	}
}

func (e *expect) insertTop(id int) {
	rows := e.l.rows
	before := func(x, y int) bool { // x ranks before y
		if rows[x].V != rows[y].V {
			return rows[x].V > rows[y].V
		}
		return x < y
	}
	i := sort.Search(len(e.top), func(i int) bool { return before(id, e.top[i]) })
	if i >= int(e.q.n) {
		return
	}
	e.top = append(e.top, 0)
	copy(e.top[i+1:], e.top[i:])
	e.top[i] = id
	if len(e.top) > int(e.q.n) {
		e.top = e.top[:e.q.n]
	}
}

// answer is the canonical expected result over the current prefix.
func (e *expect) answer() string {
	var rows [][]string
	switch e.q.class {
	case classGroupBy, classJoin:
		for g := range e.cnt {
			if e.cnt[g] > 0 {
				rows = append(rows, []string{numText(int64(g)), numText(e.cnt[g]), numText(e.sum[g])})
			}
		}
	case classRange:
		s := "null"
		if e.cnt[0] > 0 {
			s = numText(e.sum[0])
		}
		rows = append(rows, []string{numText(e.cnt[0]), s})
	case classTopN:
		for _, id := range e.top {
			rows = append(rows, []string{numText(int64(id)), numText(int64(e.l.rows[id].V))})
		}
	}
	return canon(e.q.class, rows)
}

// readRec is one analytic read as the reader saw it: the ledger rows
// acknowledged before it was sent (lo) and sent before it completed (hi).
type readRec struct {
	q      readReq
	lo, hi int
	got    string
}

// verify checks that the read equals the answer over some ledger prefix
// between lo and hi rows.
func (rec readRec) verify(l *ledger) error {
	e := newExpect(l, rec.q)
	e.advance(rec.lo)
	for {
		if e.answer() == rec.got {
			return nil
		}
		if e.p >= rec.hi {
			break
		}
		e.advance(e.p + 1)
	}
	return fmt.Errorf("%s %q: result %q matches no ledger prefix in [%d,%d]", classNames[rec.q.class], rec.q.sql(), rec.got, rec.lo, rec.hi)
}

// fieldsText normalizes a pg text field: counts and integer-valued sums
// print as integers, NULL as "null".
func fieldsText(f [][]byte) ([]string, error) {
	out := make([]string, len(f))
	for i, b := range f {
		if b == nil {
			out[i] = "null"
			continue
		}
		x, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return nil, fmt.Errorf("field %q is not a number", b)
		}
		if x != float64(int64(x)) {
			return nil, fmt.Errorf("field %q is not an integer value", b)
		}
		out[i] = numText(int64(x))
	}
	return out, nil
}

// pgRead runs one read over pg and returns its canonical result.
func pgRead(c *pgConn, q readReq) (string, error) {
	var rows [][]string
	_, err := c.query(q.sql(), func(f [][]byte) error {
		r, err := fieldsText(f)
		rows = append(rows, r)
		return err
	})
	return canon(q.class, rows), err
}

// engineRead runs one read in process and returns its canonical result.
func engineRead(ctx context.Context, db *raven.DB, q readReq) (string, error) {
	rows, err := db.QueryContext(ctx, q.sql())
	if err != nil {
		return "", err
	}
	res, err := rows.Collect()
	if err != nil {
		return "", err
	}
	var out [][]string
	for i := 0; i < res.Batch.Len(); i++ {
		var f [][]byte
		for _, v := range res.Batch.Row(i) {
			if v == nil {
				f = append(f, nil)
				continue
			}
			f = append(f, []byte(fmt.Sprint(v)))
		}
		r, err := fieldsText(f)
		if err != nil {
			return "", err
		}
		out = append(out, r)
	}
	return canon(q.class, out), nil
}

func insertSQL(table string, first int, rows []event) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES ")
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d)", first+i, r.K, r.Grp, r.Cust, r.V)
	}
	return sb.String()
}

var eventsSchema = types.NewSchema(
	types.Column{Name: "id", Type: types.Int},
	types.Column{Name: "k", Type: types.Int},
	types.Column{Name: "grp", Type: types.Int},
	types.Column{Name: "cust", Type: types.Int},
	types.Column{Name: "v", Type: types.Float},
)

// loadEvents creates table name on cat and bulk-appends rows (ids from 0).
func loadEvents(cat *storage.Catalog, name string, rows []event) error {
	t := storage.NewTable(name, eventsSchema)
	if err := cat.AddTable(t); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	b := types.NewBatch(eventsSchema)
	for i, r := range rows {
		b.Vecs[0].Ints = append(b.Vecs[0].Ints, int64(i))
		b.Vecs[1].Ints = append(b.Vecs[1].Ints, int64(r.K))
		b.Vecs[2].Ints = append(b.Vecs[2].Ints, int64(r.Grp))
		b.Vecs[3].Ints = append(b.Vecs[3].Ints, int64(r.Cust))
		b.Vecs[4].Floats = append(b.Vecs[4].Floats, float64(r.V))
	}
	return t.AppendBatch(b)
}

func ingestOptions(dir string) []raven.Option {
	return append(servedOptions(),
		raven.WithDataDir(dir),
		raven.WithFsync(ingestFsync),
		raven.WithSegmentRows(ingestSegmentRows),
	)
}

type ingestStack struct {
	*stack
	dir  string
	conn *pgConn
}

func (s *ingestStack) close() error {
	s.conn.close()
	return s.stack.close()
}

type ingest struct {
	base    []event
	regions []int32
}

// setup builds a data directory from scratch (tables, base rows and the
// customers dimension, all WAL-logged and synced), drops the engine as a
// crash would, reopens it — which recovers it, replaying the load's WAL
// — starts both front ends, and waits for one correct analytic read over
// pg.
func (in *ingest) setup(ctx context.Context, dir string, rng *rand.Rand) (*ingestStack, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	db, err := raven.Open(ingestOptions(dir)...)
	if err != nil {
		return nil, 0, err
	}
	cat := db.Catalog()
	err = loadEvents(cat, "events", in.base)
	if err == nil {
		t := storage.NewTable("customers", types.NewSchema(
			types.Column{Name: "cust", Type: types.Int}, types.Column{Name: "region", Type: types.Int}))
		if err = cat.AddTable(t); err == nil {
			b := types.NewBatch(t.Schema())
			for c, g := range in.regions {
				b.Vecs[0].Ints = append(b.Vecs[0].Ints, int64(c))
				b.Vecs[1].Ints = append(b.Vecs[1].Ints, int64(g))
			}
			err = t.AppendBatch(b)
		}
	}
	if aerr := db.Abort(); err == nil {
		err = aerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	if db, err = raven.Open(ingestOptions(dir)...); err != nil {
		return nil, 0, fmt.Errorf("recover: %w", err)
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
	is := &ingestStack{st, dir, c}
	l := &ledger{rows: in.base, regions: in.regions}
	q := drawRead(rng, classGroupBy, len(in.base))
	got, err := pgRead(c, q)
	if err == nil {
		err = readRec{q: q, lo: len(in.base), hi: len(in.base), got: got}.verify(l)
	}
	if err != nil {
		is.close()
		return nil, 0, fmt.Errorf("first read: %w", err)
	}
	return is, time.Since(t0), nil
}

func runIngest(r *run) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed))
	in := &ingest{regions: customerRegions(r.seed + 1)}
	for i := 0; i < ingestBaseRows; i++ {
		in.base = append(in.base, genEvent(rng))
	}
	r.prov["tables"] = map[string]int{"events_base": ingestBaseRows, "customers": customers}
	r.prov["fsync"] = ingestFsync
	r.prov["segment_rows"] = ingestSegmentRows
	r.prov["insert_rows"] = ingestBatchRows
	r.prov["slo_limit_ms"] = ms(ingestSLO)
	r.prov["connections"] = map[string]int{"writer_http": 1, "reader_pg": 1}

	dirBase := filepath.Join(r.outDir, fmt.Sprintf("ingest-%d", os.Getpid()))
	defer os.RemoveAll(dirBase)
	var st *ingestStack
	var setups []float64
	for i := 0; i < ingestSetupReps; i++ {
		s, d, err := in.setup(ctx, filepath.Join(dirBase, strconv.Itoa(i)), rng)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
			os.RemoveAll(st.dir)
		}
		st = s
	}
	r.set("setup_s", median(setups))
	r.prov["setup_s_samples"] = setups

	l := &ledger{rows: append([]event(nil), in.base...), regions: in.regions}
	heap := startHeapSampler()
	steal := cpuTicks()
	stats0 := st.db.Stats()
	gc0 := readGC()
	ph := in.phase(ctx, r, st, l, rng, time.Duration(r.seconds*float64(time.Second)))
	gc1 := readGC()
	stats1 := st.db.Stats()
	steal.finish(r)
	heap.finish()
	r.heapPct(heap.windowPeakP90())
	diskBytes := dirSize(st.dir)

	r.windowPct("p50_ms", ph.readAt, ph.readLat, ph.dur, time.Second, 50)
	r.pct("p90_ms", ph.readLat, 90)
	r.notePct("p99_ms", ph.readLat, 99)
	r.notePct("insert_p50_ms", ph.insLat, 50)
	r.notePct("insert_p99_ms", ph.insLat, 99)
	r.set("qps", windowRate(ph.readAt, nil, ph.dur, rateWindow))
	r.set("rows_per_s", windowRate(ph.insAt, nil, ph.dur, rateWindow)*ingestBatchRows)
	r.prov["offered_insert_rows_per_s"] = ingestInsertRate * ingestBatchRows
	r.prov["writer_late_p99_ms"] = nearestRank(ph.insLate, 99)
	if q := len(ph.insLate) / 4; q > 0 {
		head, tail := mean(ph.insLate[:q]), mean(ph.insLate[len(ph.insLate)-q:])
		// The writer keeps up when its lateness does not grow across
		// the phase beyond a few INSERT intervals.
		if tail > 2*head+ms(5*time.Second/ingestInsertRate) {
			r.problem("ingest_analytics writer: lateness grew across the phase (first quarter mean %.2f ms, last quarter %.2f ms): the offered rate is above what the stack sustains", head, tail)
		}
	}
	r.note("ingest_rows_per_s", r.metrics["rows_per_s"].Value, "rows/s")
	r.set("slo_frac", float64(ph.readWithin)/float64(ph.readsTried))
	r.prov["reads"] = len(ph.readLat)
	r.prov["inserts"] = len(ph.insLat)
	r.prov["rows_at_end"] = len(l.rows)

	// Every concurrent read must match a ledger prefix between what was
	// acknowledged before it was sent and what was sent before it ended.
	for _, rec := range ph.reads {
		if err := rec.verify(l); err != nil {
			r.problem("ingest_analytics oracle: %v", err)
			r.mu.Lock()
			r.failed++
			r.mu.Unlock()
		}
	}

	// With the writer stopped, reads must be exact. Then the engine is
	// dropped as a crash would drop it: under fsync "always" every
	// acknowledged row is on disk, and reopening replays the phase's WAL.
	// Reads must be exact again after recovery, after a checkpoint, and
	// after a clean close and reopen.
	exact := func(read func(readReq) (string, error), when string) {
		for c := 0; c < numClasses; c++ {
			q := drawRead(rng, c, len(l.rows))
			got, err := read(q)
			if err == nil {
				err = readRec{q: q, lo: len(l.rows), hi: len(l.rows), got: got}.verify(l)
			}
			r.op(err != nil)
			if err != nil {
				r.problem("ingest_analytics %s: %v", when, err)
			}
		}
	}
	exact(func(q readReq) (string, error) { return pgRead(st.conn, q) }, "after the writer stopped")
	walRecords := uint64(0)
	if s := st.db.Stats().Storage; s != nil {
		walRecords = s.WalRecords
	}
	st.conn.close()
	if err := st.shutdown(); err != nil {
		return err
	}
	if err := st.db.Abort(); err != nil {
		return fmt.Errorf("abort: %w", err)
	}
	t0 := time.Now()
	db, err := raven.Open(ingestOptions(st.dir)...)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	recovered := time.Since(t0)
	r.prov["recovered_wal_records"] = walRecords
	exact(func(q readReq) (string, error) { return engineRead(ctx, db, q) }, "after crash recovery")
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	checkpoint := time.Since(t0)
	exact(func(q readReq) (string, error) { return engineRead(ctx, db, q) }, "after a checkpoint of the recovered engine")
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if db, err = raven.Open(ingestOptions(st.dir)...); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	exact(func(q readReq) (string, error) { return engineRead(ctx, db, q) }, "after close and reopen")

	if r.trace {
		r.goLayer(gc0, gc1, len(ph.readLat)+len(ph.insLat))
		schedLayer(r, stats0, stats1)
		cacheLayer(r, stats0, stats1)
		storageLayer(r, stats0, stats1, ph, len(l.rows), diskBytes)
		r.set("storage.checkpoint_ms", ms(checkpoint))
		r.set("storage.recover_ms", ms(recovered))
		if err := walProbe(r, filepath.Join(dirBase, "walprobe"), stats0, stats1); err != nil {
			db.Close()
			return err
		}
		if err := in.replay(ctx, r, db, l, rng); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

type ingestPhase struct {
	dur        time.Duration
	readAt     []time.Duration // read completion times from the phase start
	insAt      []time.Duration // insert acknowledgement times
	readLat    []float64
	readsTried int
	readWithin int
	reads      []readRec
	insLat     []float64 // ms from the due time
	insLate    []float64 // ms the writer sent after the due time
	insRows    int
}

// phase runs the writer and the reader side by side for dur.
func (in *ingest) phase(ctx context.Context, r *run, st *ingestStack, l *ledger, rng *rand.Rand, dur time.Duration) ingestPhase {
	var ph ingestPhase
	var sent, acked atomic.Int64
	sent.Store(int64(len(l.rows)))
	acked.Store(int64(len(l.rows)))
	wseed, rseed, aseed := rng.Int63(), rng.Int63(), rng.Int63()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: open loop over HTTP, one connection
		defer wg.Done()
		c, closeIdle := httpClient(st.httpBase)
		defer closeIdle()
		wrng := rand.New(rand.NewSource(wseed))
		arrivals := rand.New(rand.NewSource(aseed))
		batch := make([]event, ingestBatchRows)
		var next time.Duration
		for {
			// An INSERT that comes due while the previous one is still
			// out waits for it; its latency runs from the due time.
			next += time.Duration(arrivals.ExpFloat64() / ingestInsertRate * float64(time.Second))
			due := start.Add(next)
			if !due.Before(deadline) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late := ms(time.Since(due))
			for i := range batch {
				batch[i] = genEvent(wrng)
			}
			first := len(l.rows)
			l.rows = append(l.rows, batch...)
			sent.Store(int64(len(l.rows)))
			err := c.ExecContext(ctx, insertSQL("events", first, batch))
			d := dueLatency(due, time.Now())
			r.op(err != nil)
			if err != nil {
				// The rows may or may not have applied: the ledger can no
				// longer say what the table holds, so writing stops.
				r.problem("ingest_analytics insert: %v", err)
				return
			}
			acked.Store(int64(len(l.rows)))
			ph.insAt = append(ph.insAt, time.Since(start))
			ph.insLat = append(ph.insLat, ms(d))
			ph.insLate = append(ph.insLate, late)
			ph.insRows += ingestBatchRows
		}
	}()
	go func() { // reader: closed loop over pg
		defer wg.Done()
		rrng := rand.New(rand.NewSource(rseed))
		for k := 0; time.Now().Before(deadline); k++ {
			lo := int(acked.Load())
			q := drawRead(rrng, k%numClasses, lo)
			t0 := time.Now()
			got, err := pgRead(st.conn, q)
			d := time.Since(t0)
			hi := int(sent.Load())
			ph.readsTried++
			r.op(err != nil)
			if err != nil {
				r.problem("ingest_analytics read: %v", err)
				continue
			}
			ph.readAt = append(ph.readAt, time.Since(start))
			ph.readLat = append(ph.readLat, ms(d))
			if d <= ingestSLO {
				ph.readWithin++
			}
			ph.reads = append(ph.reads, readRec{q: q, lo: lo, hi: hi, got: got})
		}
	}()
	wg.Wait()
	ph.dur = dur
	return ph
}

// storageLayer reports the durable backend's figures over the phase.
func storageLayer(r *run, a, b raven.Stats, ph ingestPhase, rows int, disk int64) {
	if a.Storage == nil || b.Storage == nil {
		return
	}
	user := float64(ph.insRows * ingestUserBytes)
	cps := b.Storage.Checkpoints - a.Storage.Checkpoints
	r.prov["checkpoints_during_phase"] = cps
	if cps == 0 && user > 0 {
		// A checkpoint rotates the log, so the live WAL size is only a
		// byte count of the phase when none ran.
		r.set("storage.wal_bytes_per_user_byte", float64(b.Storage.WalBytes-a.Storage.WalBytes)/user)
	}
	if n := len(ph.insLat); n > 0 {
		r.set("storage.wal_records_per_insert", float64(b.Storage.WalRecords-a.Storage.WalRecords)/float64(n))
	}
	r.set("storage.sealed_frac", float64(b.Storage.SealedRows)/float64(rows))
	r.set("storage.disk_bytes_per_user_byte", float64(disk)/float64(rows*ingestUserBytes))
	r.prov["disk_bytes"] = disk
}

// walProbe times Append (which syncs, under fsync "always") on a scratch
// log, with records of the phase's mean WAL record size.
func walProbe(r *run, dir string, a, b raven.Stats) error {
	size := 2048
	if a.Storage != nil && b.Storage != nil {
		if n := b.Storage.WalRecords - a.Storage.WalRecords; n > 0 && b.Storage.WalBytes > a.Storage.WalBytes {
			size = int(uint64(b.Storage.WalBytes-a.Storage.WalBytes) / n)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "probe.log"), wal.Options{Policy: wal.FsyncAlways})
	if err != nil {
		return err
	}
	payload := make([]byte, size)
	var lat []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := log.Append(1, payload); err != nil {
			log.Close()
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	r.set("wal.append_sync_us", median(lat))
	r.prov["wal_probe_record_bytes"] = size
	return log.Close()
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// replay re-runs a sample of reads and inserts one at a time, layer by
// layer, on the reopened engine behind fresh front ends. Inserts go to a
// separate table, events_replay, so the ledger stays exact.
func (in *ingest) replay(ctx context.Context, r *run, db *raven.DB, l *ledger, rng *rand.Rand) error {
	st, err := serve(db)
	if err != nil {
		return err
	}
	defer st.shutdown()
	conn, err := dialPG(ctx, st.pgAddr, "perfbench")
	if err != nil {
		return err
	}
	defer conn.close()
	hc, closeIdle := httpClient(st.httpBase)
	defer closeIdle()
	if err := loadEvents(db.Catalog(), "events_replay", nil); err != nil {
		return err
	}
	t := newTracer()
	metas := map[int]*reqMeta{}
	var untraced []float64
	req := 0
	for i := 0; i < ingestReplayRead*numClasses; i++ {
		plain := drawRead(rng, i%numClasses, len(l.rows))
		untracedWire := func() error {
			return untracedCall(&untraced, func() error {
				_, err := pgRead(conn, plain)
				return err
			})
		}
		if i%2 == 0 {
			if err := untracedWire(); err != nil {
				return err
			}
		}
		q := drawRead(rng, i%numClasses, len(l.rows))

		m := &reqMeta{wire: "wire.pg", class: classNames[q.class]}
		metas[req] = m
		runtime.GC()
		root := t.start(req, -1, "request")
		var got string
		if _, err := t.timed(req, root, "wire.pg", func() error {
			var err error
			got, err = pgRead(conn, q)
			return err
		}); err != nil {
			return err
		}
		var engine fingerprint
		// The trailing space gives the in-process call its own plan-cache
		// key: like the wire call before it, it compiles from scratch.
		if err := engineCall(t, req, root, func() (*raven.Rows, error) { return db.QueryContext(ctx, q.sql()+" ") }, &engine, m); err != nil {
			return err
		}
		m.wireRows = engine.Rows
		if err := decomposedCall(ctx, db, t, req, root, q.sql(), q.sql(), engine, m); err != nil {
			r.problem("ingest_analytics replay: %v", err)
			return nil
		}
		if _, err := t.timed(req, root, "bench.check", func() error {
			return readRec{q: q, lo: len(l.rows), hi: len(l.rows), got: got}.verify(l)
		}); err != nil {
			r.problem("ingest_analytics replay oracle: %v", err)
		}
		t.stop(root)
		if i%2 == 1 {
			if err := untracedWire(); err != nil {
				return err
			}
		}
		req++
	}
	wrng := rand.New(rand.NewSource(rng.Int63()))
	next := 0
	batch := make([]event, ingestBatchRows)
	insert := func() string {
		for i := range batch {
			batch[i] = genEvent(wrng)
		}
		next += ingestBatchRows
		return insertSQL("events_replay", next-ingestBatchRows, batch)
	}
	for i := 0; i < ingestReplayIns; i++ {
		untracedWire := func() error {
			return untracedCall(&untraced, func() error { return hc.ExecContext(ctx, insert()) })
		}
		if i%2 == 0 {
			if err := untracedWire(); err != nil {
				return err
			}
		}
		metas[req] = &reqMeta{wire: "wire.http", insert: true}
		runtime.GC()
		root := t.start(req, -1, "request")
		if _, err := t.timed(req, root, "wire.http", func() error { return hc.ExecContext(ctx, insert()) }); err != nil {
			return err
		}
		benchGC(t, req, root)
		if _, err := t.timed(req, root, "engine", func() error { return db.ExecContext(ctx, insert()) }); err != nil {
			return err
		}
		t.stop(root)
		if i%2 == 1 {
			if err := untracedWire(); err != nil {
				return err
			}
		}
		req++
	}
	return finishTrace(r, t, metas, untraced)
}
