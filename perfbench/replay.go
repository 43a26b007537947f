package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"raven"
	"raven/internal/codegen"
	"raven/internal/exec"
	"raven/internal/ir"
	"raven/internal/plan"
	"raven/internal/relopt"
	"raven/internal/rt"
	"raven/internal/sql"
	"raven/internal/types"
	"raven/internal/xopt"
)

// fingerprint is an order-independent digest of a result: the row count
// and the wrapping sum of per-row hashes over typed values. Parallel
// plans may deliver rows in any order; the digest does not care.
type fingerprint struct {
	Rows int
	Sum  uint64
}

func (f *fingerprint) addBatch(b *types.Batch) {
	n := b.Len()
	for i := 0; i < n; i++ {
		h := uint64(len(b.Vecs))
		for _, v := range b.Vecs {
			var x uint64
			switch {
			case v.IsNull(i):
				x = 0x9e3779b97f4a7c15
			case v.Type == types.Int:
				x = uint64(v.IntAt(i))
			case v.Type == types.Float:
				x = math.Float64bits(v.FloatAt(i))
			case v.Type == types.Bool:
				if v.BoolAt(i) {
					x = 1
				}
			default:
				hs := fnv.New64a()
				hs.Write([]byte(v.StringAt(i)))
				x = hs.Sum64()
			}
			h = mix64(h ^ mix64(x))
		}
		f.Sum += h
	}
	f.Rows += n
}

// decomposed is the engine's ad-hoc compile sequence run step by step
// from outside, each step in its own span: parse → bind → IR →
// optimize (default rule set) → lower. It mirrors DB.planFor /
// buildPlan / lower in raven.go; the replay checks its result
// fingerprint against the engine's for the same request, so the copy
// cannot silently drift from the original.
type decomposed struct {
	op      exec.Operator
	applied []string
}

// compileDecomposed compiles q. keySQL is the text the engine hashes
// into the inference-session key: the query itself for ad-hoc SQL, the
// statement template for a prepared statement.
func compileDecomposed(ctx context.Context, db *raven.DB, t *tracer, req, parent int, q, keySQL string) (*decomposed, error) {
	var sel *sql.SelectStmt
	if _, err := t.timed(req, parent, "sql.parse", func() error {
		stmts, err := sql.ParseScript(q)
		if err != nil {
			return err
		}
		if len(stmts) != 1 {
			return fmt.Errorf("want one statement, got %d", len(stmts))
		}
		var ok bool
		if sel, ok = stmts[0].(*sql.SelectStmt); !ok {
			return fmt.Errorf("want a SELECT, got %T", stmts[0])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var logical plan.Node
	if _, err := t.timed(req, parent, "plan.bind", func() error {
		var err error
		logical, err = plan.NewBinder(db.Catalog()).BindSelect(sel)
		return err
	}); err != nil {
		return nil, err
	}
	sessionKey := modelHash(db, logical)
	var graph *ir.Graph
	if _, err := t.timed(req, parent, "ir.build", func() error {
		var err error
		graph, err = ir.FromPlan(logical, db.LoadModel)
		return err
	}); err != nil {
		return nil, err
	}
	d := &decomposed{}
	if _, err := t.timed(req, parent, "xopt.optimize", func() error {
		res, err := xopt.Optimize(graph, xopt.DefaultOptions(&relopt.Optimizer{Catalog: db.Catalog(), AssumeRI: true}))
		if err != nil {
			return err
		}
		graph, d.applied = res.Graph, res.Applied
		return nil
	}); err != nil {
		return nil, err
	}
	if sessionKey != "" && len(d.applied) > 0 {
		sum := sha256.Sum256([]byte(keySQL))
		sessionKey += "#" + hex.EncodeToString(sum[:8])
	}
	if _, err := t.timed(req, parent, "codegen.lower", func() error {
		var err error
		d.op, err = codegen.Compile(graph, &codegen.Config{
			Runtime:     db.Runtime(),
			Ctx:         ctx,
			Mode:        rt.ModeInProcess,
			Parallelism: db.DefaultParallelism,
			CacheKey:    sessionKey,
		})
		return err
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// modelHash is the stored hash of the plan's first PREDICT model — the
// base of the engine's inference-session key.
func modelHash(db *raven.DB, n plan.Node) string {
	if p, ok := n.(*plan.Predict); ok {
		if m, err := db.Catalog().Models.Latest(p.ModelName); err == nil {
			return m.Hash
		}
		return ""
	}
	for _, c := range n.Children() {
		if k := modelHash(db, c); k != "" {
			return k
		}
	}
	return ""
}

// drain runs an operator to exhaustion, fingerprinting its output.
func drain(op exec.Operator) (fingerprint, error) {
	var fp fingerprint
	if err := op.Open(); err != nil {
		return fp, err
	}
	for {
		b, err := op.Next()
		if err != nil {
			op.Close()
			return fp, err
		}
		if b == nil {
			break
		}
		fp.addBatch(b)
	}
	return fp, op.Close()
}

// engineCall runs one in-process engine call inside an "engine" span,
// after benchGC: "engine.open" covers the call that returns Rows
// (admission, binding, lowering), "engine.drain" the collection of
// every row.
func engineCall(t *tracer, req, parent int, call func() (*raven.Rows, error), fp *fingerprint, m *reqMeta) error {
	benchGC(t, req, parent)
	cpu0 := cpuTime()
	eng := t.start(req, parent, "engine")
	var rows *raven.Rows
	if _, err := t.timed(req, eng, "engine.open", func() error {
		var err error
		rows, err = call()
		return err
	}); err != nil {
		return err
	}
	if _, err := t.timed(req, eng, "engine.drain", func() error {
		res, err := rows.Collect()
		if err != nil {
			return err
		}
		fp.addBatch(res.Batch)
		return nil
	}); err != nil {
		return err
	}
	t.stop(eng)
	m.engineCPU = cpuTime() - cpu0
	return nil
}

// decomposedCall compiles q step by step, drains it, and checks its
// fingerprint against the engine's result for the same request. It
// records the rules the optimizer applied and the scoring path it chose.
func decomposedCall(ctx context.Context, db *raven.DB, t *tracer, req, parent int, q, keySQL string, want fingerprint, m *reqMeta) error {
	cid := t.start(req, parent, "compile")
	d, err := compileDecomposed(ctx, db, t, req, cid, q, keySQL)
	if err != nil {
		return fmt.Errorf("decomposed compile: %w", err)
	}
	m.rules = d.applied
	m.chosen = "interp"
	if slices.Contains(d.applied, "nn-translation") {
		m.chosen = "nn"
	}
	t.stop(cid)
	var got fingerprint
	if _, err := t.timed(req, parent, "exec.drain", func() error {
		var err error
		got, err = drain(d.op)
		return err
	}); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("decomposed replay drifted from the engine: fingerprint %+v, engine %+v, for %s", got, want, q)
	}
	return nil
}
