package main

import (
	"fmt"
	"math/rand"

	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/train"
	"raven/internal/types"
)

// Everything the program under test receives is made here: table rows
// and request parameters from the run's seed, trained models from
// modelSeed. The models are part of a workload's definition: a tree
// ensemble's size, and with it the cost of scoring it, varies with its
// training sample, so a per-run model would make runs on different seeds
// measure different work. Training belongs to the generator, so it runs
// before any timer starts.

// modelSeed seeds every training sample and learner.
const modelSeed = 1

// hospitalFeatures is the model input order over the 3-way join.
var hospitalFeatures = data.HospitalFeatureCols

// hospitalIDStride spaces patient ids out so that the key ranges the
// online workload draws practically never repeat: ids are increasing,
// one per stride, at a random offset inside it.
const hospitalIDStride = 1000

// hospital is the generated 3-table hospital dataset and its model.
type hospital struct {
	IDs   []int64
	Feats ml.Matrix // one row per patient, hospitalFeatures order
	Model *ml.Pipeline
	// Ref is the interpreted pipeline's score per row (the oracle).
	Ref []float64
}

// tableFeatures copies the named float or int columns of the tables in
// cat into one row-major matrix, in cols order.
func tableFeatures(cat *storage.Catalog, tables []string, cols []string) (ml.Matrix, error) {
	var m ml.Matrix
	for _, name := range tables {
		t, err := cat.Table(name)
		if err != nil {
			return m, err
		}
		b, err := t.Scan()
		if err != nil {
			return m, err
		}
		if m.Data == nil {
			m = ml.Matrix{Data: make([]float64, b.Len()*len(cols)), Rows: b.Len(), Cols: len(cols)}
		}
		for j, c := range cols {
			k := b.Schema.IndexOf(c)
			if k < 0 {
				continue
			}
			v := b.Vecs[k]
			for i := 0; i < m.Rows; i++ {
				if v.Type == types.Int {
					m.Data[i*m.Cols+j] = float64(v.Ints[i])
				} else {
					m.Data[i*m.Cols+j] = v.Floats[i]
				}
			}
		}
	}
	return m, nil
}

// genHospital draws n patients from the paper's hospital generator
// (internal/data) on seed, re-keys them with strided ids, and trains the
// forest on the generator's fixed-seed training sample.
func genHospital(seed int64, n, trees int) (*hospital, error) {
	scratch := storage.NewCatalog()
	if _, err := data.GenHospital(scratch, n, 0, seed); err != nil {
		return nil, err
	}
	feats, err := tableFeatures(scratch, []string{"patient_info", "blood_tests", "prenatal_tests"}, hospitalFeatures)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 2)) // not the feature stream's seed
	h := &hospital{IDs: make([]int64, n), Feats: feats}
	for i := range h.IDs {
		h.IDs[i] = int64(i)*hospitalIDStride + rng.Int63n(hospitalIDStride)
	}
	ts, err := data.GenHospital(storage.NewCatalog(), 0, 2000, modelSeed)
	if err != nil {
		return nil, err
	}
	rf := train.FitForest(ts.TrainX, ts.TrainY, train.ForestOptions{
		NumTrees: trees, Seed: modelSeed + 1,
		Tree: train.TreeOptions{MaxDepth: 8, MinLeaf: 10},
	})
	h.Model = &ml.Pipeline{Final: rf, InputColumns: hospitalFeatures}
	ref, err := h.Model.Predict(h.Feats)
	if err != nil {
		return nil, fmt.Errorf("reference scores: %w", err)
	}
	h.Ref = ref
	return h, nil
}

// load registers patient_info, blood_tests and prenatal_tests in cat,
// each with unique key id, exactly as a bulk loader would.
func (h *hospital) load(cat *storage.Catalog) error {
	col := func(name string, t types.DataType) types.Column { return types.Column{Name: name, Type: t} }
	specs := []struct {
		name string
		cols []types.Column
		feat []int // feature ordinals, in column order after id
	}{
		{"patient_info", []types.Column{col("id", types.Int), col("age", types.Float), col("pregnant", types.Int), col("gender", types.Int), col("weight", types.Float)}, []int{1, 0, 2, 3}},
		{"blood_tests", []types.Column{col("id", types.Int), col("bp", types.Float), col("glucose", types.Float), col("hematocrit", types.Float)}, []int{4, 5, 6}},
		{"prenatal_tests", []types.Column{col("id", types.Int), col("fetal_hr", types.Float), col("amnio", types.Float)}, []int{7, 8}},
	}
	for _, sp := range specs {
		sch := types.NewSchema(sp.cols...)
		b := types.NewBatch(sch)
		b.Vecs[0].AppendInts(h.IDs)
		for k, f := range sp.feat {
			v := b.Vecs[k+1]
			for i := 0; i < h.Feats.Rows; i++ {
				x := h.Feats.At(i, f)
				if v.Type == types.Int {
					v.Ints = append(v.Ints, int64(x))
				} else {
					v.Floats = append(v.Floats, x)
				}
			}
		}
		t := storage.NewTable(sp.name, sch)
		if err := t.AppendBatch(b); err != nil {
			return fmt.Errorf("load %s: %w", sp.name, err)
		}
		if err := cat.AddTable(t); err != nil {
			return err
		}
		if err := cat.SetUniqueKey(sp.name, "id"); err != nil {
			return err
		}
	}
	return nil
}

// flights is the generated wide flights_features table and the three
// model shapes the batch workload scores it with.
type flights struct {
	Cols   []string  // f0..f{d-1}
	Feats  ml.Matrix // row i has id i
	Models map[string]*ml.Pipeline
	Ref    map[string][]float64 // interpreted score per id, by shape
}

// shapes is the batch workload's job cycle.
var shapes = []string{"forest", "linear", "pipeline"}

// genFlights draws n rows of the paper's wide flights generator
// (internal/data) on seed, and trains the three model shapes on the
// generator's fixed-seed training sample, whose sparse logistic labels
// make L1 training yield a genuinely sparse linear model.
func genFlights(seed int64, n, d, forestTrees int) (*flights, error) {
	scratch := storage.NewCatalog()
	gen, err := data.GenFlightsWide(scratch, n, d, d/3, 0, seed)
	if err != nil {
		return nil, err
	}
	fl := &flights{Cols: gen.FeatureCols}
	if fl.Feats, err = tableFeatures(scratch, []string{"flights_features"}, fl.Cols); err != nil {
		return nil, err
	}
	ts, err := data.GenFlightsWide(storage.NewCatalog(), 0, d, d/3, 2000, modelSeed)
	if err != nil {
		return nil, err
	}
	tx, ty := ts.TrainX, ts.TrainY

	forest := train.FitForest(tx, ty, train.ForestOptions{
		NumTrees: forestTrees, Seed: modelSeed + 1,
		Tree: train.TreeOptions{MaxDepth: 8, MinLeaf: 10},
	})
	linear := train.FitLogReg(tx, ty, train.LogRegOptions{L1: 0.02, Epochs: 60, Seed: modelSeed + 2})

	// pipeline: one-hot the first binary columns, standardize, then a
	// logistic regression over the featurized matrix.
	var cat []int
	for j := 1; j < d && len(cat) < 8; j++ {
		if j%5 != 0 {
			cat = append(cat, j)
		}
	}
	enc := ml.FitOneHot(tx, cat)
	encX, err := enc.Transform(tx)
	if err != nil {
		return nil, err
	}
	sc := ml.FitScaler(encX)
	scX, err := sc.Transform(encX)
	if err != nil {
		return nil, err
	}
	plr := train.FitLogReg(scX, ty, train.LogRegOptions{L1: 0.01, Epochs: 60, Seed: modelSeed + 3})

	fl.Models = map[string]*ml.Pipeline{
		"forest":   {Final: forest, InputColumns: fl.Cols},
		"linear":   {Final: linear, InputColumns: fl.Cols},
		"pipeline": {Steps: []ml.Transformer{enc, sc}, Final: plr, InputColumns: fl.Cols},
	}
	fl.Ref = make(map[string][]float64, len(shapes))
	for _, s := range shapes {
		ref, err := fl.Models[s].Predict(fl.Feats)
		if err != nil {
			return nil, fmt.Errorf("reference %s scores: %w", s, err)
		}
		fl.Ref[s] = ref
	}
	return fl, nil
}

// load registers flights_features (id + d float features, unique id).
func (fl *flights) load(cat *storage.Catalog) error {
	cols := []types.Column{{Name: "id", Type: types.Int}}
	for _, c := range fl.Cols {
		cols = append(cols, types.Column{Name: c, Type: types.Float})
	}
	sch := types.NewSchema(cols...)
	b := types.NewBatch(sch)
	n, d := fl.Feats.Rows, fl.Feats.Cols
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	b.Vecs[0].AppendInts(ids)
	for j := 0; j < d; j++ {
		v := b.Vecs[j+1]
		v.Floats = make([]float64, n)
		for i := 0; i < n; i++ {
			v.Floats[i] = fl.Feats.Data[i*d+j]
		}
	}
	t := storage.NewTable("flights_features", sch)
	if err := t.AppendBatch(b); err != nil {
		return err
	}
	if err := cat.AddTable(t); err != nil {
		return err
	}
	return cat.SetUniqueKey("flights_features", "id")
}

// event is one row of the ingest workload's events table. All values
// are small integers, so SUMs are exact in float64 whatever order the
// engine adds them in, and the ledger can be compared exactly.
type event struct {
	K, Grp, Cust, V int32
}

const (
	eventGroups   = 16
	eventKeySpace = 1_000_000
	customers     = 512
	regions       = 8
)

func genEvent(rng *rand.Rand) event {
	return event{
		K:    int32(rng.Intn(eventKeySpace)),
		Grp:  int32(rng.Intn(eventGroups)),
		Cust: int32(rng.Intn(customers)),
		V:    int32(rng.Intn(1000)),
	}
}

// customerRegions is the static dimension table: region by customer.
func customerRegions(seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, customers)
	for i := range out {
		out[i] = int32(rng.Intn(regions))
	}
	return out
}
