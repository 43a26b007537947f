package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	p99 := nearestRank(xs, 99)
	if p99.Value != 990 || p99.Beyond != 10 || !p99.OK {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", p99)
	}
	if p50 := nearestRank(xs, 50); p50.Value != 500 || p50.Beyond != 500 {
		t.Fatalf("p50 of 1..1000 = %+v, want 500", p50)
	}
	// 999 samples leave only 9 beyond the p99 rank: not reportable.
	if q := nearestRank(xs[:999], 99); q.OK || q.Beyond != 9 {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and not OK", q)
	}
	// Nearest rank rounds the rank up: p99 of 6 samples is the maximum.
	if q := nearestRank([]float64{3, 1, 2, 6, 5, 4}, 99); q.Value != 6 || q.OK {
		t.Fatalf("p99 of 6 samples = %+v, want the max, not OK", q)
	}
	if q := nearestRank(nil, 50); q.N != 0 || q.OK {
		t.Fatalf("empty sample = %+v", q)
	}
	if xs[0] != 1000 {
		t.Fatal("nearestRank sorted its input in place")
	}
}

func TestDueLatency(t *testing.T) {
	start := time.Unix(100, 0)
	due := start.Add(10 * time.Millisecond)
	// A request that waited 30 ms for a busy connection and then took
	// 5 ms is 35 ms late from its due time, not 5.
	sent := due.Add(30 * time.Millisecond)
	done := sent.Add(5 * time.Millisecond)
	if got := dueLatency(due, done); got != 35*time.Millisecond {
		t.Fatalf("dueLatency = %v, want 35ms", got)
	}
	if got := ms(dueLatency(due, done)); got != 35 {
		t.Fatalf("ms = %v, want 35", got)
	}
}

func TestWindowStatistics(t *testing.T) {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	// Three whole 1-s windows holding 2, 4 and 3 events; the event at
	// 3.5 s falls in the partial fourth window and is not counted.
	at := []time.Duration{sec(0.1), sec(0.9), sec(1.0), sec(1.2), sec(1.5), sec(1.9), sec(2.0), sec(2.5), sec(2.7), sec(3.5)}
	if got := windowRate(at, nil, sec(3.6), time.Second); got != 3 {
		t.Fatalf("windowRate = %v, want the median window count 3", got)
	}
	w := []float64{10, 10, 1, 1, 1, 1, 5, 5, 5, 100}
	if got := windowRate(at, w, sec(3.6), time.Second); got != 15 {
		t.Fatalf("weighted windowRate = %v, want 15", got)
	}
	// Three whole 1-s windows of 100 requests each (5 ms, except for a
	// 15% tail of 20 ms) and a partial fourth. A burst of slow requests
	// confined to the second window does not move the median of the
	// window percentiles, and the partial window is not counted.
	var bat []time.Duration
	var blat []float64
	for k := 0; k < 3; k++ {
		for i := 0; i < 100; i++ {
			x := 5.0
			if i >= 85 {
				x = 20
			}
			if k == 1 {
				x = 500
			}
			bat = append(bat, sec(float64(k)+float64(i)/100))
			blat = append(blat, x)
		}
	}
	bat, blat = append(bat, sec(3.5)), append(blat, 999)
	if got, n := windowPctl(bat, blat, sec(3.6), time.Second, 50); got != 5 || n != 3 {
		t.Fatalf("window p50 = %v over %d windows, want 5 over 3", got, n)
	}
	if got, n := windowPctl(bat, blat, sec(3.6), time.Second, 85); got != 5 || n != 3 {
		t.Fatalf("window p85 = %v over %d windows, want 5 over 3", got, n)
	}
	if got, n := windowPctl(bat, blat, sec(3.6), time.Second, 90); got != 20 || n != 3 {
		t.Fatalf("window p90 = %v over %d windows, want 20 over 3", got, n)
	}
	// 100 samples leave 9 beyond the p91 rank, so at p91 every window
	// is skipped: there is no reportable percentile.
	if got, n := windowPctl(bat, blat, sec(3.6), time.Second, 91); n != 0 || got != 0 {
		t.Fatalf("window p91 = %v over %d windows, want none", got, n)
	}
}

func TestHeapPeaks(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	h := &heapSampler{stopped: ms(1100)}
	for i := 0; i < 110; i++ {
		h.at = append(h.at, ms(10*i))
		x := 10.0
		if i == 47 {
			x = 40 // one stretch needs more memory
		}
		h.mb = append(h.mb, x)
	}
	got := h.peaks([]time.Duration{0, ms(300), ms(600), ms(1000)})
	if len(got) != 3 || got[0] != 10 || got[1] != 40 || got[2] != 10 {
		t.Fatalf("peaks = %v, want [10 40 10]", got)
	}
	// 110 windows of 10 ms, one of which saw the 40 MB peak: a p90
	// with 11 window peaks beyond it reads the common peak.
	if q := h.windowPeakP90(); q.N != heapWindows || !q.OK || q.Value != 10 {
		t.Fatalf("windowPeakP90 = %+v, want %d windows, value 10", q, heapWindows)
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	iv := []interval{{0, 10}, {5, 15}, {20, 25}, {24, 30}, {40, 41}}
	if got := unionLen(iv); got != 15+10+1 {
		t.Fatalf("unionLen = %d, want 26", got)
	}
	parent := interval{0, 100}
	children := []interval{{10, 40}, {30, 50}, {60, 70}}
	if got := selfTime(parent, children); got != 100-40-10 {
		t.Fatalf("selfTime = %d, want 50 (overlapping children count once)", got)
	}
	// Parts of a child outside the parent are not subtracted.
	if got := selfTime(interval{10, 20}, []interval{{0, 15}}); got != 5 {
		t.Fatalf("selfTime with a clipped child = %d, want 5", got)
	}
}

func TestAnalyzeSpans(t *testing.T) {
	spans := []span{
		{Req: 0, ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{Req: 0, ID: 1, Parent: 0, Name: "wire.http", Start: 0, End: 40},
		{Req: 0, ID: 2, Parent: 0, Name: "engine", Start: 41, End: 80},
		{Req: 0, ID: 3, Parent: 2, Name: "engine.open", Start: 41, End: 50},
		{Req: 0, ID: 4, Parent: 2, Name: "engine.drain", Start: 50, End: 78},
	}
	trees, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	tr := trees[0]
	if self, _ := tr.selfOf("engine"); self != 2 {
		t.Fatalf("engine self = %v, want 2", self)
	}
	if f := tr.unattributed(); math.Abs(f-0.21) > 1e-12 {
		t.Fatalf("unattributed = %v, want 0.21", f)
	}

	outside := append([]span(nil), spans...)
	outside[4].End = 90 // drain outlives its engine span
	if _, err := analyze(outside); err == nil {
		t.Fatal("a child outside its parent passed the integrity check")
	}
	overlap := append([]span(nil), spans...)
	overlap = append(overlap, span{Req: 0, ID: 5, Parent: 0, Name: "compile", Start: 30, End: 60})
	if _, err := analyze(overlap); err == nil {
		t.Fatal("overlapping siblings (self times summing past the root) passed the integrity check")
	}
}

func TestULPAndChecksum(t *testing.T) {
	x := 0.3
	next := math.Nextafter(x, 1)
	if ulpDiff(x, x) != 0 || ulpDiff(x, next) != 1 || ulpDiff(next, x) != 1 {
		t.Fatal("ulpDiff of adjacent floats is not 1")
	}
	if ulpDiff(-0.0, 0.0) != 0 || ulpDiff(math.Nextafter(0, -1), math.Nextafter(0, 1)) != 2 {
		t.Fatal("ulpDiff across zero is wrong")
	}

	ref := []float64{0.1, 0.2, 0.3, 0.4}
	want := wantSum(ref)
	check := func(rows [][2]float64, maxULP uint64) error {
		o := &scoreOracle{Ref: ref, MaxULP: maxULP}
		for _, r := range rows {
			o.add(int64(r[0]), r[1])
		}
		return o.verdict(want)
	}
	// Any order of the exact rows passes.
	if err := check([][2]float64{{3, 0.4}, {0, 0.1}, {2, 0.3}, {1, 0.2}}, 0); err != nil {
		t.Fatal(err)
	}
	// A score one ulp off passes only under a bound that allows it.
	off := [][2]float64{{0, 0.1}, {1, math.Nextafter(0.2, 1)}, {2, 0.3}, {3, 0.4}}
	if err := check(off, 0); err == nil {
		t.Fatal("a score 1 ulp off passed with MaxULP 0")
	}
	if err := check(off, 1); err != nil {
		t.Fatal(err)
	}
	// A duplicated id in place of a missing one keeps the count but not
	// the checksum.
	if err := check([][2]float64{{0, 0.1}, {1, 0.2}, {1, 0.2}, {3, 0.4}}, 0); err == nil {
		t.Fatal("a duplicated row passed")
	}
	if err := check([][2]float64{{0, 0.1}, {1, 0.2}, {2, 0.3}}, 0); err == nil {
		t.Fatal("a missing row passed")
	}
	if err := check([][2]float64{{0, 0.1}, {1, 0.2}, {2, 0.3}, {9, 0.4}}, 0); err == nil {
		t.Fatal("an id outside the table passed")
	}
}

func TestLedgerPrefixOracle(t *testing.T) {
	l := &ledger{regions: []int32{0, 1}}
	for i := 0; i < 10; i++ {
		l.rows = append(l.rows, event{K: int32(i), Grp: int32(i % 2), Cust: int32(i % 2), V: int32(10 * i)})
	}
	q := readReq{class: classRange, a: 2, b: 8}
	// Over the first 5 rows, ids 2..4 match: count 3, sum 20+30+40.
	rec := readRec{q: q, lo: 4, hi: 6, got: canon(classRange, [][]string{{"3", "90"}})}
	if err := rec.verify(l); err != nil {
		t.Fatal(err)
	}
	// The same answer is outside the bounds once 6 rows were acknowledged.
	rec.lo, rec.hi = 6, 8
	if err := rec.verify(l); err == nil {
		t.Fatal("a read older than the acknowledged prefix passed")
	}
	top := readReq{class: classTopN, a: 100, b: 1, n: 2}
	rec = readRec{q: top, lo: 10, hi: 10, got: canon(classTopN, [][]string{{"9", "90"}, {"7", "70"}})}
	if err := rec.verify(l); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a, b := pairHash(1, 0.5)+pairHash(2, 0.25), pairHash(2, 0.25)+pairHash(1, 0.5)
	if a != b {
		t.Fatal("checksum depends on row order")
	}
	if pairHash(1, 0.5)+pairHash(2, 0.25) == pairHash(1, 0.25)+pairHash(2, 0.5) {
		t.Fatal("checksum does not tie scores to ids")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists the
// program reports in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	want := map[string]bool{"online_score": true, "batch_score": true, "ingest_analytics": true}
	for _, w := range b.Workloads {
		if !want[w.Name] {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
		delete(want, w.Name)
	}
	for w := range want {
		t.Errorf("workload %s missing from BENCHMARK.json", w)
	}
}
