package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, so it is not reported.
const minBeyond = 10

// pctl is one nearest-rank percentile of a latency sample.
type pctl struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	// OK is false when fewer than minBeyond samples lie above the rank;
	// such a percentile must not be reported.
	OK bool `json:"ok"`
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the value at rank ceil(p/100 * n) of the sorted
// sample. xs need not be sorted; it is not modified.
func nearestRank(xs []float64, p float64) pctl {
	n := len(xs)
	if n == 0 {
		return pctl{P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	return pctl{P: p, Value: s[rank-1], N: n, Beyond: beyond, OK: beyond >= minBeyond}
}

// median is the plain middle value (mean of the two middles for an
// even count); used to fold repeated measurements, not for latency
// percentiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dueLatency is the open-loop latency of one request: from the time it
// was due to be sent, not from when a connection picked it up, so the
// wait a stall imposes on the requests queued behind it is counted.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// rateWindow is the width of the windows throughput is counted in.
const rateWindow = time.Second

// windowRate is a throughput that a burst of interference on a shared
// host moves little: the median, over the whole windows of length w that
// fit in span, of the weight of the events completing in each window
// per second. at[i] is event i's completion time from the phase start;
// a nil weight counts every event as 1.
func windowRate(at []time.Duration, weight []float64, span, w time.Duration) float64 {
	n := int(span / w)
	if n == 0 {
		return 0
	}
	sums := make([]float64, n)
	for i, t := range at {
		if k := int(t / w); k >= 0 && k < n {
			if weight == nil {
				sums[k]++
			} else {
				sums[k] += weight[i]
			}
		}
	}
	for k := range sums {
		sums[k] /= w.Seconds()
	}
	return median(sums)
}

// windowCounts is how many events complete in each whole window of
// length w in span.
func windowCounts(at []time.Duration, span, w time.Duration) []int {
	out := make([]int, int(span/w))
	for _, t := range at {
		if k := int(t / w); k >= 0 && k < len(out) {
			out[k]++
		}
	}
	return out
}

// windowPctl is a latency percentile that a burst of interference moves
// little: the median, over the whole windows of length w in span, of
// each window's nearest-rank p-th percentile. A window with fewer than
// minBeyond samples beyond its rank is skipped; windows is how many
// counted. at[i] is sample i's time from the phase start.
func windowPctl(at []time.Duration, xs []float64, span, w time.Duration, p float64) (v float64, windows int) {
	n := int(span / w)
	win := make([][]float64, n)
	for i, t := range at {
		if k := int(t / w); k >= 0 && k < n {
			win[k] = append(win[k], xs[i])
		}
	}
	var qs []float64
	for _, ys := range win {
		if q := nearestRank(ys, p); q.OK {
			qs = append(qs, q.Value)
		}
	}
	return median(qs), len(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by a set of intervals, counting
// overlapping stretches once.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.lo <= cur.hi {
			if x.hi > cur.hi {
				cur.hi = x.hi
			}
			continue
		}
		total += cur.hi - cur.lo
		cur = x
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it its children
// cover (by interval union, so overlapping children count once).
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	return (parent.hi - parent.lo) - unionLen(clipped)
}
