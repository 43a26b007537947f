package main

import (
	"fmt"
	"math"
)

// ulpDiff is the distance between two finite float64s in units in the
// last place: 0 when bit-identical, 1 for adjacent representable values.
func ulpDiff(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia, ib := orderedBits(a), orderedBits(b)
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// orderedBits maps a float64 onto a signed integer line where adjacent
// floats are adjacent integers (negative floats mirrored below zero).
func orderedBits(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		return math.MinInt64 - b
	}
	return b
}

// mix64 is the splitmix64 finalizer: a cheap, well-spread 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pairHash hashes one (id, score) pair; summing pairHash over a result
// set gives an order-independent checksum that still catches a missing,
// duplicated or mis-scored row.
func pairHash(id int64, score float64) uint64 {
	return mix64(uint64(id) ^ mix64(math.Float64bits(score)))
}

// scoreOracle checks streamed (id, score) rows against reference scores
// computed by the interpreted pipeline outside the query path. Scores
// may differ from the reference by at most MaxULP units in the last
// place (0 for shapes whose scoring path is bit-identical); an accepted
// row contributes the reference pair to the checksum, so Sum equals
// WantSum exactly when every id arrived once with an accepted score.
type scoreOracle struct {
	Ref    []float64 // reference score by id (ids are 0..len-1)
	MaxULP uint64

	Rows     int
	Sum      uint64
	Bad      int    // rows out of range or beyond MaxULP
	MaxSeen  uint64 // largest ulp distance observed
	Inexact  int    // accepted rows that were not bit-identical
	firstBad string
}

// add records one received row.
func (o *scoreOracle) add(id int64, score float64) {
	o.Rows++
	if id < 0 || id >= int64(len(o.Ref)) {
		o.bad(fmt.Sprintf("id %d outside the table", id))
		return
	}
	want := o.Ref[id]
	d := ulpDiff(score, want)
	if d > o.MaxSeen {
		o.MaxSeen = d
	}
	if d > o.MaxULP {
		o.bad(fmt.Sprintf("id %d: score %v, reference %v (%d ulp > %d)", id, score, want, d, o.MaxULP))
		return
	}
	if d > 0 {
		o.Inexact++
	}
	o.Sum += pairHash(id, want)
}

func (o *scoreOracle) bad(msg string) {
	o.Bad++
	if o.firstBad == "" {
		o.firstBad = msg
	}
}

// wantSum is the checksum of the whole reference table.
func wantSum(ref []float64) uint64 {
	var s uint64
	for id, v := range ref {
		s += pairHash(int64(id), v)
	}
	return s
}

// verdict reports whether the received rows are exactly the reference
// table: every id once, every score within the bound.
func (o *scoreOracle) verdict(want uint64) error {
	switch {
	case o.Bad > 0:
		return fmt.Errorf("%d bad rows, first: %s", o.Bad, o.firstBad)
	case o.Rows != len(o.Ref):
		return fmt.Errorf("got %d rows, want %d", o.Rows, len(o.Ref))
	case o.Sum != want:
		return fmt.Errorf("checksum %x, want %x (missing or duplicated ids)", o.Sum, want)
	}
	return nil
}
