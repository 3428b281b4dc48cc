package workload

import (
	"math"
	"sort"
)

// Median is the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func Median(xs []float64) float64 {
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

// MinBeyond is how many samples a reported percentile must have above
// it.
const MinBeyond = 10

// Percentile returns the p-th percentile of xs by nearest rank. ok
// applies the percentile rule: at least MinBeyond samples lie above it.
func Percentile(xs []float64, p int) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(1, int(math.Ceil(float64(p)/100*float64(len(s)))))
	return s[rank-1], len(s)-rank >= MinBeyond
}

// Rows turns one operation kind's traced layer totals into per-operation
// rows plus the kind's unattributed remainder: each layer's total over
// ops operations divided by ops, and opTime (the measured time of one
// such operation) minus their sum. The rows and the remainder add up to
// opTime by construction; a negative remainder means the traced layers
// took longer than the operation did.
func Rows(totals map[string]float64, ops int, opTime float64) (map[string]float64, float64) {
	rows := make(map[string]float64, len(totals))
	sum := 0.0
	for name, t := range totals {
		v := 0.0
		if ops > 0 {
			v = t / float64(ops)
		}
		rows[name] = v
		sum += v
	}
	return rows, opTime - sum
}
