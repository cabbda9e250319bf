package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// fastest returns, position by position, the smallest value any of the rows
// has there (up to the shortest row's length). The rows are repeats of one
// sequence of operations, so this is the sequence as the sandbox's quiet
// spells let it run; see summarize.
func fastest(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := append([]float64(nil), rows[0]...)
	for _, row := range rows[1:] {
		out = out[:min(len(out), len(row))]
		for i := range out {
			out[i] = min(out[i], row[i])
		}
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// perOp runs fn(i) in batches until budget has elapsed (at least three
// batches) and returns the median batch's nanoseconds per call, so one
// descheduled batch does not move the number.
func perOp(budget time.Duration, batch int, fn func(i int)) float64 {
	var per []float64
	i := 0
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// mallocs is the process-wide allocation count and bytes; deltas around a
// single-goroutine loop give its allocations per call (background goroutines
// add a little, so these are approximate where the counters are exact).
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
