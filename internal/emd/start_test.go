package emd

import (
	"math"
	"testing"

	"ferret/internal/object"
)

var (
	edgeNaN  = math.NaN()
	edgeInf  = math.Inf(1)
	edgeNeg0 = math.Copysign(0, -1)
)

// edgeStartCases are cost tables a plug-in ground can produce that the
// built-in ones never do, each with a plan recorded before the start rule
// compared raw bits: exact ties, +Inf (still bit-ordered), and NaN, negative
// and −0 costs (which must keep the float comparisons).
var edgeStartCases = []struct {
	name           string
	supply, demand []float64
	cost           [][]float64
}{
	{"ties", []float64{0.25, 0.25, 0.5}, []float64{0.5, 0.3, 0.2}, [][]float64{
		{1, 1, 1},
		{1, 0.5, 0.5},
		{0.5, 1, 0.5},
	}},
	{"inf", []float64{0.4, 0.3, 0.3}, []float64{0.2, 0.2, 0.6}, [][]float64{
		{edgeInf, 2, 2},
		{1, edgeInf, 2},
		{edgeInf, edgeInf, 3},
	}},
	{"nan", []float64{0.5, 0.25, 0.25}, []float64{0.25, 0.25, 0.5}, [][]float64{
		{edgeNaN, 1, 2},
		{1, edgeNaN, 0.5},
		{2, 0.5, 1},
	}},
	{"nan-first-row", []float64{0.5, 0.5}, []float64{0.5, 0.25, 0.25}, [][]float64{
		{edgeNaN, edgeNaN, 3},
		{0.5, 2, 1},
	}},
	{"negative", []float64{0.3, 0.3, 0.4}, []float64{0.5, 0.25, 0.25}, [][]float64{
		{-1, 0, 2},
		{0.5, -2, 1},
		{1, 1, -0.5},
	}},
	{"negative-zero", []float64{0.5, 0.5}, []float64{0.5, 0.5}, [][]float64{
		{edgeNeg0, 0},
		{0, edgeNeg0},
	}},
}

// edgeStartWant is one edge case's recorded answer, as raw float64 bits: the
// Solve value and row-major plan, and Distance's value when the same table
// is served by a plug-in Ground.
var edgeStartWant = map[string]struct {
	val  uint64
	flow []uint64
	dist uint64
}{
	"ties": {0x3fe4000000000000, []uint64{
		0x0, 0x3fa9999999999998, 0x3fc999999999999a,
		0x0, 0x3fd0000000000000, 0x0,
		0x3fe0000000000000, 0x0, 0x0}, 0x3fe4000000000000},
	"inf": {0x4000cccccccccccc, []uint64{
		0x0, 0x3fc999999999999a, 0x3fc999999999999a,
		0x3fc999999999999a, 0x0, 0x3fb9999999999998,
		0x0, 0x0, 0x3fd3333333333333}, 0x4000cccccd999999},
	"nan": {0x7ff8000000000001, []uint64{
		0x3fd0000000000000, 0x3fd0000000000000, 0x0,
		0x0, 0x0, 0x3fd0000000000000,
		0x0, 0x0, 0x3fd0000000000000}, 0x7ff8000000000001},
	"nan-first-row": {0x7ff8000000000001, []uint64{
		0x3fe0000000000000, 0x0, 0x0,
		0x0, 0x3fd0000000000000, 0x3fd0000000000000}, 0x7ff8000000000001},
	"negative": {0xbfe8000000000000, []uint64{
		0x3fd3333333333333, 0x0, 0x0,
		0x3fa9999999999998, 0x3fd0000000000000, 0x0,
		0x3fc3333333333334, 0x0, 0x3fd0000000000000}, 0xbfe8000003fffffe},
	"negative-zero": {0x0, []uint64{
		0x3fe0000000000000, 0x0,
		0x0, 0x3fe0000000000000}, 0x0},
}

// edgeObject is a one-dimensional object whose segment i has feature i, so
// a Ground can index a cost table by its arguments.
func edgeObject(w []float64) object.Object {
	var o object.Object
	for i, x := range w {
		o.Segments = append(o.Segments, object.Segment{Vec: []float32{float32(i)}, Weight: float32(x)})
	}
	return o
}

// TestStartPlugInEdgeCases pins the least-cost start on costs only a plug-in
// ground yields: the integer-key argmin must not move a tie or an +Inf
// cell, and a NaN, negative or −0 cost must keep the float comparisons — so
// Solve's plan and value, and Distance under the same table as a Ground,
// equal the bits recorded before the start rule changed.
func TestStartPlugInEdgeCases(t *testing.T) {
	for _, c := range edgeStartCases {
		want := edgeStartWant[c.name]
		val, flow, err := Solve(c.supply, c.demand, c.cost)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(val) != want.val {
			t.Errorf("%s: value %#x, want %#x", c.name, math.Float64bits(val), want.val)
		}
		var got []uint64
		for _, row := range flow {
			for _, f := range row {
				got = append(got, math.Float64bits(f))
			}
		}
		if len(got) != len(want.flow) {
			t.Fatalf("%s: %d plan cells, want %d", c.name, len(got), len(want.flow))
		}
		for k := range got {
			if got[k] != want.flow[k] {
				t.Errorf("%s: plan cell %d is %#x, want %#x", c.name, k, got[k], want.flow[k])
			}
		}
		table := c.cost
		ground := func(a, b []float32) float64 { return table[int(a[0])][int(b[0])] }
		d, err := Distance(edgeObject(c.supply), edgeObject(c.demand), Options{Ground: ground})
		if err != nil {
			t.Fatalf("%s: Distance: %v", c.name, err)
		}
		if math.Float64bits(d) != want.dist {
			t.Errorf("%s: Distance %#x, want %#x", c.name, math.Float64bits(d), want.dist)
		}
	}
}
