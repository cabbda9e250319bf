package emd

import (
	"errors"
	"math"

	"ferret/internal/object"
	"ferret/internal/vector"
)

// The solver this package shipped before the tree-basis rewrite, kept
// verbatim as the differential oracle: a northwest-corner start refined by
// MODI pivots that re-derive the duals by sweeping the whole basis matrix and
// find each loop by a depth-first search. It shares nothing with solver.go but
// the epsilon and maxPivots constants.

// oracleSolve is the old Solve minus input validation.
func oracleSolve(supply, demand []float64, cost [][]float64) (float64, [][]float64, error) {
	st := newOracleState(supply, demand, cost)
	st.northwestCorner()
	if err := st.optimize(); err != nil {
		return 0, nil, err
	}
	return st.value(), st.flow, nil
}

// oracleCosts builds the old Distance's inputs: normalized weights and the
// [][]float64 ground-cost matrix.
func oracleCosts(x, y object.Object, opt Options) (supply, demand []float64, cost [][]float64) {
	ground := opt.Ground
	if ground == nil {
		ground = vector.L1
	}
	supply, demand = oracleWeights(x, opt.SqrtWeights), oracleWeights(y, opt.SqrtWeights)
	cost = make([][]float64, len(supply))
	for i := range cost {
		cost[i] = make([]float64, len(demand))
		for j := range cost[i] {
			d := ground(x.Segments[i].Vec, y.Segments[j].Vec)
			if opt.Threshold > 0 && d > opt.Threshold {
				d = opt.Threshold
			}
			cost[i][j] = d
		}
	}
	return supply, demand, cost
}

// oracleDistance is the old Distance over valid, equal-dimension objects.
func oracleDistance(x, y object.Object, opt Options) float64 {
	supply, demand, cost := oracleCosts(x, y, opt)
	if len(supply) == 1 && len(demand) == 1 {
		return cost[0][0]
	}
	val, _, err := oracleSolve(supply, demand, cost)
	if err != nil {
		panic(err)
	}
	return val
}

func oracleWeights(o object.Object, sqrt bool) []float64 {
	w := make([]float64, len(o.Segments))
	var total float64
	for i, s := range o.Segments {
		v := float64(s.Weight)
		if v < 0 {
			v = 0
		}
		if sqrt {
			v = math.Sqrt(v)
		}
		w[i] = v
		total += v
	}
	if total <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// oracleState holds one transportation-simplex tableau.
type oracleState struct {
	m, n  int
	cost  [][]float64
	flow  [][]float64
	basic [][]bool
	// a and b are working copies of supply/demand, rescaled so both totals
	// match exactly (removes float drift between the two sides).
	a, b []float64
}

func newOracleState(supply, demand []float64, cost [][]float64) *oracleState {
	m, n := len(supply), len(demand)
	st := &oracleState{m: m, n: n, cost: cost}
	st.flow = make([][]float64, m)
	st.basic = make([][]bool, m)
	for i := 0; i < m; i++ {
		st.flow[i] = make([]float64, n)
		st.basic[i] = make([]bool, n)
	}
	var sSum, dSum float64
	for _, s := range supply {
		sSum += s
	}
	for _, d := range demand {
		dSum += d
	}
	st.a = make([]float64, m)
	st.b = make([]float64, n)
	copy(st.a, supply)
	scale := sSum / dSum
	for j, d := range demand {
		st.b[j] = d * scale
	}
	return st
}

// northwestCorner builds the initial basic feasible solution with exactly
// m+n−1 basic cells (degenerate zero-flow cells included).
func (st *oracleState) northwestCorner() {
	a := append([]float64(nil), st.a...)
	b := append([]float64(nil), st.b...)
	i, j := 0, 0
	for step := 0; step < st.m+st.n-1; step++ {
		q := math.Min(a[i], b[j])
		st.flow[i][j] = q
		st.basic[i][j] = true
		a[i] -= q
		b[j] -= q
		switch {
		case i == st.m-1:
			j++
		case j == st.n-1:
			i++
		case a[i] <= b[j]:
			i++
		default:
			j++
		}
	}
}

// optimize runs MODI pivots until no cell has negative reduced cost.
func (st *oracleState) optimize() error {
	u := make([]float64, st.m)
	v := make([]float64, st.n)
	for pivot := 0; pivot < maxPivots; pivot++ {
		if err := st.duals(u, v); err != nil {
			return err
		}
		ei, ej, red := -1, -1, -epsilon
		for i := 0; i < st.m; i++ {
			for j := 0; j < st.n; j++ {
				if st.basic[i][j] {
					continue
				}
				r := st.cost[i][j] - u[i] - v[j]
				if r < red {
					red, ei, ej = r, i, j
				}
			}
		}
		if ei < 0 {
			return nil // optimal
		}
		loop := st.findLoop(ei, ej)
		if loop == nil {
			return errors.New("emd: internal error: no pivot loop found")
		}
		// δ is the minimum flow at odd positions of the loop (the cells
		// that lose flow).
		delta := math.Inf(1)
		leave := -1
		for p := 1; p < len(loop); p += 2 {
			c := loop[p]
			if f := st.flow[c[0]][c[1]]; f < delta {
				delta = f
				leave = p
			}
		}
		for p, c := range loop {
			if p%2 == 0 {
				st.flow[c[0]][c[1]] += delta
			} else {
				st.flow[c[0]][c[1]] -= delta
			}
		}
		lc := loop[leave]
		st.basic[lc[0]][lc[1]] = false
		st.flow[lc[0]][lc[1]] = 0
		st.basic[ei][ej] = true
	}
	return errors.New("emd: pivot limit exceeded (degenerate cycling?)")
}

// duals solves u[i] + v[j] = cost[i][j] over the basic cells by propagating
// from u[0] = 0 across the basis spanning tree.
func (st *oracleState) duals(u, v []float64) error {
	uSet := make([]bool, st.m)
	vSet := make([]bool, st.n)
	u[0] = 0
	uSet[0] = true
	remaining := st.m + st.n - 1
	for remaining > 0 {
		progressed := false
		for i := 0; i < st.m; i++ {
			for j := 0; j < st.n; j++ {
				if !st.basic[i][j] {
					continue
				}
				switch {
				case uSet[i] && !vSet[j]:
					v[j] = st.cost[i][j] - u[i]
					vSet[j] = true
					progressed = true
					remaining--
				case vSet[j] && !uSet[i]:
					u[i] = st.cost[i][j] - v[j]
					uSet[i] = true
					progressed = true
					remaining--
				}
			}
		}
		if !progressed {
			return errors.New("emd: internal error: basis graph disconnected")
		}
	}
	return nil
}

// findLoop returns the unique alternating row/column cycle through the
// entering cell (ei, ej) and basic cells, starting with the entering cell.
// Even positions gain flow, odd positions lose flow. In a valid
// stepping-stone loop each row and column hosts either zero or exactly two
// loop cells, so the search marks rows and columns as used; the loop closes
// when a row move returns to the entering column ej.
func (st *oracleState) findLoop(ei, ej int) [][2]int {
	path := [][2]int{{ei, ej}}
	usedRow := make([]bool, st.m)
	usedCol := make([]bool, st.n)
	usedRow[ei] = true

	var dfs func(alongRow bool) bool
	dfs = func(alongRow bool) bool {
		cur := path[len(path)-1]
		if alongRow {
			for j := 0; j < st.n; j++ {
				if j == cur[1] || !st.basic[cur[0]][j] {
					continue
				}
				if j == ej {
					// Closing row move: the final cell shares column ej
					// with the entering cell, completing an even-length
					// alternating cycle.
					if len(path) >= 3 {
						path = append(path, [2]int{cur[0], j})
						return true
					}
					continue
				}
				if usedCol[j] {
					continue
				}
				usedCol[j] = true
				path = append(path, [2]int{cur[0], j})
				if dfs(false) {
					return true
				}
				path = path[:len(path)-1]
				usedCol[j] = false
			}
			return false
		}
		for i := 0; i < st.m; i++ {
			if i == cur[0] || usedRow[i] || !st.basic[i][cur[1]] {
				continue
			}
			usedRow[i] = true
			path = append(path, [2]int{i, cur[1]})
			if dfs(true) {
				return true
			}
			path = path[:len(path)-1]
			usedRow[i] = false
		}
		return false
	}
	if dfs(true) {
		return path
	}
	return nil
}

func (st *oracleState) value() float64 {
	var total float64
	for i := 0; i < st.m; i++ {
		for j := 0; j < st.n; j++ {
			if st.flow[i][j] > 0 {
				total += st.flow[i][j] * st.cost[i][j]
			}
		}
	}
	return total
}
