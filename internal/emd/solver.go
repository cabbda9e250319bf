package emd

import (
	"errors"
	"math"
	"sync"

	"ferret/internal/object"
)

// epsilon is the tolerance used when comparing flows and reduced costs.
const epsilon = 1e-9

// maxPivots caps simplex iterations as a defensive bound; the anti-cycling
// rule in optimize makes it unreachable short of a bug.
const maxPivots = 100000

// workspace is one transportation problem's whole state: marginals, the flat
// row-major cost matrix, and the basis kept as a spanning tree over the m+n
// row/column nodes (row i is node i, column j is node m+j). It is drawn from
// wsPool per call and must not outlive it: nothing the package returns may
// alias its slices (Solve copies the flow out).
type workspace struct {
	m, n   int
	pivots int // pivots taken by the last solve

	fbuf   []float64
	bt     []float32 // the demand side's vectors, transposed (see transpose)
	a, b   []float64 // supply, demand; consumed by leastCostStart
	cost   []float64 // m×n, row-major
	colMin []float64 // n: per-column minimum cost, for the demand-side bound
	pot    []float64 // m+n: dual potentials (uᵢ at i, vⱼ at m+j)
	bflow  []float64 // m+n−1: flow on each basic cell

	rkey []uint64 // m: each row's cached cheapest-open key (see leastCostStart)

	ibuf   []int32
	bi, bj []int32 // m+n−1: the basic cells (row, column)
	head   []int32 // m+n: first half-edge of each node's adjacency list
	next   []int32 // 2(m+n−1): next half-edge; half-edge 2k leaves cell k's row, 2k+1 its column
	parent []int32 // m+n: parent node in the tree rooted at row 0
	pedge  []int32 // m+n: basic cell joining a node to its parent
	depth  []int32 // m+n
	queue  []int32 // m+n: breadth-first order
	loop   []int32 // ≤ m+n: the pivot cycle's basic cells as k<<1 | loses-flow bit
}

// Package-level so the allocation-free solver can return them.
var (
	errNotTree    = errors.New("emd: internal error: basis is not a spanning tree")
	errPivotLimit = errors.New("emd: pivot limit exceeded")
)

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace returns a pooled workspace with its slices carved for an m×n
// problem out of two backing arrays that grow only when a larger problem than
// any before arrives. The caller loads a, b and cost and hands the workspace
// back with wsPool.Put.
func getWorkspace(m, n int) *workspace {
	ws := wsPool.Get().(*workspace)
	ws.m, ws.n = m, n
	nodes := m + n
	if nf := m*n + 4*nodes; cap(ws.fbuf) < nf {
		ws.fbuf = make([]float64, nf)
	}
	f := ws.fbuf
	takeF := func(k int) []float64 { s := f[:k:k]; f = f[k:]; return s }
	ws.cost, ws.a, ws.b, ws.colMin = takeF(m*n), takeF(m), takeF(n), takeF(n)
	ws.pot, ws.bflow = takeF(nodes), takeF(nodes-1)
	if cap(ws.rkey) < m {
		ws.rkey = make([]uint64, m)
	}
	ws.rkey = ws.rkey[:m]
	if ni := 10 * nodes; cap(ws.ibuf) < ni {
		ws.ibuf = make([]int32, ni)
	}
	ib := ws.ibuf
	takeI := func(k int) []int32 { s := ib[:k:k]; ib = ib[k:]; return s }
	ws.bi, ws.bj, ws.next = takeI(nodes-1), takeI(nodes-1), takeI(2*nodes-2)
	ws.head, ws.parent, ws.pedge = takeI(nodes), takeI(nodes), takeI(nodes)
	ws.depth, ws.queue, ws.loop = takeI(nodes), takeI(nodes), takeI(nodes)
	return ws
}

// transpose lays the demand side's segment vectors out dimension-major in
// the workspace for vector.L1Transposed — bt[k·stride+j] is ys[j].Vec[k] —
// with the columns padded to whole 8-lane chunks. Like the rest of the
// workspace, the buffer grows only when a larger problem arrives.
//
//ferret:noalloc
func (ws *workspace) transpose(ys []object.Segment, dim int) ([]float32, int) {
	stride := (len(ys) + 7) &^ 7
	if cap(ws.bt) < dim*stride {
		ws.bt = make([]float32, dim*stride)
	}
	bt := ws.bt[:dim*stride]
	for j := range ys {
		v := ys[j].Vec
		if len(v) != dim {
			panic("vector: dimension mismatch")
		}
		for k, p := 0, j; k < len(v); k, p = k+1, p+stride {
			bt[p] = v[k]
		}
	}
	return bt, stride
}

// NormalizeWeights turns raw segment weights into a distribution in place:
// negatives clamp to zero, an optional square root (the improved EMD of
// [27]), mass 1; a zero total falls back to uniform. The engine's sketch
// lower bounds use it so that they weigh segments exactly as Distance does.
func NormalizeWeights(w []float64, sqrt bool) {
	var total float64
	for i, v := range w {
		if v < 0 {
			v = 0
		}
		if sqrt {
			v = math.Sqrt(v)
		}
		w[i] = v
		total += v
	}
	for i := range w {
		if total > 0 {
			w[i] /= total
		} else {
			w[i] = 1 / float64(len(w))
		}
	}
}

// fill computes the cost matrix one row(i, dst) call per row together with
// the independent-minimization lower bound on the optimum: every unit of
// supply pays at least its row's cheapest cell, and symmetrically for
// demand, so
//
//	LB = max( Σᵢ aᵢ·minⱼ cᵢⱼ , Σⱼ bⱼ·minᵢ cᵢⱼ ) ≤ EMD
//
// (exact for 1×n and m×1). It returns (lb, false) as soon as the supply-side
// partial sum — nondecreasing, since costs and weights are non-negative — or
// the finished bound exceeds bound: exactly the candidates with LB > bound,
// most of them without paying for the remaining rows. a and b must already
// be normalized.
//
//ferret:noalloc
func (ws *workspace) fill(bound float64, row func(i int, dst []float64)) (float64, bool) {
	n := ws.n
	for j := range ws.colMin {
		ws.colMin[j] = math.Inf(1)
	}
	var lbS float64
	for i, a := range ws.a {
		r := ws.cost[i*n : i*n+n]
		//lint:ignore noalloc the row callback is the caller's stack closure over the ℓ₁ row kernel or a sketch estimate
		row(i, r)
		rowMin := math.Inf(1)
		for j, c := range r {
			if c < rowMin {
				rowMin = c
			}
			if c < ws.colMin[j] {
				ws.colMin[j] = c
			}
		}
		lbS += a * rowMin
		if lbS > bound {
			return lbS, false
		}
	}
	var lbD float64
	for j, b := range ws.b {
		lbD += b * ws.colMin[j]
	}
	return math.Max(lbS, lbD), lbD <= bound
}

// solve runs the transportation simplex over the filled workspace and
// returns the optimal cost. The basis (bi, bj, bflow) holds the plan.
//
// Start: the least-cost (matrix-minimum) rule. Thresholded ground costs are
// a few cheap cells in a sea of cells equal to the threshold, and on such a
// matrix greedy is usually already optimal, where the northwest corner needs
// a pivot per misplaced cell. Pivots: the basis is a spanning tree, so the
// duals are one breadth-first walk and the entering cell's cycle is the tree
// path between its row and its column. Every choice breaks ties towards the
// lowest row-major cell index, so equal inputs give equal bits.
//
//ferret:noalloc
func (ws *workspace) solve() (float64, error) {
	// Rescale demand so both totals match (removes float drift between the
	// two sides; callers guarantee the totals are positive).
	var sSum, dSum float64
	for _, s := range ws.a {
		sSum += s
	}
	for _, d := range ws.b {
		dSum += d
	}
	for j := range ws.b {
		ws.b[j] *= sSum / dSum
	}
	ws.leastCostStart()
	if err := ws.optimize(); err != nil {
		return 0, err
	}
	var total float64
	for k, f := range ws.bflow {
		total += f * ws.cost[int(ws.bi[k])*ws.n+int(ws.bj[k])]
	}
	return total, nil
}

// leastCostStart builds the initial basic feasible solution: repeatedly ship
// as much as possible through the cheapest cell whose row and column are both
// still open, then close whichever of the two ran dry (the row on a tie, and
// never the last open row or column before the very end). Each step joins a
// closing line to one that stays open, so the m+n−1 cells — zero-flow
// degenerate ones included — form a spanning tree.
//
// Each row caches the column of its cheapest open cell. Closing a column only
// raises a row's true minimum, so a stale cache entry still bounds it from
// below: the row with the lowest cached cost is rescanned if its column has
// closed and the choice repeated, which finds the same cell as a full scan
// (lowest row-major index among the cheapest) at a fraction of the work.
//
//ferret:noalloc
func (ws *workspace) leastCostStart() {
	m, n := ws.m, ws.n
	closed, arg := ws.depth, ws.queue // scratch until the first tree build
	for x := range closed {
		closed[x] = 0
	}
	ordered := bitOrdered(ws.cost)
	for i := 0; i < m; i++ {
		arg[i] = ws.cheapestOpen(closed, i, ordered)
	}
	rows, cols := m, n
	for k := range ws.bi {
		var bi, bj int
		for {
			bi = ws.cheapestRow(closed, arg, ordered)
			if bj = int(arg[bi]); closed[m+bj] == 0 {
				break
			}
			arg[bi] = ws.cheapestOpen(closed, bi, ordered)
		}
		q := math.Min(ws.a[bi], ws.b[bj])
		ws.bi[k], ws.bj[k], ws.bflow[k] = int32(bi), int32(bj), q
		ws.a[bi] -= q
		ws.b[bj] -= q
		if cols == 1 || (rows > 1 && ws.a[bi] <= ws.b[bj]) {
			closed[bi], ws.rkey[bi] = 1, math.MaxUint64
			rows--
		} else {
			closed[m+bj] = 1
			cols--
		}
	}
}

// bitOrdered reports that every cost is a non-negative number (+Inf
// included, −0 and NaN not). On such costs the float64 order is the order of
// the raw bits read as uint64 — ties included, since no two distinct bit
// patterns compare equal — so the start's argmins can run on integer keys,
// with a closed line's key forced to MaxUint64, and no data-dependent
// branch. The built-in ℓ₁ ground and the sketch estimates always qualify; a
// plug-in ground that yields a NaN or a negative cost keeps the float
// comparisons, and with them its exact behaviour.
//
//ferret:noalloc
func bitOrdered(cost []float64) bool {
	var hi uint64
	for _, c := range cost {
		hi = max(hi, math.Float64bits(c))
	}
	return hi <= math.Float64bits(math.Inf(1))
}

// lineMask is a line's key mask: 0 while open, all ones once closed.
func lineMask(closed int32) uint64 { return -uint64(closed) }

// cheapestRow returns the lowest open row whose cached cheapest open cell
// (arg) costs least. On bitOrdered costs that is the least cached key, a
// closed row's key being MaxUint64.
//
//ferret:noalloc
func (ws *workspace) cheapestRow(closed, arg []int32, ordered bool) int {
	if ordered {
		bi, best := 0, uint64(math.MaxUint64)
		for i, key := range ws.rkey {
			if key < best {
				bi, best = i, key
			}
		}
		return bi
	}
	n, cost := ws.n, ws.cost
	bi, best := -1, 0.0
	for i, c := range closed[:ws.m] {
		if c != 0 {
			continue
		}
		if c := cost[i*n+int(arg[i])]; bi < 0 || c < best {
			bi, best = i, c
		}
	}
	return bi
}

// cheapestOpen returns the lowest open column holding row i's minimum cost;
// on bitOrdered costs it also caches that cell's key for cheapestRow.
//
//ferret:noalloc
func (ws *workspace) cheapestOpen(closed []int32, i int, ordered bool) int32 {
	row, cols := ws.cost[i*ws.n:(i+1)*ws.n], closed[ws.m:ws.m+ws.n]
	if ordered {
		bj, best := 0, uint64(math.MaxUint64)
		for j, c := range row {
			if key := math.Float64bits(c) | lineMask(cols[j]); key < best {
				bj, best = j, key
			}
		}
		ws.rkey[i] = best
		return int32(bj)
	}
	bj, best := -1, 0.0
	for j, c := range row {
		if cols[j] == 0 && (bj < 0 || c < best) {
			bj, best = j, c
		}
	}
	return int32(bj)
}

// buildTree roots the basis tree at row 0 and derives parent, depth and the
// dual potentials (u₀ = 0, uᵢ + vⱼ = cᵢⱼ on every basic cell) in one
// breadth-first walk over the basic cells' adjacency lists.
//
//ferret:noalloc
func (ws *workspace) buildTree() error {
	m, n := int32(ws.m), ws.n
	for x := range ws.head {
		ws.head[x], ws.depth[x] = -1, -1
	}
	for k := int32(len(ws.bi)) - 1; k >= 0; k-- {
		r, c := ws.bi[k], m+ws.bj[k]
		ws.next[2*k], ws.head[r] = ws.head[r], 2*k
		ws.next[2*k+1], ws.head[c] = ws.head[c], 2*k+1
	}
	ws.parent[0], ws.depth[0], ws.pot[0] = -1, 0, 0
	ws.queue[0] = 0
	visited := 1
	for at := 0; at < visited; at++ {
		x := ws.queue[at]
		for h := ws.head[x]; h >= 0; h = ws.next[h] {
			k := h >> 1
			y := m + ws.bj[k]
			if h&1 != 0 {
				y = ws.bi[k]
			}
			if ws.depth[y] >= 0 {
				continue
			}
			ws.parent[y], ws.pedge[y], ws.depth[y] = x, k, ws.depth[x]+1
			ws.pot[y] = ws.cost[int(ws.bi[k])*n+int(ws.bj[k])] - ws.pot[x]
			ws.queue[visited] = y
			visited++
		}
	}
	if visited != len(ws.head) {
		return errNotTree
	}
	return nil
}

// optimize pivots until no cell has a negative reduced cost. The entering
// cell is the most negative one (Dantzig); after m+n consecutive degenerate
// pivots it switches to the first negative one, which with the lowest-index
// leaving cell is Bland's rule and cannot cycle, until flow moves again.
//
//ferret:noalloc
func (ws *workspace) optimize() error {
	m, n := ws.m, ws.n
	stalled := 0
	for ws.pivots = 0; ws.pivots < maxPivots; ws.pivots++ {
		if err := ws.buildTree(); err != nil {
			return err
		}
		ei, ej, red := -1, -1, -epsilon
	scan:
		for i := 0; i < m; i++ {
			u := ws.pot[i]
			for j, c := range ws.cost[i*n : i*n+n] {
				if r := c - u - ws.pot[m+j]; r < red {
					ei, ej, red = i, j, r
					if stalled > m+n {
						break scan
					}
				}
			}
		}
		if ei < 0 {
			return nil // optimal
		}
		// The cycle is the entering cell plus the tree path between its row
		// and column. Walking up from the row end a row node's parent cell
		// shares that row with a gaining cell and so loses flow; from the
		// column end it is the column nodes' parent cells that lose. Rows sit
		// at even depth (the root is row 0), columns at odd.
		loop := ws.loop[:0]
		x, y := int32(ei), int32(m+ej)
		for x != y {
			if ws.depth[x] >= ws.depth[y] {
				loop = append(loop, ws.pedge[x]<<1|(ws.depth[x]&1^1))
				x = ws.parent[x]
			} else {
				loop = append(loop, ws.pedge[y]<<1|(ws.depth[y]&1))
				y = ws.parent[y]
			}
		}
		delta, leave, leaveCell := math.Inf(1), int32(-1), 0
		for _, e := range loop {
			if e&1 == 0 {
				continue
			}
			k := e >> 1
			cell := int(ws.bi[k])*n + int(ws.bj[k])
			if f := ws.bflow[k]; f < delta || (f <= delta && cell < leaveCell) {
				delta, leave, leaveCell = f, k, cell
			}
		}
		for _, e := range loop {
			if e&1 != 0 {
				ws.bflow[e>>1] -= delta
			} else {
				ws.bflow[e>>1] += delta
			}
		}
		ws.bi[leave], ws.bj[leave], ws.bflow[leave] = int32(ei), int32(ej), delta
		if delta < epsilon {
			stalled++
		} else {
			stalled = 0
		}
	}
	return errPivotLimit
}
