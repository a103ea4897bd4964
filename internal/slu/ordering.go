// Package slu is the SuperLU-role direct solver package of this
// reproduction: a serial sparse LU factorization with the SuperLU
// lifecycle — fill-reducing column ordering, factorization with threshold
// partial pivoting (Gilbert–Peierls left-looking algorithm), sparse
// triangular solves, equilibration, iterative refinement, and a condition
// estimate — plus a distributed front end that stands in for
// SuperLU_DIST (see DESIGN.md for the substitution note).
package slu

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Ordering selects the fill-reducing column permutation, matching
// SuperLU's colperm options.
type Ordering int

// Supported orderings.
const (
	OrderNatural   Ordering = iota // identity permutation
	OrderRCM                       // reverse Cuthill–McKee on A+Aᵀ
	OrderMinDegree                 // minimum degree (exact external degrees) on A+Aᵀ
)

// String returns the ordering's conventional name.
func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderMinDegree:
		return "mmd"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// symPattern returns the adjacency of the symmetrised pattern A+Aᵀ
// without the diagonal in compressed form: the neighbours of i are
// adj[ptr[i]:ptr[i+1]], ascending and free of repeats. It reads
// structure only — a stored zero is an edge — and is a two-pass counting
// sort, so no map and no per-row allocation.
func symPattern(a *sparse.CSR) (ptr, adj []int) {
	n := a.Rows
	// Pass 1: file every off-diagonal entry (i,j) under both endpoints.
	// Bucket v then lists the far end of each edge at v, repeats included.
	ptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
			if i != j {
				ptr[i+1]++
				ptr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	bucket := make([]int, ptr[n])
	next := make([]int, n)
	copy(next, ptr[:n])
	for i := 0; i < n; i++ {
		for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
			if i != j {
				bucket[next[j]] = i
				next[j]++
				bucket[next[i]] = j
				next[i]++
			}
		}
	}
	// Pass 2: walk the buckets in ascending v and append v to the row of
	// every u listed there. Rows come out ascending, so a repeated edge
	// would land right after its twin and is dropped there.
	adj = make([]int, ptr[n])
	copy(next, ptr[:n])
	for v := 0; v < n; v++ {
		for _, u := range bucket[ptr[v]:ptr[v+1]] {
			if next[u] == ptr[u] || adj[next[u]-1] != v {
				adj[next[u]] = v
				next[u]++
			}
		}
	}
	// Close the gaps the dropped repeats left.
	w := 0
	for u := 0; u < n; u++ {
		lo := ptr[u]
		ptr[u] = w
		w += copy(adj[w:], adj[lo:next[u]])
	}
	ptr[n] = w
	return ptr, adj[:w]
}

// ComputeOrdering returns the permutation q (new position -> old index)
// for the requested ordering on the pattern of a (square). It depends on
// (RowPtr, ColInd, o) alone, never on the stored values.
func ComputeOrdering(a *sparse.CSR, o Ordering) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("slu: ordering requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	switch o {
	case OrderNatural:
		q := make([]int, a.Rows)
		for i := range q {
			q[i] = i
		}
		return q, nil
	case OrderRCM:
		return rcm(symPattern(a)), nil
	case OrderMinDegree:
		return minDegree(symPattern(a)), nil
	}
	return nil, fmt.Errorf("slu: unknown ordering %d", int(o))
}

// rcm is the reverse Cuthill–McKee ordering: BFS from a low-degree
// peripheral node, neighbors visited in increasing-degree order, result
// reversed.
func rcm(ptr, adj []int) []int {
	n := len(ptr) - 1
	visited := make([]bool, n)
	order := make([]int, 0, n) // doubles as the BFS queue
	deg := func(v int) int { return ptr[v+1] - ptr[v] }
	var nbrs []int

	for head := 0; len(order) < n; {
		// Pick the unvisited node of minimum degree as the next start.
		start := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (start < 0 || deg(v) < deg(start)) {
				start = v
			}
		}
		visited[start] = true
		order = append(order, start)
		// BFS level order with neighbors sorted by degree.
		for ; head < len(order); head++ {
			nbrs = nbrs[:0]
			for _, w := range adj[ptr[order[head]]:ptr[order[head]+1]] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			if len(nbrs) > 1 {
				sort.Slice(nbrs, func(a, b int) bool { return deg(nbrs[a]) < deg(nbrs[b]) })
			}
			order = append(order, nbrs...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// degHeap is an indexed binary min-heap of variables keyed by
// (deg, index): a key change moves the variable in place, so the heap
// never holds more than n entries and none of them is stale.
type degHeap struct {
	deg  []int // current key of every variable
	heap []int // variables in heap order
	pos  []int // pos[v] = index of v in heap
}

func (h *degHeap) less(a, b int) bool {
	if h.deg[a] != h.deg[b] {
		return h.deg[a] < h.deg[b]
	}
	return a < b
}

func (h *degHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *degHeap) down(i int) {
	v := h.heap[i]
	for {
		child := 2*i + 1
		if child >= len(h.heap) {
			break
		}
		if r := child + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[child]) {
			child = r
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.pos[h.heap[i]] = i
		i = child
	}
	h.heap[i] = v
	h.pos[v] = i
}

// pop removes and returns the variable of least (deg, index).
func (h *degHeap) pop() int {
	v := h.heap[0]
	end := len(h.heap) - 1
	h.heap[0] = h.heap[end]
	h.heap = h.heap[:end]
	if end > 0 {
		h.down(0)
	}
	return v
}

// set changes v's key to d and restores the heap order.
func (h *degHeap) set(v, d int) {
	old := h.deg[v]
	h.deg[v] = d
	if d < old {
		h.up(h.pos[v])
	} else if d > old {
		h.down(h.pos[v])
	}
}

// minDegree is the minimum-degree ordering: every step eliminates the
// live variable of least (external degree, index). Degrees are exact, so
// the permutation is the one an explicit elimination graph gives; only
// the representation differs. The graph is held as a quotient graph
// (George & Liu; Amestoy, Davis & Duff): an eliminated pivot p becomes an
// element whose list L_p is its neighbourhood at elimination time, and
// the clique on L_p is never formed. For a live variable i
//
//	A_i = variable neighbours not covered by an element (front of i's slot)
//	E_i = elements i belongs to                         (back of i's slot)
//	deg(i) = |A_i| + |⋃_{e∈E_i} L_e \ {i}|
//
// Eliminating p absorbs the elements of E_p into p, prunes A_i against
// L_p for every i in L_p (those edges are now implied by p) and replaces
// the absorbed elements in E_i by p, so |A_i|+|E_i| never outgrows i's
// original slot and the live element lists never outgrow the original
// adjacency: the arena is compacted instead of grown. adj is consumed.
func minDegree(ptr, adj []int) []int {
	n := len(ptr) - 1
	alen := make([]int, n) // |A_i|, stored at adj[ptr[i]:]
	elen := make([]int, n) // |E_i|, stored at adj[:ptr[i+1]] from the back
	h := degHeap{deg: make([]int, n), heap: make([]int, n), pos: make([]int, n)}
	for i := 0; i < n; i++ {
		alen[i] = ptr[i+1] - ptr[i]
		h.deg[i] = alen[i]
		h.heap[i], h.pos[i] = i, i
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	// Element lists live back to back in arena, in elimination order; an
	// absorbed element keeps its place with size 0 until the next compaction.
	arena := make([]int, 0, 2*len(adj))
	eptr := make([]int, n)
	esize := make([]int, n)
	order := make([]int, 0, n)

	// mark holds stamps from one rising counter. Within a step, tag marks
	// p, the members of L_p and the elements p absorbs; the stamps above
	// tag are spent one per member on its degree scan.
	mark := make([]int, n)
	stamp := 0

	for len(order) < n {
		p := h.pop()
		stamp++
		tag := stamp
		mark[p] = tag
		ap := adj[ptr[p] : ptr[p]+alen[p]]
		ep := adj[ptr[p+1]-elen[p] : ptr[p+1]]

		need := len(ap)
		for _, e := range ep {
			need += esize[e]
		}
		if len(arena)+need > cap(arena) {
			w := 0
			for _, e := range order {
				w += copy(arena[w:], arena[eptr[e]:eptr[e]+esize[e]])
				eptr[e] = w - esize[e]
			}
			arena = arena[:w]
		}

		// L_p = (A_p ∪ ⋃_{e∈E_p} L_e) \ {p}.
		start := len(arena)
		for _, j := range ap {
			mark[j] = tag
			arena = append(arena, j)
		}
		for _, e := range ep {
			for _, j := range arena[eptr[e] : eptr[e]+esize[e]] {
				if mark[j] != tag {
					mark[j] = tag
					arena = append(arena, j)
				}
			}
			mark[e] = tag
			esize[e] = 0
		}
		lp := arena[start:]
		eptr[p], esize[p] = start, len(lp)
		alen[p], elen[p] = 0, 0
		order = append(order, p)

		for _, i := range lp {
			lo, hi := ptr[i], ptr[i+1]
			k := lo
			for _, j := range adj[lo : lo+alen[i]] {
				if mark[j] != tag {
					adj[k] = j
					k++
				}
			}
			alen[i] = k - lo
			k = hi
			for q := hi - 1; q >= hi-elen[i]; q-- {
				if e := adj[q]; mark[e] != tag {
					k--
					adj[k] = e
				}
			}
			// i lost p from A_i or an absorbed element from E_i, so the
			// slot has room for p.
			k--
			adj[k] = p
			elen[i] = hi - k
		}

		for _, i := range lp {
			d := alen[i] + len(lp) - 1
			stamp++
			for _, e := range adj[ptr[i+1]-elen[i] : ptr[i+1]] {
				if e == p {
					continue
				}
				for _, j := range arena[eptr[e] : eptr[e]+esize[e]] {
					if m := mark[j]; m != tag && m != stamp {
						mark[j] = stamp
						d++
					}
				}
			}
			h.set(i, d)
		}
	}
	return order
}
