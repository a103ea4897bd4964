package slu

import (
	"container/heap"
	"sort"

	"repro/internal/sparse"
)

// This file keeps the orderings production code used up to PR 16 — the
// map-based symmetrisation, the explicit elimination-graph minimum
// degree and the RCM walking [][]int adjacency — as the reference the
// slice-based quotient-graph implementation must reproduce permutation
// for permutation (ordering_oracle_test.go). It is deliberately
// untouched: its O(Σ d²) clique updates are the specification.

func refSymPattern(a *sparse.CSR) [][]int {
	n := a.Rows
	adjSet := make([]map[int]bool, n)
	for i := range adjSet {
		adjSet[i] = make(map[int]bool)
	}
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			if i == j {
				continue
			}
			adjSet[i][j] = true
			adjSet[j][i] = true
		}
	}
	adj := make([][]int, n)
	for i, set := range adjSet {
		adj[i] = make([]int, 0, len(set))
		for j := range set {
			adj[i] = append(adj[i], j)
		}
		sort.Ints(adj[i])
	}
	return adj
}

func refRCM(adj [][]int) []int {
	n := len(adj)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	deg := func(v int) int { return len(adj[v]) }

	for len(order) < n {
		start := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (start < 0 || deg(v) < deg(start)) {
				start = v
			}
		}
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			nbrs := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			sort.Slice(nbrs, func(a, b int) bool { return deg(nbrs[a]) < deg(nbrs[b]) })
			queue = append(queue, nbrs...)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

type refDegEntry struct {
	deg, v int
}

type refDegHeap []refDegEntry

func (h refDegHeap) Len() int { return len(h) }
func (h refDegHeap) Less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v
}
func (h refDegHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refDegHeap) Push(x any)   { *h = append(*h, x.(refDegEntry)) }
func (h *refDegHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refMinDegree is minimum degree with explicit elimination-graph updates
// and a lazy min-heap: every step eliminates the live node of least
// (current degree, index).
func refMinDegree(adj [][]int) []int {
	n := len(adj)
	g := make([]map[int]bool, n)
	h := make(refDegHeap, 0, n)
	for i, nb := range adj {
		g[i] = make(map[int]bool, len(nb))
		for _, j := range nb {
			g[i][j] = true
		}
		h = append(h, refDegEntry{deg: len(nb), v: i})
	}
	heap.Init(&h)
	eliminated := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		var v int
		for {
			e := heap.Pop(&h).(refDegEntry)
			if eliminated[e.v] || len(g[e.v]) != e.deg {
				continue // stale
			}
			v = e.v
			break
		}
		eliminated[v] = true
		order = append(order, v)
		nbrs := make([]int, 0, len(g[v]))
		for w := range g[v] {
			nbrs = append(nbrs, w)
		}
		sort.Ints(nbrs)
		for _, w := range nbrs {
			delete(g[w], v)
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := nbrs[i], nbrs[j]
				if !g[a][b] {
					g[a][b] = true
					g[b][a] = true
				}
			}
		}
		for _, w := range nbrs {
			heap.Push(&h, refDegEntry{deg: len(g[w]), v: w})
		}
		g[v] = nil
	}
	return order
}

// refOrdering is ComputeOrdering as it was before the rewrite.
func refOrdering(a *sparse.CSR, o Ordering) []int {
	switch o {
	case OrderRCM:
		return refRCM(refSymPattern(a))
	case OrderMinDegree:
		return refMinDegree(refSymPattern(a))
	}
	q := make([]int, a.Rows)
	for i := range q {
		q[i] = i
	}
	return q
}
