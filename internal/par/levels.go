package par

// Levels is a level-set schedule for a sparse triangular solve: the DAG
// of row dependencies is sliced into levels such that every row's
// dependencies live in strictly earlier levels, so all rows of one
// level can run in parallel. Order lists the row indices grouped by
// level (ascending within each level, so a fixed partition of a level
// is stable), and level l occupies Order[Ptr[l]:Ptr[l+1]].
//
// Level sets are Setup-time artifacts: build them once per factor (the
// factor's structure is immutable after factorization) and reuse them
// for every solve.
type Levels struct {
	Order []int
	Ptr   []int
}

// NumLevels returns the number of dependency levels.
func (lv *Levels) NumLevels() int { return len(lv.Ptr) - 1 }

// Level returns the row indices of level l.
func (lv *Levels) Level(l int) []int { return lv.Order[lv.Ptr[l]:lv.Ptr[l+1]] }

// Sweep runs s over the levels in dependency order, one pool dispatch
// (one join) per level, and leaves s with a nil row set when done.
func (lv *Levels) Sweep(p *Pool, s *triSweep) {
	for l := 0; l < lv.NumLevels(); l++ {
		s.rows = lv.Level(l)
		p.Run(len(s.rows), s)
	}
	s.rows = nil
}

// LowerLevels computes the level sets of a forward (lower-triangular)
// solve over rows 0..n-1: depsOf must call visit(j) for each structural
// dependency j < i of row i — the prior solution entries row i's sweep
// reads. Visits outside [0, i) are ignored, so callers can pass a row's
// full pattern.
func LowerLevels(n int, depsOf func(i int, visit func(j int))) *Levels {
	if n <= 0 {
		return &Levels{Ptr: []int{0}}
	}
	level := make([]int, n)
	maxl := 0
	for i := 0; i < n; i++ {
		l := 0
		depsOf(i, func(j int) {
			if j < 0 || j >= i {
				return
			}
			if d := level[j] + 1; d > l {
				l = d
			}
		})
		level[i] = l
		if l > maxl {
			maxl = l
		}
	}
	return bucketLevels(level, maxl)
}

// UpperLevels computes the level sets of a backward (upper-triangular)
// solve over rows n-1..0: depsOf must call visit(j) for each structural
// dependency j > i of row i. Visits outside (i, n) are ignored.
func UpperLevels(n int, depsOf func(i int, visit func(j int))) *Levels {
	if n <= 0 {
		return &Levels{Ptr: []int{0}}
	}
	level := make([]int, n)
	maxl := 0
	for i := n - 1; i >= 0; i-- {
		l := 0
		depsOf(i, func(j int) {
			if j <= i || j >= n {
				return
			}
			if d := level[j] + 1; d > l {
				l = d
			}
		})
		level[i] = l
		if l > maxl {
			maxl = l
		}
	}
	return bucketLevels(level, maxl)
}

// bucketLevels counting-sorts rows by level, keeping ascending row
// order within each level.
func bucketLevels(level []int, maxl int) *Levels {
	ptr := make([]int, maxl+2)
	for _, l := range level {
		ptr[l+1]++
	}
	for l := 0; l <= maxl; l++ {
		ptr[l+1] += ptr[l]
	}
	order := make([]int, len(level))
	next := make([]int, maxl+1)
	copy(next, ptr[:maxl+1])
	for i, l := range level {
		order[next[l]] = i
		next[l]++
	}
	return &Levels{Order: order, Ptr: ptr}
}
