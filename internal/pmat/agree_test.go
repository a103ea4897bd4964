package pmat

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// TestAgree: every rank returns an error of the kind the worst rank had
// (singular over other over none), and a rank whose own error is of that
// kind returns it unchanged.
func TestAgree(t *testing.T) {
	singular := fmt.Errorf("row 3: %w", sparse.ErrZeroDiagonal)
	other := errors.New("shell matrix has no diagonal")
	for _, tc := range []struct {
		name         string
		local        [3]error
		wantSingular bool
	}{
		{"none", [3]error{}, false},
		{"other on rank 2", [3]error{nil, nil, other}, false},
		{"singular on rank 0", [3]error{singular, nil, nil}, true},
		{"singular beats other", [3]error{nil, singular, other}, true},
	} {
		run(t, 3, func(c *comm.Comm) {
			mine := tc.local[c.Rank()]
			got := Agree(c, mine)
			switch {
			case tc.local == [3]error{}:
				if got != nil {
					t.Errorf("%s, rank %d: %v, want nil", tc.name, c.Rank(), got)
				}
			case got == nil || errors.Is(got, sparse.ErrSingular) != tc.wantSingular:
				t.Errorf("%s, rank %d: %v, want a failure with singular = %t", tc.name, c.Rank(), got, tc.wantSingular)
			case mine != nil && errors.Is(mine, sparse.ErrSingular) == tc.wantSingular && got != mine:
				t.Errorf("%s, rank %d: %v, want its own %v", tc.name, c.Rank(), got, mine)
			}
		})
	}
}
