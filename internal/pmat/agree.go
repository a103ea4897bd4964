package pmat

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// Error kinds Agree reduces, in the order the maximum picks: a singular
// matrix on any rank outranks any other failure.
const (
	kindNone = iota
	kindOther
	kindSingular
)

// Agree makes a rank-local set-up outcome every rank's (collective):
// one integer maximum over the kind of err — none, other, or
// sparse.ErrSingular. Every rank returns an error of the agreed kind:
// its own err when that is of the agreed kind, otherwise one naming
// another rank. Call it after a step that can fail on some ranks only
// and before the next collective, so that no rank waits for a peer that
// has returned; no error text crosses ranks.
func Agree(c *comm.Comm, err error) error {
	kind := kindNone
	if err != nil {
		kind = kindOther
		if errors.Is(err, sparse.ErrSingular) {
			kind = kindSingular
		}
	}
	switch c.AllReduceInt(kind, comm.OpMax) {
	case kind:
		return err
	case kindSingular:
		return fmt.Errorf("pmat: set-up failed on another rank: %w", sparse.ErrSingular)
	}
	return errors.New("pmat: set-up failed on another rank")
}
