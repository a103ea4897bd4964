package mesh

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sparse"
)

// WriteLocal writes one rank's block rows and right-hand side to
// node-local files under dir ("Mesh data files are written out on each
// compute node locally for faster data input", §8[a]). matrix.<rank> is
// a Matrix Market file holding the rank's rectangular block of rows,
// rhs.<rank> a vector file.
func WriteLocal(dir string, rank int, a *sparse.CSR, b []float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mesh: WriteLocal: %w", err)
	}
	mf, err := os.Create(filepath.Join(dir, fmt.Sprintf("matrix.%d", rank)))
	if err != nil {
		return fmt.Errorf("mesh: WriteLocal: %w", err)
	}
	defer mf.Close()
	if err := sparse.WriteMatrixMarket(mf, a, sparse.MMGeneral); err != nil {
		return fmt.Errorf("mesh: WriteLocal matrix: %w", err)
	}
	vf, err := os.Create(filepath.Join(dir, fmt.Sprintf("rhs.%d", rank)))
	if err != nil {
		return fmt.Errorf("mesh: WriteLocal: %w", err)
	}
	defer vf.Close()
	if err := sparse.WriteVector(vf, b); err != nil {
		return fmt.Errorf("mesh: WriteLocal rhs: %w", err)
	}
	return nil
}

// ReadLocal reads back the files written by WriteLocal.
func ReadLocal(dir string, rank int) (*sparse.CSR, []float64, error) {
	mf, err := os.Open(filepath.Join(dir, fmt.Sprintf("matrix.%d", rank)))
	if err != nil {
		return nil, nil, fmt.Errorf("mesh: ReadLocal: %w", err)
	}
	defer mf.Close()
	a, err := sparse.ReadMatrixMarket(mf)
	if err != nil {
		return nil, nil, fmt.Errorf("mesh: ReadLocal matrix: %w", err)
	}
	vf, err := os.Open(filepath.Join(dir, fmt.Sprintf("rhs.%d", rank)))
	if err != nil {
		return nil, nil, fmt.Errorf("mesh: ReadLocal: %w", err)
	}
	defer vf.Close()
	b, err := sparse.ReadVector(vf)
	if err != nil {
		return nil, nil, fmt.Errorf("mesh: ReadLocal rhs: %w", err)
	}
	return a, b, nil
}
