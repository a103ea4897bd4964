package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix Market (.mtx) support: the NIST exchange format most sparse
// matrix collections (SuiteSparse, Matrix Market itself) distribute.
// The supported subset is what the LISI ingestion path needs —
// coordinate and array formats, real and integer fields, general and
// symmetric storage. Pattern and complex fields, and skew-symmetric /
// hermitian storage, are rejected with typed errors so callers (the
// service's operator spec, lisi-solve) can map them to stable error
// codes.
//
// Out-of-scope constructs fail parsing rather than being silently
// coerced: duplicate coordinate entries are an error (an exchange file
// with duplicates is almost always a generator bug), and symmetric files must store exactly the
// lower triangle as the standard requires.

// Typed parse errors, matchable with errors.Is. Every parse failure
// wraps exactly one of these.
var (
	// ErrMMHeader: the banner line is missing or malformed.
	ErrMMHeader = errors.New("sparse: matrixmarket: malformed header")
	// ErrMMPattern: the file declares field "pattern" (structure-only,
	// no values) which cannot seed a linear system.
	ErrMMPattern = errors.New("sparse: matrixmarket: pattern matrices carry no values")
	// ErrMMUnsupported: a declared qualifier (complex field,
	// skew-symmetric or hermitian storage) is outside the supported
	// subset.
	ErrMMUnsupported = errors.New("sparse: matrixmarket: unsupported qualifier")
	// ErrMMSize: the size line is malformed, or the declared
	// dimensions/entry count exceed the ingestion caps.
	ErrMMSize = errors.New("sparse: matrixmarket: bad size line")
	// ErrMMEntry: a data line is malformed or indexes outside the
	// declared dimensions.
	ErrMMEntry = errors.New("sparse: matrixmarket: bad entry")
	// ErrMMSymmetry: a symmetric file stores an upper-triangle entry,
	// or WriteMatrixMarket was asked to write a non-symmetric matrix
	// symmetrically.
	ErrMMSymmetry = errors.New("sparse: matrixmarket: symmetry violation")
	// ErrMMDuplicate: a coordinate file lists the same (i,j) twice.
	ErrMMDuplicate = errors.New("sparse: matrixmarket: duplicate entry")
	// ErrMMNonFinite: an entry is NaN or ±Inf (strconv accepts the
	// spellings "nan" and "inf"); no solver can use such an operator,
	// and a pooled session would keep serving it.
	ErrMMNonFinite = errors.New("sparse: matrixmarket: non-finite entry")
)

// Ingestion caps: a header is attacker-controlled input on the service
// path, so the declared shape is bounded before any allocation sized
// from it. The caps comfortably cover every corpus this repository
// targets while keeping a lying header from forcing a multi-GB
// allocation.
const (
	// MaxMMDim bounds each declared dimension.
	MaxMMDim = 4 << 20
	// MaxMMEntries bounds the declared entry count (and rows*cols for
	// the dense array format).
	MaxMMEntries = 1 << 27
)

// MMSymmetry selects the storage symmetry WriteMatrixMarket declares.
type MMSymmetry int

const (
	// MMGeneral writes every stored entry.
	MMGeneral MMSymmetry = iota
	// MMSymmetric writes the lower triangle only; the matrix must be
	// square and bitwise symmetric.
	MMSymmetric
)

func (s MMSymmetry) String() string {
	switch s {
	case MMGeneral:
		return "general"
	case MMSymmetric:
		return "symmetric"
	}
	return fmt.Sprintf("MMSymmetry(%d)", int(s))
}

// mmHeader is the parsed banner + size line.
type mmHeader struct {
	coordinate bool // coordinate vs array
	integer    bool // integer vs real field
	symmetric  bool // symmetric vs general storage
	rows, cols int
	nnz        int // coordinate only
}

// ReadMatrixMarket parses a Matrix Market file into a CSR matrix.
// Coordinate and array formats are accepted with real or integer
// fields and general or symmetric storage; symmetric files must store
// the lower triangle, which is mirrored into the full operator.
// Exact-zero values in array files are dropped from the sparse result.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	h, line, err := readMMHeader(sc)
	if err != nil {
		return nil, err
	}
	var coo *COO
	if h.coordinate {
		coo, err = readMMCoordinate(sc, h, line)
	} else {
		coo, err = readMMArray(sc, h, line)
	}
	if err != nil {
		return nil, err
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	stored := len(coo.Val)
	a := coo.ToCSR()
	if h.coordinate && a.NNZ() != stored {
		// ToCSR merges duplicates; a shrink means the file listed some
		// (i,j) more than once.
		return nil, fmt.Errorf("%w: %d stored entries merged to %d distinct positions",
			ErrMMDuplicate, stored, a.NNZ())
	}
	return a, nil
}

// readMMHeader consumes the banner, any comment lines, and the size
// line. It returns the parsed header and the number of lines consumed.
func readMMHeader(sc *bufio.Scanner) (mmHeader, int, error) {
	var h mmHeader
	line := 0
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, line, err
		}
		return h, line, fmt.Errorf("%w: empty input", ErrMMHeader)
	}
	line++
	banner := strings.Fields(strings.ToLower(strings.TrimSpace(sc.Text())))
	if len(banner) != 5 || banner[0] != "%%matrixmarket" {
		return h, line, fmt.Errorf("%w: line 1: want %q, got %q",
			ErrMMHeader, "%%MatrixMarket matrix <format> <field> <symmetry>", sc.Text())
	}
	if banner[1] != "matrix" {
		return h, line, fmt.Errorf("%w: object %q (only \"matrix\" is supported)", ErrMMUnsupported, banner[1])
	}
	switch banner[2] {
	case "coordinate":
		h.coordinate = true
	case "array":
	default:
		return h, line, fmt.Errorf("%w: line 1: unknown format %q", ErrMMHeader, banner[2])
	}
	switch banner[3] {
	case "real", "double":
	case "integer":
		h.integer = true
	case "pattern":
		return h, line, ErrMMPattern
	case "complex":
		return h, line, fmt.Errorf("%w: complex field", ErrMMUnsupported)
	default:
		return h, line, fmt.Errorf("%w: line 1: unknown field %q", ErrMMHeader, banner[3])
	}
	switch banner[4] {
	case "general":
	case "symmetric":
		h.symmetric = true
	case "skew-symmetric", "hermitian":
		return h, line, fmt.Errorf("%w: %s storage", ErrMMUnsupported, banner[4])
	default:
		return h, line, fmt.Errorf("%w: line 1: unknown symmetry %q", ErrMMHeader, banner[4])
	}

	// Comments, then the size line.
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		want := 2
		if h.coordinate {
			want = 3
		}
		if len(fields) != want {
			return h, line, fmt.Errorf("%w: line %d: want %d fields, got %d", ErrMMSize, line, want, len(fields))
		}
		var err error
		if h.rows, err = strconv.Atoi(fields[0]); err != nil {
			return h, line, fmt.Errorf("%w: line %d: %v", ErrMMSize, line, err)
		}
		if h.cols, err = strconv.Atoi(fields[1]); err != nil {
			return h, line, fmt.Errorf("%w: line %d: %v", ErrMMSize, line, err)
		}
		if h.coordinate {
			if h.nnz, err = strconv.Atoi(fields[2]); err != nil {
				return h, line, fmt.Errorf("%w: line %d: %v", ErrMMSize, line, err)
			}
		}
		if h.rows < 0 || h.cols < 0 || h.nnz < 0 {
			return h, line, fmt.Errorf("%w: line %d: negative dimension", ErrMMSize, line)
		}
		if h.rows > MaxMMDim || h.cols > MaxMMDim {
			return h, line, fmt.Errorf("%w: line %d: %dx%d exceeds the %d dimension cap",
				ErrMMSize, line, h.rows, h.cols, MaxMMDim)
		}
		if h.coordinate && h.nnz > MaxMMEntries {
			return h, line, fmt.Errorf("%w: line %d: %d entries exceeds the %d cap",
				ErrMMSize, line, h.nnz, MaxMMEntries)
		}
		if !h.coordinate && h.rows*h.cols > MaxMMEntries {
			return h, line, fmt.Errorf("%w: line %d: dense %dx%d exceeds the %d cap",
				ErrMMSize, line, h.rows, h.cols, MaxMMEntries)
		}
		if h.symmetric && h.rows != h.cols {
			return h, line, fmt.Errorf("%w: symmetric matrix is %dx%d", ErrMMSymmetry, h.rows, h.cols)
		}
		return h, line, nil
	}
	if err := sc.Err(); err != nil {
		return h, line, err
	}
	return h, line, fmt.Errorf("%w: no size line", ErrMMSize)
}

// readMMCoordinate parses "i j v" triplets (1-based). Symmetric files
// must store i >= j; off-diagonal entries are mirrored.
func readMMCoordinate(sc *bufio.Scanner, h mmHeader, line int) (*COO, error) {
	coo := NewCOO(h.rows, h.cols)
	// The header's entry count is untrusted; preallocate a bounded
	// amount and let append grow the rest.
	prealloc := h.nnz
	if h.symmetric {
		prealloc *= 2
	}
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	coo.Row = make([]int, 0, prealloc)
	coo.Col = make([]int, 0, prealloc)
	coo.Val = make([]float64, 0, prealloc)
	stored := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: line %d: want \"i j v\", got %d fields", ErrMMEntry, line, len(fields))
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrMMEntry, line, err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrMMEntry, line, err)
		}
		v, err := parseMMValue(fields[2], h.integer)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrMMEntry, line, err)
		}
		if i < 1 || i > h.rows || j < 1 || j > h.cols {
			return nil, fmt.Errorf("%w: line %d: index (%d,%d) outside %dx%d",
				ErrMMEntry, line, i, j, h.rows, h.cols)
		}
		if h.symmetric && j > i {
			return nil, fmt.Errorf("%w: line %d: symmetric file stores entry (%d,%d) above the diagonal",
				ErrMMSymmetry, line, i, j)
		}
		if err := checkMMFinite(v, line, i, j); err != nil {
			return nil, err
		}
		stored++
		if stored > h.nnz {
			return nil, fmt.Errorf("%w: line %d: more than the declared %d entries", ErrMMEntry, line, h.nnz)
		}
		coo.Append(i-1, j-1, v)
		if h.symmetric && i != j {
			coo.Append(j-1, i-1, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if stored != h.nnz {
		return nil, fmt.Errorf("%w: header promised %d entries, found %d", ErrMMEntry, h.nnz, stored)
	}
	return coo, nil
}

// readMMArray parses the dense array format: column-major values, one
// per line (extra whitespace-separated values per line are accepted).
// Symmetric array files store each column from the diagonal down.
// Exact zeros are dropped from the sparse result.
func readMMArray(sc *bufio.Scanner, h mmHeader, line int) (*COO, error) {
	want := h.rows * h.cols
	if h.symmetric {
		want = h.rows * (h.rows + 1) / 2
	}
	coo := NewCOO(h.rows, h.cols)
	got := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		for _, field := range strings.Fields(text) {
			if got >= want {
				return nil, fmt.Errorf("%w: line %d: more than the expected %d values", ErrMMEntry, line, want)
			}
			v, err := parseMMValue(field, h.integer)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrMMEntry, line, err)
			}
			i, j := arrayPosition(got, h)
			if err := checkMMFinite(v, line, i+1, j+1); err != nil {
				return nil, err
			}
			// A dense listing stores structural zeros; keep the result
			// genuinely sparse. (Bit comparison: only +0 is dropped; an
			// explicit -0 is kept.)
			if math.Float64bits(v) != 0 {
				coo.Append(i, j, v)
				if h.symmetric && i != j {
					coo.Append(j, i, v)
				}
			}
			got++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("%w: expected %d values, found %d", ErrMMEntry, want, got)
	}
	return coo, nil
}

// arrayPosition maps the k-th stored array value to its 0-based (i,j).
// General files store full columns; symmetric files store each column
// from the diagonal down.
func arrayPosition(k int, h mmHeader) (i, j int) {
	if !h.symmetric {
		return k % h.rows, k / h.rows
	}
	// Column j holds rows - j values; walk columns until k lands.
	for col := 0; col < h.cols; col++ {
		span := h.rows - col
		if k < span {
			return col + k, col
		}
		k -= span
	}
	panic("sparse: matrixmarket: array position out of range")
}

// checkMMFinite rejects a NaN or ±Inf value for the 1-based entry
// (i,j) read from the given line.
func checkMMFinite(v float64, line, i, j int) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: line %d: entry (%d,%d) is %v", ErrMMNonFinite, line, i, j, v)
	}
	return nil
}

func parseMMValue(s string, integer bool) (float64, error) {
	if integer {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, err
		}
		return float64(v), nil
	}
	// The standard permits Fortran-style exponents (1.0D+00).
	if i := strings.IndexAny(s, "dD"); i >= 0 {
		s = s[:i] + "e" + s[i+1:]
	}
	return strconv.ParseFloat(s, 64)
}

// WriteMatrixMarket writes m as a Matrix Market coordinate real file.
// With MMSymmetric the matrix must be square and bitwise symmetric;
// only the lower triangle is stored. Values print with %.17g so every
// finite float64 round-trips exactly.
func WriteMatrixMarket(w io.Writer, m *CSR, sym MMSymmetry) error {
	rows, cols := m.Rows, m.Cols
	coo := m.ToCOO()
	row, col, val := coo.Row, coo.Col, coo.Val
	if sym == MMSymmetric {
		if rows != cols {
			return fmt.Errorf("%w: cannot write %dx%d matrix as symmetric", ErrMMSymmetry, rows, cols)
		}
		a := coo.ToCSR()
		if !a.Equal(a.Transpose()) {
			return fmt.Errorf("%w: matrix is not bitwise symmetric", ErrMMSymmetry)
		}
		lower := a.ToCOO()
		row = row[:0:0]
		col = col[:0:0]
		val = val[:0:0]
		for k := range lower.Val {
			if lower.Row[k] >= lower.Col[k] {
				row = append(row, lower.Row[k])
				col = append(col, lower.Col[k])
				val = append(val, lower.Val[k])
			}
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n%d %d %d\n",
		sym, rows, cols, len(val)); err != nil {
		return err
	}
	for k := range val {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", row[k]+1, col[k]+1, val[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

const mmBanner = "%%MatrixMarket"
