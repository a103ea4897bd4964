package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteVector writes a dense vector, one value per line, with a size
// header.
func WriteVector(w io.Writer, x []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", len(x)); err != nil {
		return err
	}
	for _, v := range x {
		if _, err := fmt.Fprintf(bw, "%.17g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadVector parses the format written by WriteVector.
func ReadVector(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := -1
	var x []float64
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if n < 0 {
			var err error
			if n, err = strconv.Atoi(text); err != nil {
				return nil, fmt.Errorf("sparse: ReadVector: bad size line: %v", err)
			}
			x = make([]float64, 0, n)
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: ReadVector: %v", err)
		}
		x = append(x, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("sparse: ReadVector: empty input")
	}
	if len(x) != n {
		return nil, fmt.Errorf("sparse: ReadVector: header promised %d values, found %d", n, len(x))
	}
	return x, nil
}
