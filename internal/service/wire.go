package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/jsonw"
	"repro/internal/telemetry"
)

// The /v1/solve hot path reads and writes its own JSON. A request is
// read in one pass over the body, and a reply is appended compact into
// one buffer that is sent with its Content-Length. Everything else the
// service writes (errors, stats, health, backends) stays on
// encoding/json.
//
// decodeRequest accepts exactly what json.Decoder.Decode with
// DisallowUnknownFields accepts into a *SolveRequest, and fills the
// same values: FuzzDecodeRequestMatchesJSON holds the two together.
// appendResponse writes what json.Marshal writes, byte for byte, except
// that a non-finite float, which encoding/json refuses, is written as
// null; FuzzAppendResponseMatchesJSON holds that.

// maxPooledBody bounds the bodies the service keeps for reuse, so one
// large operator upload does not stay resident.
const maxPooledBody = 1 << 20

var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBody appends everything r yields to dst. sizeHint (the request's
// Content-Length, or -1) sizes dst up front, up to maxPooledBody.
func readBody(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	if sizeHint > 0 {
		dst = slices.Grow(dst, int(min(sizeHint, maxPooledBody))+1)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// wireReader walks one JSON document. Every method leaves i on the
// first byte it did not consume.
type wireReader struct {
	b []byte
	i int
}

func (d *wireReader) syntaxError() error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", d.b[d.i], d.i)
}

func typeError(what, field string) error {
	return fmt.Errorf("cannot decode JSON %s into field %q", what, field)
}

func (d *wireReader) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *wireReader) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// literal consumes lit if the input continues with it.
func (d *wireReader) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null value: a scalar field it lands on is left as it
// is, as encoding/json leaves it.
func (d *wireReader) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if !d.literal("null") {
		return false, d.syntaxError()
	}
	return true, nil
}

// kind names the JSON value at i for a type error.
func (d *wireReader) kind() string {
	switch d.peek() {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// stringToken consumes one string token. raw is its content when the
// token is plain printable ASCII, copied as it is; otherwise raw is nil
// and tok is the whole quoted token, for json.Unmarshal to unescape.
func (d *wireReader) stringToken() (raw, tok []byte, err error) {
	b, start := d.b, d.i
	if d.peek() != '"' {
		return nil, nil, d.syntaxError()
	}
	i := start + 1
	for i < len(b) {
		c := b[i]
		if c == '"' {
			d.i = i + 1
			return b[start+1 : i], nil, nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	for i < len(b) {
		switch b[i] {
		case '\\':
			i += 2
			continue
		case '"':
			d.i = i + 1
			return nil, b[start:d.i], nil
		}
		i++
	}
	d.i = len(b)
	return nil, nil, d.syntaxError()
}

// str decodes one string value (null leaves *dst as it is).
func (d *wireReader) str(dst *string, field string) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.peek() != '"' {
		return typeError(d.kind(), field)
	}
	raw, tok, err := d.stringToken()
	if err != nil {
		return err
	}
	if tok != nil {
		s, err := unquote(tok)
		*dst = s
		return err
	}
	*dst = string(raw)
	return nil
}

// unquote unescapes a string token through encoding/json, which also
// writes each invalid UTF-8 byte as U+FFFD.
func unquote(tok []byte) (string, error) {
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// number consumes a number value into num, converting it in the pass
// that checks its grammar (jsonw.ReadNumber); null gives false, which
// leaves the field as it is.
func (d *wireReader) number(num *jsonw.Number, field string) (bool, error) {
	if isNull, err := d.null(); isNull || err != nil {
		return false, err
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return false, typeError(d.kind(), field)
	}
	end, ok := jsonw.ReadNumber(num, d.b, d.i)
	d.i = end
	if !ok {
		return false, d.syntaxError()
	}
	return true, nil
}

func (d *wireReader) integer(dst *int, field string) error {
	var num jsonw.Number
	if ok, err := d.number(&num, field); !ok {
		return err
	}
	v, ok := num.Int64()
	if !ok {
		return fmt.Errorf("number %s does not fit int field %q", num.Text, field)
	}
	*dst = int(v)
	return nil
}

func (d *wireReader) float(dst *float64, field string) error {
	var num jsonw.Number
	if ok, err := d.number(&num, field); !ok {
		return err
	}
	v, err := num.Float64()
	if err != nil {
		return fmt.Errorf("number %s does not fit float field %q", num.Text, field)
	}
	*dst = v
	return nil
}

func (d *wireReader) boolean(dst *bool, field string) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	case d.peek() == 't' || d.peek() == 'f':
		return d.syntaxError()
	default:
		return typeError(d.kind(), field)
	}
	return nil
}

// sizeHint guesses how many elements the array at i holds: the commas
// before the first ']', plus one. That is exact for an array of
// numbers. It is capped at what the bytes up to that ']' could hold, so
// a body of commas sizes no larger a slice than a valid array of the
// same length would.
func (d *wireReader) sizeHint() int {
	rest := d.b[d.i+1:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(rest[:end], []byte{','})+1, (end+1)/2)
}

// array decodes one array value into *dst as encoding/json decodes
// into a slice: null gives nil and [] an empty, non-nil slice; else
// the backing array is reused while it is large enough, a larger one
// starts as a copy of all of it, and elem decodes each element in
// place. An element that is null therefore keeps what the backing
// array held there. Only what sizeHint undercounts grows the slice.
func array[T any](d *wireReader, dst *[]T, field string, elem func(*T) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		if isNull {
			*dst = nil
		}
		return err
	}
	if d.peek() != '[' {
		return typeError(d.kind(), field)
	}
	s := (*dst)[:0]
	if n := d.sizeHint(); n > cap(s) {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		s = grown[:0]
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		*dst = []T{}
		return nil
	}
	for {
		var zero T
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			s = append(s, zero)
		}
		d.space()
		if err := elem(&s[len(s)-1]); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			*dst = s
			return nil
		default:
			return d.syntaxError()
		}
	}
}

// object walks one object value whose opening brace is at i, calling
// member for each key (unescaped) with i on the member's value.
func (d *wireReader) object(member func(key []byte) error) error {
	d.i++
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		raw, tok, err := d.stringToken()
		if err != nil {
			return err
		}
		if tok != nil {
			s, err := unquote(tok)
			if err != nil {
				return err
			}
			raw = []byte(s)
		}
		d.space()
		if d.peek() != ':' {
			return d.syntaxError()
		}
		d.i++
		d.space()
		if err := member(raw); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.syntaxError()
		}
	}
}

// openObject reports whether an object value starts at i: null gives
// false and no error, anything but an object a type error.
func (d *wireReader) openObject(field string) (bool, error) {
	if isNull, err := d.null(); isNull || err != nil {
		return false, err
	}
	if d.peek() != '{' {
		return false, typeError(d.kind(), field)
	}
	return true, nil
}

// foldKey upper-cases a key as encoding/json folds a key it matches
// against a field name: ASCII letters directly, other runes through
// unicode.ToUpper(unicode.ToLower(r)), so "ſ" (U+017F) folds to "S".
func foldKey(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		dst = utf8.AppendRune(dst, unicode.ToUpper(unicode.ToLower(r)))
		i += size
	}
	return dst
}

func unknownField(key []byte) error {
	return fmt.Errorf("json: unknown field %q", key)
}

// decodeRequest decodes body into req with json.Decoder's rules under
// DisallowUnknownFields: keys match field names case-insensitively, the
// last of duplicate keys wins (params merge, and an object decodes into
// what an earlier key left), null leaves a scalar as it is and nils a
// slice, map or pointer, and bytes after the top-level value are not
// read. No slice of req aliases body.
func decodeRequest(body []byte, req *SolveRequest) error {
	d := &wireReader{b: body}
	d.space()
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.peek() != '{' {
		if d.i >= len(d.b) {
			return d.syntaxError()
		}
		return fmt.Errorf("cannot decode JSON %s into a solve request", d.kind())
	}
	var fold [32]byte
	return d.object(func(key []byte) error {
		switch string(foldKey(fold[:0], key)) {
		case "TENANT":
			return d.str(&req.Tenant, "tenant")
		case "BACKEND":
			return d.str(&req.Backend, "backend")
		case "PARAMS":
			return d.params(&req.Params)
		case "PROCS":
			return d.integer(&req.Procs, "procs")
		case "WORKERS":
			return d.integer(&req.Workers, "workers")
		case "OPERATOR":
			if ok, err := d.openObject("operator"); !ok || err != nil {
				return err
			}
			return d.operator(&req.Operator)
		case "RHS":
			return array(d, &req.RHS, "rhs", func(v *float64) error { return d.float(v, "rhs") })
		case "NRHS":
			return d.integer(&req.NRHS, "nrhs")
		case "RETURN_SOLUTION":
			return d.boolean(&req.ReturnSolution, "return_solution")
		case "TELEMETRY":
			return d.boolean(&req.Telemetry, "telemetry")
		case "FAILOVER":
			return array(d, &req.Failover, "failover", func(v *string) error { return d.str(v, "failover") })
		case "FAULT_SPEC":
			return d.str(&req.FaultSpec, "fault_spec")
		}
		return unknownField(key)
	})
}

// params merges an object of strings into *m (a null member sets "").
func (d *wireReader) params(m *map[string]string) error {
	ok, err := d.openObject("params")
	if !ok {
		if err == nil {
			*m = nil
		}
		return err
	}
	if *m == nil {
		*m = map[string]string{}
	}
	return d.object(func(key []byte) error {
		var v string
		if err := d.str(&v, "params"); err != nil {
			return err
		}
		(*m)[string(key)] = v
		return nil
	})
}

func (d *wireReader) operator(op *OperatorRef) error {
	var fold [32]byte
	return d.object(func(key []byte) error {
		switch string(foldKey(fold[:0], key)) {
		case "ID":
			return d.str(&op.ID, "id")
		case "VERSION":
			return d.integer(&op.Version, "version")
		case "GRID_N":
			return d.integer(&op.GridN, "grid_n")
		case "MATRIX":
			ok, err := d.openObject("matrix")
			if !ok {
				if err == nil {
					op.Matrix = nil
				}
				return err
			}
			if op.Matrix == nil {
				op.Matrix = &MatrixPayload{}
			}
			return d.matrix(op.Matrix)
		case "MATRIX_MARKET":
			return d.str(&op.MatrixMarket, "matrix_market")
		}
		return unknownField(key)
	})
}

func (d *wireReader) matrix(m *MatrixPayload) error {
	var fold [32]byte
	return d.object(func(key []byte) error {
		switch string(foldKey(fold[:0], key)) {
		case "N":
			return d.integer(&m.N, "n")
		case "ROWPTR":
			return array(d, &m.RowPtr, "rowptr", func(v *int) error { return d.integer(v, "rowptr") })
		case "COLIND":
			return array(d, &m.ColInd, "colind", func(v *int) error { return d.integer(v, "colind") })
		case "VALS":
			return array(d, &m.Vals, "vals", func(v *float64) error { return d.float(v, "vals") })
		}
		return unknownField(key)
	})
}

// floatBytes bounds the text of one float64 as jsonw.AppendFloat writes it,
// with its separator ("-0.0000012345678901234567,").
const floatBytes = 26

// appendResponse appends resp as json.Marshal writes it, plus "\n", in
// one growth of dst sized for the solution and the residual trace. A
// non-finite float is written as null.
func appendResponse(dst []byte, resp *SolveResponse) []byte {
	size := 512 + floatBytes*len(resp.Solution) +
		6*(len(resp.Tenant)+len(resp.Backend)+len(resp.OperatorID)+len(resp.FailReason))
	if rep := resp.Report; rep != nil {
		size += 1024 + (floatBytes+16)*len(rep.ResidualTrace) +
			64*(len(rep.Phases)+len(rep.Counters)+len(rep.Labels))
	}
	b := slices.Grow(dst, size)
	b = jsonw.AppendString(append(b, `{"tenant":`...), resp.Tenant)
	b = jsonw.AppendString(append(b, `,"backend":`...), resp.Backend)
	b = jsonw.AppendString(append(b, `,"operator_id":`...), resp.OperatorID)
	b = jsonw.AppendInt(append(b, `,"operator_version":`...), resp.OperatorVersion)
	b = jsonw.AppendInt(append(b, `,"iterations":`...), resp.Iterations)
	b = jsonw.AppendFloat(append(b, `,"residual":`...), resp.Residual)
	b = strconv.AppendBool(append(b, `,"converged":`...), resp.Converged)
	b = jsonw.AppendString(append(b, `,"fail_reason":`...), resp.FailReason)
	b = jsonw.AppendInt(append(b, `,"attempts":`...), resp.Attempts)
	b = strconv.AppendBool(append(b, `,"session_reused":`...), resp.SessionReused)
	if resp.Batched {
		b = append(b, `,"batched":true`...)
	}
	b = jsonw.AppendInt(append(b, `,"nrhs":`...), resp.NRHS)
	b = jsonw.AppendFloat(append(b, `,"solve_wall_s":`...), resp.SolveWallS)
	if len(resp.Solution) > 0 {
		b = append(b, `,"solution":[`...)
		for i, v := range resp.Solution {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonw.AppendFloat(b, v)
		}
		b = append(b, ']')
	}
	if resp.Report != nil {
		b = telemetry.AppendReport(append(b, `,"report":`...), resp.Report)
	}
	return append(b, "}\n"...)
}
