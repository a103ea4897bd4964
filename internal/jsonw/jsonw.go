// Package jsonw appends JSON values byte for byte as encoding/json's
// Marshal writes them — HTML escaping on, map keys sorted, floats in
// their shortest round-trip form — with one difference: a NaN or ±Inf,
// which encoding/json refuses, is written as null. The service's
// /v1/solve replies and the telemetry report files are written with it,
// so both follow the one rule for non-finite values. It also reads JSON
// numbers (ReadNumber) to the values strconv gives, which is how the
// service reads a request's numbers.
//
// Floats are converted here, not by strconv: Schubfach's shortest
// digits on the way out, Clinger's fast path or Eisel–Lemire on the way
// in, both over one generated table of 128-bit powers of ten
// (pow10.go). The bits and bytes are strconv's, which the package's
// tests and fuzz target check against the standard library.
package jsonw

import (
	"sort"
	"strconv"
	"unicode/utf8"
)

// AppendInt writes v in decimal.
func AppendInt[T int | int64](b []byte, v T) []byte { return strconv.AppendInt(b, int64(v), 10) }

// AppendMap writes m with its keys in sorted order, as encoding/json
// does; a nil map is null.
func AppendMap[V any](b []byte, m map[string]V, value func([]byte, V) []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		b = value(b, m[k])
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// AppendString writes s quoted as encoding/json does with HTML
// escaping on: <, > and & as \u00XX, control bytes escaped, invalid
// UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
