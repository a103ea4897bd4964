// Package jsonw appends JSON values byte for byte as encoding/json's
// Marshal writes them — HTML escaping on, map keys sorted, floats in
// their shortest round-trip form — with one difference: a NaN or ±Inf,
// which encoding/json refuses, is written as null. The service's
// /v1/solve replies and the telemetry report files are written with it,
// so both follow the one rule for non-finite values.
package jsonw

import (
	"math"
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

// AppendFloat writes f as encoding/json does — the shortest decimal
// that reads back to the same bits, in 'e' form below 1e-6 and from
// 1e21, with the exponent unpadded — and a NaN or ±Inf as null.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
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
