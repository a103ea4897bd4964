package jsonw

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// parseText reads text as the service reads a number: the grammar pass
// and then Float64. ok is false when the grammar refuses it.
func parseText(text []byte) (v float64, err error, ok bool) {
	var num Number
	end, ok := ReadNumber(&num, text, 0)
	if !ok || end != len(text) {
		return 0, nil, false
	}
	v, err = num.Float64()
	return v, err, true
}

// checkParse fails t unless text parses to strconv.ParseFloat's bits
// and refuses what it refuses; it returns the value.
func checkParse(t *testing.T, text []byte) float64 {
	got, gerr, ok := parseText(text)
	if !ok {
		t.Helper() // here, not on entry: Helper costs a stack walk a call
		t.Fatalf("%q: refused by the number grammar", text)
	}
	want, werr := strconv.ParseFloat(string(text), 64)
	if (gerr == nil) != (werr == nil) {
		t.Helper()
		t.Fatalf("%q: error %v, strconv error %v", text, gerr, werr)
	}
	if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("%q: %v (%#x), strconv %v (%#x)", text, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return got
}

// checkFormat fails t unless AppendFloat writes json.Marshal's bytes for
// the finite f, and those bytes parse back to f's bits.
func checkFormat(t *testing.T, buf []byte, f float64) []byte {
	buf = AppendFloat(buf[:0], f)
	want, err := json.Marshal(f)
	if err != nil {
		t.Helper()
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Helper()
		t.Fatalf("%#x: AppendFloat %s, json.Marshal %s", math.Float64bits(f), buf, want)
	}
	if back := checkParse(t, buf); math.Float64bits(back) != math.Float64bits(f) {
		t.Helper()
		t.Fatalf("%#x: %s reads back as %#x", math.Float64bits(f), buf, math.Float64bits(back))
	}
	return buf
}

// edgeFloats are the values where a float formatter most often parts
// from strconv: zeros, the subnormal and normal ends, both sides of
// encoding/json's 1e-6 and 1e21 cut-offs, and the edges of exact
// integers.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-323,
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
	math.SmallestNonzeroFloat64 * 2, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 9.99999e-7, 1.0000001e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), -1e21, 999999999999999900000, 1e20, 1.5e21,
	1 << 53, 1<<53 - 1, 1<<53 + 2, 1 << 52, 1<<52 + 1, 1 << 54, 1 << 63, 1 << 64, 9007199254740993,
	0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 1, -1, 100, 1e15, 1e16, 1e17, 123456789.123, 1.7976931348623157e308,
	5e-7, 1e-7, 2.5e-7, 1.5e-10, 1e-100, 1e-310, 4.9406564584124654e-324, 1e22, 1e23, 1e300, 1e308,
	8.41e21, 5.0e-324, 2.4703282292062328e-324, 3e-16, 8.3e-5, 0.0012345678901234567,
}

// edgeTexts are the number texts where a parser most often parts from
// strconv: halfway cases, 19- and 20-digit mantissas, leading zeros,
// exponent forms, and out-of-range exponents (1e400 is refused, 1e-400
// reads as 0).
var edgeTexts = []string{
	"0", "-0", "0.0", "-0.0", "0e5", "0E-5", "0e99999", "-0e-99999", "0.000e10", "1E+2", "1e+2", "1e-2", "1E2",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740993.0000000000000000001", "4503599627370497", "4503599627370496.5", "4503599627370497.5",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "4.9406564584124654e-324",
	"2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "0.1", "0.30000000000000004", "123456789.123",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "99999999999999999999",
	"18446744073709551615", "18446744073709551616", "1.234567890123456789e-5", "1.2345678901234567890e-5",
	"0.000000000000000000000000000001234", "0.00000000000000000000000000000000000000000000000000001",
	"100000000000000000000000000000000000000000000000000000000000000000001", "1000000000000000000000000",
	"7.8459735791271921e65", "3.571e266", "3.08984926168550152811e-32", "6.9294956446009195e15",
	"1e22", "1e23", "8.41e21", "1e-6", "9.999999999999999e-7", "1e21", "999999999999999999999",
	"1e308", "1e309", "1e400", "-1e400", "1e-400", "-1e-400", "1e-325", "1e-324", "2e-324", "3e-324",
	"1e-348", "1e-349", "1e347", "1e348", "123e-350", "0.123e349",
}

func TestFloatEdgeCases(t *testing.T) {
	var buf []byte
	for _, f := range edgeFloats {
		buf = checkFormat(t, buf, f)
		buf = checkFormat(t, buf, -f)
	}
	for _, s := range edgeTexts {
		checkParse(t, []byte(s))
		if s[0] != '-' {
			checkParse(t, []byte("-"+s))
		}
	}
	for _, s := range []string{"1e400", "-1e400", "1e309"} {
		if _, err, _ := parseText([]byte(s)); err == nil {
			t.Errorf("%s: no error, want strconv's range error", s)
		}
	}
	if v, err, _ := parseText([]byte("1e-400")); err != nil || math.Float64bits(v) != 0 {
		t.Errorf("1e-400: %v, %v; want +0", v, err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendFloat(nil, f)); got != "null" {
			t.Errorf("%v: %s, want null", f, got)
		}
	}
}

// TestNumberGrammar: ReadNumber stops where the JSON number grammar
// stops, and refuses what it refuses.
func TestNumberGrammar(t *testing.T) {
	for _, tc := range []struct {
		in  string
		end int
		ok  bool
	}{
		{"0", 1, true}, {"-0,", 2, true}, {"01", 1, true}, {"12.5e+3]", 7, true}, {"1E2x", 3, true},
		{"-", 1, false}, {"+1", 0, false}, {".5", 0, false}, {"1.", 2, false}, {"1.e5", 2, false},
		{"1e", 2, false}, {"1e+", 3, false}, {"-a", 1, false}, {"", 0, false},
	} {
		var num Number
		end, ok := ReadNumber(&num, []byte(tc.in), 0)
		if end != tc.end || ok != tc.ok {
			t.Errorf("%q: end %d ok %v, want %d %v", tc.in, end, ok, tc.end, tc.ok)
		}
	}
}

// TestInt64MatchesParseInt: Int64 accepts what strconv.ParseInt accepts
// of a number token, with its value.
func TestInt64MatchesParseInt(t *testing.T) {
	for _, s := range []string{"0", "-0", "1", "-1", "42", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "9999999999999999999", "10000000000000000000",
		"18446744073709551616", "123456789012345678901234567890", "1.0", "1e2", "-3", "1.5", "0e0"} {
		var num Number
		if _, ok := ReadNumber(&num, []byte(s), 0); !ok {
			t.Fatalf("%q refused", s)
		}
		got, gok := num.Int64()
		want, err := strconv.ParseInt(s, 10, 64)
		if gok != (err == nil) || gok && got != want {
			t.Errorf("%q: Int64 %d %v, ParseInt %d %v", s, got, gok, want, err)
		}
	}
}

// TestFloatCodecRandom: a million seeded float64s, as random bit
// patterns, as short decimals and around the layout cut-offs, format
// as json.Marshal does and parse as strconv.ParseFloat does — the
// shortest text, and a 17 to 21 digit 'e' form that takes the
// truncated-mantissa path.
func TestFloatCodecRandom(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(53))
	var buf, long []byte
	for i := 0; i < n; i++ {
		var f float64
		switch i % 4 {
		case 0, 1:
			f = math.Float64frombits(rng.Uint64())
		case 2: // a decimal of 1 to 17 digits
			d := rng.Int63n(int64(math.Pow10(1 + rng.Intn(17))))
			f = float64(d) * math.Pow10(rng.Intn(60)-40)
		case 3: // a power of ten or one of its two neighbours
			f = math.Pow10(rng.Intn(60) - 30)
			f = math.Nextafter(f, f*float64(rng.Intn(3)))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		buf = checkFormat(t, buf, f)
		if i%8 == 0 {
			long = strconv.AppendFloat(long[:0], f, 'e', 16+i/8%5, 64)
			checkParse(t, long)
		}
	}
}

// FuzzFloatCodecMatchesStrconv: any float64 formats as json.Marshal
// writes it (null when not finite), that text reads back to its bits as
// strconv.ParseFloat reads it, and so does its 'e' form at any
// precision.
func FuzzFloatCodecMatchesStrconv(f *testing.F) {
	for _, v := range edgeFloats {
		f.Add(math.Float64bits(v), uint8(17))
	}
	f.Add(math.Float64bits(math.NaN()), uint8(0))
	f.Add(math.Float64bits(1e23), uint8(25))
	f.Fuzz(func(t *testing.T, fbits uint64, prec uint8) {
		v := math.Float64frombits(fbits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if got := string(AppendFloat(nil, v)); got != "null" {
				t.Fatalf("%v: %s, want null", v, got)
			}
			return
		}
		checkFormat(t, nil, v)
		checkParse(t, strconv.AppendFloat(nil, v, 'e', int(prec%30)-1, 64))
		checkParse(t, strconv.AppendFloat(nil, v, 'f', int(prec%30)-1, 64))
	})
}

// TestPow10Table recomputes every entry with math/big: 10^k lies in
// [m, m+1)·2^(e-127), m has its top bit set, and e = log2Pow10(k).
func TestPow10Table(t *testing.T) {
	ten := big.NewInt(10)
	for k := pow10Min; k <= pow10Max; k++ {
		hi, lo := pow10Table[k-pow10Min][0], pow10Table[k-pow10Min][1]
		if hi>>63 != 1 {
			t.Fatalf("1e%d: top bit clear", k)
		}
		m := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		m.Or(m, new(big.Int).SetUint64(lo))
		// 10^k = num/den; compare num with m·2^s·den and (m+1)·2^s·den.
		num, den := big.NewInt(1), big.NewInt(1)
		if k >= 0 {
			num.Exp(ten, big.NewInt(int64(k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-k)), nil)
		}
		s := log2Pow10(k) - 127
		lower := new(big.Int).Mul(m, den)
		upper := new(big.Int).Add(lower, den)
		if s >= 0 {
			lower.Lsh(lower, uint(s))
			upper.Lsh(upper, uint(s))
		} else {
			num.Lsh(num, uint(-s))
		}
		if lower.Cmp(num) > 0 || num.Cmp(upper) >= 0 {
			t.Fatalf("1e%d: table entry %#x%016x is not ⌊10^k·2^(127-e)⌋ with e = %d", k, hi, lo, s+127)
		}
	}
}

// BenchmarkJSONFloat formats 1,024 full-precision values, as the
// service's solution vector holds, and parses them back.
// scripts/benchguard.sh pins it at 0 allocs/op.
func BenchmarkJSONFloat(b *testing.B) {
	const n = 1024
	vals := make([]float64, n)
	var text []byte
	ends := make([]int, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)+0.5) / 7
		text = AppendFloat(text, vals[i])
		ends[i] = len(text)
	}
	buf := make([]byte, 0, len(text))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range vals {
			buf = AppendFloat(buf, v)
		}
		start := 0
		var num Number
		for j, end := range ends {
			ReadNumber(&num, text[:end], start)
			if v, err := num.Float64(); err != nil || v != vals[j] {
				b.Fatalf("value %d: %v %v", j, v, err)
			}
			start = end
		}
	}
}
