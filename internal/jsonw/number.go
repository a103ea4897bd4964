package jsonw

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// Number is one JSON number token with its decimal value, read in the
// pass that checks the token's grammar: the value is ±mant·10^exp10
// unless a nonzero digit past the 19th was dropped (trunc).
type Number struct {
	Text  []byte // the token as it stands in the input
	mant  uint64 // the first 19 significant digits
	exp10 int
	neg   bool
	trunc bool
	point bool // the token has a fraction or an exponent part
}

// maxMantDigits is how many significant digits mant holds: 10^19 fits a
// uint64.
const maxMantDigits = 19

// ReadNumber reads one token of the JSON number grammar that starts at
// b[i] into num. It returns the index of the first byte after it; when
// the grammar fails, ok is false and end is the offending byte's index
// (len(b) at the end of the input).
func ReadNumber(num *Number, b []byte, i int) (end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		mant  uint64
		nd    int // digits held in mant
		exp10 int
		trunc bool
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		i, mant, nd, trunc = digits(b, i, 0, 0)
		exp10 = i - j - nd // the integer digits dropped
	default:
		return i, false
	}
	point := false
	if i < len(b) && b[i] == '.' {
		point = true
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return i, false
		}
		if mant == 0 { // leading zeros
			for ; i < len(b) && b[i] == '0'; i++ {
				exp10--
			}
		}
		held, t := nd, false
		i, mant, nd, t = digits(b, i, mant, nd)
		exp10 -= nd - held // the fraction digits kept
		trunc = trunc || t
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		point = true
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return i, false
		}
		// Past 10,000 the exponent is out of every range that matters;
		// it stops growing there so it cannot overflow.
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	num.Text = b[start:i]
	num.mant, num.exp10 = mant, exp10
	num.neg, num.trunc, num.point = neg, trunc, point
	return i, true
}

// digits reads the run of digits at b[i:] into mant, which holds nd of
// them, up to maxMantDigits: eight at a time while they fit, then one
// by one. It returns the index after the run, mant and nd, and whether
// a nonzero digit was dropped.
func digits(b []byte, i int, mant uint64, nd int) (int, uint64, int, bool) {
	for nd+8 <= maxMantDigits && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		mant = mant*1e8 + eightDigitsValue(v)
		nd += 8
		i += 8
	}
	trunc := false
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if nd < maxMantDigits {
			mant = mant*10 + uint64(b[i]-'0')
			nd++
		} else if b[i] != '0' {
			trunc = true
		}
	}
	return i, mant, nd, trunc
}

// eightDigits reports whether the eight bytes of v, read little-endian,
// are all ASCII digits.
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// eightDigitsValue is the value of the eight ASCII digits in v, read
// little-endian (the first digit is the low byte), in three multiplies.
func eightDigitsValue(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte pairs: two-digit values in every other byte
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	return ((v&mask)*mul1 + (v>>16&mask)*mul2) >> 32 & 0xFFFFFFFF
}

// Int64 returns the number as an int64, as strconv.ParseInt(Text, 10,
// 64) does; ok is false for a fraction, an exponent or a value out of
// range, which ParseInt refuses.
func (n *Number) Int64() (v int64, ok bool) {
	if n.point || n.exp10 != 0 {
		return 0, false
	}
	if n.neg {
		if n.mant > 1<<63 {
			return 0, false
		}
		return -int64(n.mant), true
	}
	if n.mant > math.MaxInt64 {
		return 0, false
	}
	return int64(n.mant), true
}

// Float64 returns the float64 nearest the number, with the bits and the
// error of strconv.ParseFloat(Text, 64). The conversion is exact
// arithmetic when the digits and the power of ten are exact doubles,
// and Eisel–Lemire over pow10Table otherwise. strconv.ParseFloat is
// called only for a truncated mantissa, a power of ten outside the
// table, a subnormal or overflowing result, and the rare input
// Eisel–Lemire cannot round from 128 bits.
func (n *Number) Float64() (float64, error) {
	if !n.trunc {
		if f, ok := exactFloat(n.mant, n.exp10, n.neg); ok {
			return f, nil
		}
		if f, ok := eiselLemire(n.mant, n.exp10, n.neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(n.Text), 64)
}

// exactPow10 holds the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat is Clinger's fast path: when mant < 2^52 and 10^|exp10|
// are both exact doubles, one correctly rounded multiply or divide is
// the answer. An exponent up to 15 past 22 is moved into the mantissa
// while that stays an exact integer (≤ 10^15).
func exactFloat(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant>>52 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		if exp10 > 22 {
			f *= exactPow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / exactPow10[-exp10], true
	}
	return 0, false
}

// eiselLemire converts ±mant·10^exp10 (mant ≤ 19 digits) to the
// nearest float64 by one 64×128-bit product with pow10Table, or says it
// cannot (ok false): a product too close to a halfway point to round
// from 128 bits, a subnormal or overflowing result, or exp10 outside
// the table. Its answers are correctly rounded (Lemire, "Number Parsing
// at a Gigabyte per Second", 2021).
func eiselLemire(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	if mant == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]
	lz := bits.LeadingZeros64(mant)
	mant <<= uint(lz)
	// The biased binary exponent of the result if the product's top bit
	// is set; one less if it is clear.
	exp2 := uint64(log2Pow10(exp10)+64+1023) - uint64(lz)

	hi, lo := bits.Mul64(mant, pow[0])
	// When the bits below the 54 kept are all ones, the low half of the
	// power, left out so far, may carry into them: multiply it in too,
	// and give up if the carry is still undecided.
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		hi2, lo2 := bits.Mul64(mant, pow[1])
		mergedHi, mergedLo := hi, lo+hi2
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && lo2+mant < mant {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits: the 53 of the result and one to round with.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top

	// Exactly halfway between two doubles as far as 128 bits tell.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 ≤ 0 (a subnormal, wrapped round as a uint64) or ≥ 0x7FF.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fbits := exp2<<52 | m&(1<<52-1)
	if neg {
		fbits |= 1 << 63
	}
	return math.Float64frombits(fbits), true
}

// log2Pow10 is ⌊log2 10^k⌋ for k in [pow10Min, pow10Max]
// (217706/2^16 ≈ log2 10; TestPow10Table checks every k).
func log2Pow10(k int) int { return 217706 * k >> 16 }
