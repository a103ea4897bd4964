package jsonw

import (
	"encoding/binary"
	"math"
	"math/bits"
)

//go:generate go run gen_pow10.go

// AppendFloat writes f as encoding/json does — the shortest decimal
// that reads back to the same bits (the nearest of them when several
// are as short, ties to even), in 'e' form below 1e-6 and from 1e21,
// with the exponent unpadded — and a NaN or ±Inf as null. The bytes are
// strconv.AppendFloat(b, f, 'f' or 'e', -1, 64)'s after encoding/json's
// e-07 → e-7 clean-up; the digits come from shortestDecimal, not from
// strconv.
func AppendFloat(b []byte, f float64) []byte {
	fbits := math.Float64bits(f)
	exp := int(fbits>>52) & 0x7FF
	if exp == 0x7FF {
		return append(b, "null"...)
	}
	if fbits>>63 != 0 {
		b = append(b, '-')
	}
	mant := fbits & (1<<52 - 1)
	if exp == 0 && mant == 0 {
		return append(b, '0')
	}
	d, e10 := shortestDecimal(mant, exp)
	for d%10 == 0 {
		d /= 10
		e10++
	}
	var digits [20]byte
	ds := digits[putDigits(digits[:], d):]
	n := len(ds)
	// dp is where the decimal point falls: the value is 0.ds·10^dp.
	dp := n + e10
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		b = append(b, ds[0])
		if n > 1 {
			b = append(b, '.')
			b = append(b, ds[1:]...)
		}
		x := dp - 1
		if x < 0 {
			b = append(b, 'e', '-')
			x = -x
		} else {
			b = append(b, 'e', '+')
		}
		var xs [3]byte
		return append(b, xs[putDigits(xs[:], uint64(x)):]...)
	}
	switch {
	case dp <= 0:
		b = append(b, "0.000000"[:2-dp]...)
		return append(b, ds...)
	case dp < n:
		b = append(b, ds[:dp]...)
		b = append(b, '.')
		return append(b, ds[dp:]...)
	}
	b = append(b, ds...)
	return append(b, "000000000000000000000"[:dp-n]...)
}

// digitPairs is "00" to "99" back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes v in decimal at the end of buf and returns the index
// of its first digit. Eight digits at a time are split off in 64-bit
// arithmetic, and each eight in 32-bit, two digits a step.
func putDigits(buf []byte, v uint64) int {
	i := len(buf)
	for v >= 1e8 {
		q := v / 1e8
		i -= 8
		putEight(buf[i:i+8], uint32(v-q*1e8))
		v = q
	}
	w := uint32(v)
	for w >= 100 {
		q := w / 100
		r := (w - q*100) * 2
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		w = q
	}
	if w >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*w], digitPairs[2*w+1]
		return i
	}
	i--
	buf[i] = byte('0' + w)
	return i
}

// putEight writes v < 10^8 as exactly eight digits, all eight at once:
// v is split into two 4-digit lanes of a uint64, each lane into two
// 2-digit lanes, each of those into two digits, by multiply-and-shift
// divisions that stay exact below 10^4, 100 and 10 (Khuong).
func putEight(dst []byte, v uint32) {
	x := uint64(v/10000) | uint64(v%10000)<<32
	hi := (x * 10486 >> 20) & (0x7F<<32 | 0x7F)
	x = (x-100*hi)<<16 | hi
	hi = (x * 103 >> 10) & (0xF<<48 | 0xF<<32 | 0xF<<16 | 0xF)
	x = (x-10*hi)<<8 | hi
	binary.LittleEndian.PutUint64(dst, x+0x3030303030303030)
}

// shortestDecimal returns d and e such that d·10^e is the shortest
// decimal that rounds to the positive float64 with the given mantissa
// bits and biased exponent, the nearest when several are as short,
// ties to the even one. d may end in zeros. It is Schubfach (Giulietti,
// "The Schubfach way to render doubles", 2020): the value's rounding
// interval is scaled by one 10^-k from pow10Table, the decimals of one
// digit fewer than the scaled value are tried first, and the value
// itself is rounded last.
func shortestDecimal(mant uint64, exp int) (d uint64, e int) {
	c, q := mant, -1074
	if exp != 0 {
		c, q = 1<<52|mant, exp-1075
		// An integer below 2^53 is its own shortest decimal.
		if q <= 0 && q > -53 && c&(1<<uint(-q)-1) == 0 {
			return c >> uint(-q), 0
		}
	}
	// The interval's lower half is half as wide at a power of two.
	lowerCloser := mant == 0 && exp > 1
	var odd uint64 // an odd mantissa's interval excludes its ends
	if c&1 != 0 {
		odd = 1
	}
	cb := 4 * c
	cbl, cbr := cb-2, cb+2
	// k = ⌊log10 2^q⌋, or ⌊log10 (3/4·2^q)⌋ with lowerCloser.
	k := q * 1262611 >> 22
	if lowerCloser {
		cbl++
		k = (q*1262611 - 524031) >> 22
	}
	h := uint(q + log2Pow10(-k) + 1) // 1 to 4
	pow := &pow10Table[-k-pow10Min]
	gHi, gLo := pow[0], pow[1]+1 // g = ⌊10^-k·2^r⌋ + 1 > 10^-k·2^r
	if gLo == 0 {
		gHi++
	}
	vbl := roundToOdd(gHi, gLo, cbl<<h) + odd
	vb := roundToOdd(gHi, gLo, cb<<h)
	vbr := roundToOdd(gHi, gLo, cbr<<h) - odd

	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upIn := vbl <= 40*sp
		wpIn := 40*sp+40 <= vbr
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return sp, k + 1
		}
	}
	uIn := vbl <= 4*s
	wIn := 4*s+4 <= vbr
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g·cp / 2^128⌋ with its last bit set when anything
// below was dropped, g being the 128-bit gHi:gLo.
func roundToOdd(gHi, gLo, cp uint64) uint64 {
	xHi, _ := bits.Mul64(gLo, cp)
	yHi, yLo := bits.Mul64(gHi, cp)
	z, carry := bits.Add64(yLo, xHi, 0)
	y := yHi + carry
	if z > 1 {
		y |= 1
	}
	return y
}
