package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// decimal is a JSON number as the NDJSON decoders scan it, in one pass over
// its bytes: ±m × 10^e10, m the first 19 significant digits (10^19 < 2^64).
// nd counts the digits in m; integral means no fraction and no exponent;
// trunc, that m × 10^e10 is not the number (see digits and number).
type decimal struct {
	m                    uint64
	e10, nd              int
	neg, integral, trunc bool
}

// The significant digits a uint64 always holds; the largest k with
// 5^k < 2^64; an exponent past any float64, short of overflowing an int.
const maxDigits, maxPow5, maxExp10 = 19, 27, 10_000

var pow5 = [maxPow5 + 1]uint64{1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625,
	48828125, 244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125, 3814697265625,
	19073486328125, 95367431640625, 476837158203125, 2384185791015625, 11920928955078125, 59604644775390625,
	298023223876953125, 1490116119384765625, 7450580596923828125}

// number scans the JSON number -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// at o.p into o.num (not a result: copying one whole stalls on its fields
// just stored), leaving o.p past it; an exponent ≥ maxExp10 sets trunc.
func (o *object) number() {
	b, p, d := o.b, o.p, &o.num
	*d = decimal{}
	if d.neg = p < len(b) && b[p] == '-'; d.neg {
		p++
	}
	switch {
	case p < len(b) && b[p] == '0':
		p++
	case p < len(b) && b[p]-'1' < 9:
		p = d.digits(b, p, 0)
	default: // a failure sticks; scanning on past it is harmless
		o.bad("expected number at offset %d", p)
	}
	intEnd := p
	if p < len(b) && b[p] == '.' {
		if p = d.digits(b, p+1, 1); p == intEnd+1 {
			o.bad("expected digit at offset %d", p)
		}
	}
	if p < len(b) && b[p]|0x20 == 'e' {
		sign, exp := 1, 0
		if p++; p < len(b) && (b[p] == '-' || b[p] == '+') {
			sign, p = int(',')-int(b[p]), p+1 // '+' and '-' flank ','
		}
		start := p
		for ; p < len(b) && b[p]-'0' < 10; p++ {
			exp = min(exp*10+int(b[p]-'0'), maxExp10)
		}
		if p == start {
			o.bad("expected exponent digit at offset %d", p)
		}
		d.e10, d.trunc = d.e10+sign*exp, d.trunc || exp == maxExp10
	}
	d.integral = p == intEnd
	o.p = p
}

// digits adds the digits at b[p:] to m — frac 1 for a fraction's, each
// lowering e10 — and returns the offset past them. Past the 19th they are
// dropped: an integer's each raise e10, a nonzero one sets trunc. Only a
// fraction's run may start with zeros, and those are not significant.
func (d *decimal) digits(b []byte, p, frac int) int {
	m, nd, e10 := d.m, d.nd, d.e10
	for frac == 1 && m == 0 && p < len(b) && b[p] == '0' {
		p, e10 = p+1, e10-1
	}
	for nd <= maxDigits-8 && len(b)-p >= 8 {
		v, ok := eightDigits(binary.LittleEndian.Uint64(b[p:]))
		if !ok {
			break
		}
		m, nd, e10, p = m*100_000_000+v, nd+8, e10-8*frac, p+8
	}
	for ; p < len(b) && b[p]-'0' < 10; p++ {
		if nd < maxDigits {
			m, nd, e10 = m*10+uint64(b[p]-'0'), nd+1, e10-frac
		} else {
			e10, d.trunc = e10+1-frac, d.trunc || b[p] != '0'
		}
	}
	d.m, d.nd, d.e10 = m, nd, e10
	return p
}

// eightDigits returns the value of the eight ASCII digits in the word v,
// first digit lowest, or false if one is not a digit (whose high nibble is
// 3, and stays 3 with 6 added). Pairs, then quads, then all: 3 multiplies.
func eightDigits(v uint64) (uint64, bool) {
	if (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 != 0x3333333333333333 {
		return 0, false
	}
	const mask, mul1, mul2 = 0x000000FF000000FF, 100 + 1_000_000<<32, 1 + 10_000<<32
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return uint64(uint32((v&mask*mul1 + (v>>16)&mask*mul2) >> 32)), true
}

// float returns the float64 nearest ±m × 10^e10, ties to even, where it can
// do so exactly: m the whole significand and |e10| ≤ 27, so that 5^|e10|
// fits a uint64. It declines the rest, which strconv.ParseFloat takes; that
// rounds correctly too, so the two give the same bits. Integer arithmetic
// only: no floating-point rounding for the compiler to fuse (DESIGN.md §5,
// "Rounding that does not depend on the architecture").
func (d *decimal) float() (float64, bool) {
	var f uint64 // the result's bits, but for the sign
	if d.m != 0 {
		if d.trunc || d.e10 < -maxPow5 || d.e10 > maxPow5 {
			return 0, false
		}
		// With m and 5^|e10| shifted to their top bits, the value is
		// (x + ε) × 2^e2, x's top bit set, 0 ≤ ε < 1, rem nonzero iff ε is.
		sm, sd := bits.LeadingZeros64(d.m), bits.LeadingZeros64(pow5[max(d.e10, -d.e10)])
		m, p5 := d.m<<sm, pow5[max(d.e10, -d.e10)]<<sd
		var x, rem, lo uint64
		e2 := d.e10 - sm + sd - 64
		if d.e10 >= 0 { // m × 5^e10 × 2^e10: the 128-bit product is exact
			hi, lo := bits.Mul64(m, p5)
			s := bits.LeadingZeros64(hi) // 0 or 1
			x, rem, e2 = hi<<s|lo>>(64-s), lo<<s, d.e10-sm-sd+64-s
		} else { // m / 5^k × 2^−k: 64 quotient bits, the remainder sticky
			if m >= p5 { // a 65-bit quotient: take one bit less of m
				m, lo, e2 = m>>1, m<<63, e2+1
			}
			x, rem = bits.Div64(m, lo, p5)
		}
		// Round 64 bits to 53, half to even, into mant × 2^(e2+11).
		mant, tail := x>>11, x&(1<<11-1)
		if tail > 1<<10 || tail == 1<<10 && (rem != 0 || mant&1 == 1) {
			if mant++; mant == 1<<53 {
				mant, e2 = mant>>1, e2+1
			}
		}
		f = uint64(e2+11+52+1023)<<52 | mant&(1<<52-1)
	}
	if d.neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}

// appendShortest appends x as strconv.AppendFloat(buf, x, 'g', -1, 64) does:
// the shortest decimal that reads back as x, the nearest of those, ties to
// even. On [2^−6, 999 999), where 'g' writes no exponent, it runs Steele &
// White's free-format digit loop in 64-bit fixed point, integers only like
// float above; any other x (negative, zero, NaN, ±Inf, past either end) it
// hands to strconv.
func appendShortest(buf []byte, x float64) []byte {
	if !(x >= 0x1p-6 && x < 999_999) {
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	b := math.Float64bits(x)
	m, s := b&(1<<52-1)|1<<52, 1075-uint(b>>52) // x = m × 2^−s, 33 ≤ s ≤ 58
	// In units of 2^−(s+1), half x's gap to its neighbours, one being a unit
	// in the last place written: r is x's fraction, h the half gap, both ×10
	// a digit, and x ± h bounds what reads back as x. Those bounds, (2m ± 1)
	// × 2^−(s+1), have s+1 > 33 decimals, and the loop ends by the k-th, the
	// first with 10^k > 2^s (h > one/2), k < 0.31·s + 1: no bound is ever
	// met, so whether m is even (ties to even close the interval) cannot
	// matter; nor can the narrower gap below a power of two, which here has
	// at most six decimals and is written exactly.
	one, h := uint64(1)<<(s+1), uint64(1)
	r := m << 1 & (one - 1)
	buf = strconv.AppendUint(buf, m>>s, 10)
	if r == 0 {
		return buf // no other integer lies within a gap < 2^−32 of x
	}
	buf = append(buf, '.')
	for {
		r, h = r*10, h*10
		buf = append(buf, byte('0'+r>>(s+1)))
		r &= one - 1
		// Stop once the digits (low) or they plus a last-place unit (high)
		// read back as x; write the nearer. A 9 is never rounded up: high
		// would have held a digit earlier (for the first, at the integer).
		if low, high := r < h, r+h > one; low || high {
			if high && (!low || 2*r > one || 2*r == one && buf[len(buf)-1]&1 == 1) {
				buf[len(buf)-1]++
			}
			return buf
		}
	}
}
