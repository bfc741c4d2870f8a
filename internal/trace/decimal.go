package trace

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// minExp10 is the smallest decimal exponent scanDecimal converts. It
// reads no exponent, so it makes only exponents in [minExp10, 0], one per
// digit after the point; 64 such digits hold the shortest 'f' form of
// every value of at least 1e-48.
const minExp10 = -64

// pow10[-k] is 10^k for k in [minExp10, 0] as {lo, hi}: the top 128 bits
// of its binary mantissa, truncated, the rows of strconv's
// detailedPowersOfTen for these exponents.
var pow10 = func() (t [1 - minExp10][2]uint64) {
	var b [16]byte
	for i := range t {
		q := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(i)), nil)
		m := new(big.Int).Lsh(big.NewInt(1), uint(128+q.BitLen()))
		m.Quo(m, q)
		m.Rsh(m, uint(m.BitLen()-128)).FillBytes(b[:])
		t[i] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	return t
}()

// parseSample decodes a data field as strconv.ParseFloat(string(f), 64)
// does, with its bits and its error, through scanDecimal where that
// answers for the whole of f.
func parseSample(f []byte) (float64, error) {
	if v, n, ok := scanDecimal(f); ok && n == len(f) {
		return v, nil
	}
	return strconv.ParseFloat(string(f), 64)
}

// scanDecimal reads the field at the start of b, which ends at b's first
// ',' or at the end of b, and returns its value and its length n when it
// has the form -?digits[.digits] with at least one digit, at most 19
// significant digits (leading zeros on either side of the point do not
// count) and at most -minExp10 digits after the point, and Eisel–Lemire
// rounds it. ok is false for every other field, which strconv.ParseFloat
// then decides, and n then means nothing. Where ok is true, v has the
// bits strconv.ParseFloat returns for b[:n].
func scanDecimal(b []byte) (v float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	lead := i
	var man uint64
	if i < len(b) && b[i]-'0' <= 9 { // most samples are below 1, "0.…"
		i, man = digits(b, i, 0)
	}
	nd, sig, frac := i-start, i-lead, 0
	if i < len(b) && b[i] == '.' {
		i++
		point := i
		if sig == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		lead = i
		i, man = digits(b, i, man)
		sig += i - lead
		frac = i - point
		nd += frac
	}
	if i < len(b) && b[i] != ',' || nd == 0 || sig > 19 || frac > -minExp10 {
		return 0, i, false
	}
	v, ok = eiselLemire64(man, -frac, neg)
	return v, i, ok
}

// digits reads the digits of b from i on into man, eight at a time while
// eight follow, and returns the index of the first byte past them. Past
// 19 digits man wraps; scanDecimal then declines the field.
func digits(b []byte, i int, man uint64) (int, uint64) {
	for ; len(b)-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(w) {
			break
		}
		man = man*1e8 + eightDigitsValue(w)
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

// eightDigits reports whether all eight bytes of w are ASCII digits: each
// byte's high nibble is 3, and stays 3 when 6 is added. A byte whose +6
// carries into the next has high nibble F and fails by itself.
func eightDigits(w uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return w&hi|(w+0x0606060606060606)&hi>>4 == 0x3333333333333333
}

// eightDigitsValue is the value of eight ASCII digits read little-endian,
// the first digit in the lowest byte, in three multiplies: byte pairs
// 10a+b, then the four pairs weighted by 10^6, 10^4, 10^2 and 1 in two
// lanes of 32 bits, summed in the high lane.
func eightDigitsValue(w uint64) uint64 {
	const lanes = 0x000000FF000000FF
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return (w&lanes*(100+1000000<<32) + w>>16&lanes*(1+10000<<32)) >> 32
}

// eiselLemire64 is ported from the Go standard library's
// strconv/eisel_lemire.go (Copyright 2020 The Go Authors; BSD-style
// license), with its table cut to pow10. That file says:
//
// This file implements the Eisel-Lemire ParseFloat algorithm, published in
// 2020 and discussed extensively at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html
//
// The original C++ implementation is at
// https://github.com/lemire/fast_double_parser/blob/644bef4306059d3be01a04e77d3cc84b379c596f/include/fast_double_parser.h#L840
//
// This Go re-implementation closely follows the C re-implementation at
// https://github.com/google/wuffs/blob/ba3818cb6b473a2ed0b38ecfc07dbbd3a97e8ae7/internal/cgen/base/floatconv-submodule-code.c#L990
//
// Additional testing (on over several million test strings) is done by
// https://github.com/nigeltao/parse-number-fxx-test-data/blob/5280dcfccf6d0b02a65ae282dad0b6d9de50e039/script/test-go-strconv.go
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || 0 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10[-exp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10[-exp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
