package trace

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// minExp10 is the smallest decimal exponent parseDecimal converts. It
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
// does, with its bits and its error, through parseDecimal where that
// answers.
func parseSample(f []byte) (float64, error) {
	if v, ok := parseDecimal(f); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(f), 64)
}

// parseDecimal decodes a field of the form -?digits[.digits] with at
// least one digit, at most 19 significant digits and at most -minExp10
// digits after the point, when Eisel–Lemire rounds it; ok is false for
// every other field, which strconv.ParseFloat then decides. Where ok is
// true, v has the bits strconv.ParseFloat returns.
func parseDecimal(f []byte) (v float64, ok bool) {
	neg := len(f) > 0 && f[0] == '-'
	if neg {
		f = f[1:]
	}
	var man uint64
	sig, dot := 0, -1
	for i, c := range f {
		switch d := c - '0'; {
		case d <= 9:
			if man|uint64(d) != 0 { // leading zeros are not significant
				man = man*10 + uint64(d)
				sig++
			}
		case c == '.' && dot < 0:
			dot = i
		default:
			return 0, false
		}
	}
	digits, exp10 := len(f), 0
	if dot >= 0 {
		digits, exp10 = digits-1, dot+1-len(f)
	}
	if digits == 0 || sig > 19 || exp10 < minExp10 {
		return 0, false
	}
	return eiselLemire64(man, exp10, neg)
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
