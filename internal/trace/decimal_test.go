package trace

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// decimalSeeds are fields whose spelling or size sits at an edge of
// scanDecimal's grammar or of Eisel–Lemire's rounding.
var decimalSeeds = []string{
	// Spellings strconv accepts or rejects that scanDecimal must leave
	// to it, or answer as strconv does.
	"-0", "0", ".5", "-.5", "5.", "+1", "1e5", "0x1p-2", "1_0", "Inf", "-inf",
	"NaN", "", "-", ".", "-.", "--1", "1.2.3", " 1", "1 ", "\"1.5\"", "0x10", "1e",
	// Leading and trailing zeros, and the edges of the exponent table.
	"000123.4500", "-000", "0.000000", "00.", "1.00000000000000000000",
	"0." + strings.Repeat("0", 63) + "1", "0." + strings.Repeat("0", 64) + "1",
	"0." + strings.Repeat("0", 70),
	// 19- and 20-digit mantissas.
	"9999999999999999999", "18446744073709551615", "18446744073709551616",
	"99999999999999999999", "0.1234567890123456789", "0.12345678901234567891",
	"1234567890.123456789",
	// Exact halfway integers: Eisel–Lemire's halfway-ambiguity decline.
	"9007199254740993", "9007199254740995", "18014398509481986",
	"9223372036854776832",
	// Eisel–Lemire's wider approximation decides this one.
	"0.0127404192089070065",
}

// parseDecimal is the fast path alone on a whole field: ok where
// scanDecimal reads all of f.
func parseDecimal(f []byte) (v float64, ok bool) {
	v, n, ok := scanDecimal(f)
	return v, ok && n == len(f)
}

// sameAsStrconv returns an error when parseSample and strconv.ParseFloat
// give s different bits or different errors.
func sameAsStrconv(s string) error {
	v, err := parseSample([]byte(s))
	w, werr := strconv.ParseFloat(s, 64)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		return fmt.Errorf("%q: error %v, strconv %v", s, err, werr)
	}
	if math.Float64bits(v) != math.Float64bits(w) {
		return fmt.Errorf("%q: %v (%#x), strconv %v (%#x)", s, v, math.Float64bits(v), w, math.Float64bits(w))
	}
	return nil
}

// midpoints returns the decimal expansion of the value halfway between x
// and the next float64 above it, cut to n significant digits (just below
// the midpoint) and with its last digit raised by one (just above it).
func midpoints(x float64, n int) (below, above string) {
	lo := new(big.Float).SetPrec(256).SetFloat64(x)
	hi := new(big.Float).SetPrec(256).SetFloat64(math.Nextafter(x, math.Inf(1)))
	s := lo.Add(lo, hi).Quo(lo, big.NewFloat(2)).Text('f', 100)
	sig := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= '1' && c <= '9' || c == '0' && sig > 0 {
			if sig++; sig == n {
				s = s[:i+1]
				break
			}
		}
	}
	b := []byte(s)
	i := len(b) - 1
	for ; i >= 0 && (b[i] == '9' || b[i] == '.'); i-- {
		if b[i] == '9' {
			b[i] = '0'
		}
	}
	if i < 0 {
		b = append([]byte{'1'}, b...)
	} else {
		b[i]++
	}
	return s, string(b)
}

// TestParseSampleMatchesStrconv holds the data-field decoder to
// strconv.ParseFloat on a fixed seed: the same bits and the same error on
// the seeds, on the shortest 'f' forms of random doubles inside and
// outside the exponent table, on those forms with digits appended, and on
// 17- to 19-digit strings just below and above the midpoints between
// doubles. Every shortest form of a value in [1e-20, 1e4), where demand
// samples lie, must take the fast path. Eisel–Lemire declines some fields
// whose decimal value is a float64 exactly, such as 0.5 or
// 365429382778206.75, and strconv decides those.
func TestParseSampleMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if err := sameAsStrconv(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range decimalSeeds {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		// A demand-like value, a value anywhere in float64's range of
		// magnitudes, and an arbitrary bit pattern.
		x := (1 + 9*rng.Float64()) * math.Pow(10, float64(rng.Intn(35)-20))
		for _, y := range []float64{x, x * math.Pow(10, float64(rng.Intn(600)-300)), math.Float64frombits(rng.Uint64())} {
			if rng.Intn(2) == 0 {
				y = -y
			}
			s := strconv.FormatFloat(y, 'f', -1, 64)
			check(s)
			if !strings.Contains(s, ".") {
				s += "."
			}
			for _, tail := range []string{"5", "49999", "50001", "0"} {
				check(s + tail)
			}
		}
		if _, ok := parseDecimal([]byte(strconv.FormatFloat(x, 'f', -1, 64))); !ok && x < 1e4 {
			t.Fatalf("%v: shortest form declined", x)
		}
		for _, digits := range []int{17, 18, 19} {
			below, above := midpoints(x, digits)
			check(below)
			check(above)
		}
	}
}

// TestPow10MatchesStrconvTable pins rows of the computed table to the
// literal values of strconv's detailedPowersOfTen.
func TestPow10MatchesStrconvTable(t *testing.T) {
	for _, c := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-21, 0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE},
		{-16, 0x4C2EBE687989A9B3, 0xE69594BEC44DE15B},
		{-9, 0x31680A88F8953030, 0x89705F4136B4A597},
		{0, 0, 0x8000000000000000},
	} {
		if got := pow10[-c.exp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: {%#x, %#x}, want {%#x, %#x}", c.exp10, got[0], got[1], c.lo, c.hi)
		}
	}
}

// FuzzParseDecimal holds the data-field decoder to strconv.ParseFloat on
// any string: the same bits and the same error, so wherever the fast path
// answers, strconv accepts the field with those bits.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range decimalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if err := sameAsStrconv(s); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzScanDecimal holds the scanner to where a field ends: for a field s
// with no comma, scanning s alone and scanning s followed by a comma and
// anything both stop at len(s) with parseSample(s)'s bits, or both
// decline.
func FuzzScanDecimal(f *testing.F) {
	for _, s := range decimalSeeds {
		f.Add(s, "1.5")
	}
	f.Add("12345678", "")
	f.Add("0.1234567890123456", "7,8")
	f.Add("-00000000.00000000123", ",")
	// A byte just past '9' among eight digits, where the scan reads eight
	// bytes as one word, and a byte just before '0'.
	for _, s := range []string{"1234567:", "0.1234567;89", "12345678?", "0.12345678901234>5", "123/5678"} {
		f.Add(s, "1")
	}
	f.Fuzz(func(t *testing.T, s, tail string) {
		if strings.Contains(s, ",") {
			return
		}
		v, n, ok := scanDecimal([]byte(s))
		tv, tn, tok := scanDecimal([]byte(s + "," + tail))
		if ok != tok {
			t.Fatalf("%q: ok %v alone, %v followed by %q", s, ok, tok, ","+tail)
		}
		if !ok {
			return
		}
		if n != len(s) || tn != len(s) {
			t.Fatalf("%q: ends at %d alone and at %d followed by a comma, want %d", s, n, tn, len(s))
		}
		w, err := parseSample([]byte(s))
		if err != nil || math.Float64bits(v) != math.Float64bits(w) || math.Float64bits(tv) != math.Float64bits(w) {
			t.Fatalf("%q: %v alone, %v followed by a comma; parseSample %v, %v", s, v, tv, w, err)
		}
		if err := sameAsStrconv(s); err != nil {
			t.Fatal(err)
		}
	})
}
