package remote

import (
	"testing"
	"time"
)

// TestParseRetryAfter pins the delay-seconds parsing rule, including the
// values too large for a time.Duration, which mean no hint rather than a
// wrapped-around one.
func TestParseRetryAfter(t *testing.T) {
	for v, want := range map[string]time.Duration{
		"":                     0,
		"0":                    0,
		"1":                    time.Second,
		" 3 ":                  3 * time.Second,
		"-2":                   0,
		"soon":                 0,
		"9223372036":           9223372036 * time.Second,
		"9223372037":           0,
		"18446744073709551616": 0,
	} {
		if got := parseRetryAfter(v); got != want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
}
