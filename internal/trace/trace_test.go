package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/pkg/dcsim/model"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestCSVRoundTrip(t *testing.T) {
	a := model.SeriesFromSamples(5*time.Second, []float64{0.5, 1.25, 2})
	b := model.SeriesFromSamples(5*time.Second, []float64{3, 2, 1})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"vm1", "vm2"}, []*model.Series{a, b}); err != nil {
		t.Fatal(err)
	}
	names, series, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "vm1" || names[1] != "vm2" {
		t.Fatalf("names = %v", names)
	}
	if series[0].Interval() != 5*time.Second {
		t.Fatalf("interval = %v, want 5s", series[0].Interval())
	}
	for i := 0; i < a.Len(); i++ {
		if !approx(series[0].At(i), a.At(i), 1e-6) || !approx(series[1].At(i), b.At(i), 1e-6) {
			t.Fatalf("round-trip mismatch at %d", i)
		}
	}
}

// TestCSVRoundTripExact: the CSV encoding is lossless for samples and
// exact for whole-microsecond intervals — the property recorded-trace
// workloads rely on to reproduce a synthetic run bit for bit.
func TestCSVRoundTripExact(t *testing.T) {
	intervals := []time.Duration{
		500 * time.Microsecond, // sub-millisecond
		time.Millisecond,
		83 * time.Millisecond, // non-round, still whole µs
		5 * time.Second,
		5 * time.Minute,
	}
	for _, iv := range intervals {
		samples := []float64{0.123456789012345, 1.0 / 3.0, 2, 1e-9, 123456.789}
		s := model.SeriesFromSamples(iv, samples)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []string{"vm"}, []*model.Series{s}); err != nil {
			t.Fatalf("interval %v: %v", iv, err)
		}
		_, series, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("interval %v: %v", iv, err)
		}
		if got := series[0].Interval(); got != iv {
			t.Errorf("interval %v round-tripped as %v", iv, got)
		}
		for i, want := range samples {
			if got := series[0].At(i); got != want {
				t.Errorf("interval %v sample %d: %v -> %v (lossy)", iv, i, want, got)
			}
		}
	}
}

// TestWriteCSVRejectsUnrepresentableInterval: intervals the 6-decimal
// timestamp column cannot carry fail at write time instead of producing a
// file that reads back at a drifted rate.
func TestWriteCSVRejectsUnrepresentableInterval(t *testing.T) {
	for _, iv := range []time.Duration{
		time.Second / 3,       // 333333333ns: non-terminating
		500 * time.Nanosecond, // sub-microsecond
		time.Microsecond + time.Nanosecond,
	} {
		s := model.SeriesFromSamples(iv, []float64{1, 2, 3})
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []string{"vm"}, []*model.Series{s}); err == nil {
			t.Errorf("interval %v should be rejected at write time", iv)
		}
	}
}

// TestReadCSVDetectsIntervalDrift: a file whose rows do not sit on the
// interval recovered from the first two timestamps — the misround shape an
// old 3-decimal writer produced for intervals like 1s/3 — is rejected via
// the last-row cross-check instead of silently reconstructed.
func TestReadCSVDetectsIntervalDrift(t *testing.T) {
	// 1s/3 written at 6 decimals: recovered interval 333333µs, but 300
	// rows later the accumulated drift exceeds the timestamp quantum.
	var buf bytes.Buffer
	buf.WriteString("t,vm\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&buf, "%.6f,%d\n", float64(i)/3, i)
	}
	if _, _, err := ReadCSV(&buf); err == nil {
		t.Fatal("drifting timestamps should be rejected")
	} else if !strings.Contains(err.Error(), "interval") {
		t.Fatalf("drift error should name the interval, got: %v", err)
	}
}

// TestReadCSVLegacyMillisecondTimestamps: files written before the
// 6-decimal column (3 decimals) still parse with the exact interval.
func TestReadCSVLegacyMillisecondTimestamps(t *testing.T) {
	in := "t,vm1,vm2\n0.000,0.5,3\n5.000,1.25,2\n10.000,2,1\n"
	names, series, err := ReadCSV(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || series[0].Interval() != 5*time.Second {
		t.Fatalf("legacy parse: names=%v interval=%v", names, series[0].Interval())
	}
}

// TestReadCSVRejectsNonFinite: NaN/Inf timestamps cannot smuggle an
// undefined interval through the float→Duration conversion.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	cases := []string{
		"t,vm\nNaN,1\n1.0,2\n",
		"t,vm\n0.0,1\nInf,2\n",
		"t,vm\n0.0,1\n+Inf,2\n",
		"t,vm\n0.0,1\n1e300,2\n", // interval overflows time.Duration
	}
	for _, c := range cases {
		if _, _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("ReadCSV(%q) should have failed", c)
		}
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	a := model.SeriesFromSamples(time.Second, []float64{1})
	if err := WriteCSV(&buf, []string{"a", "b"}, []*model.Series{a}); err == nil {
		t.Fatal("name/series count mismatch should error")
	}
	if err := WriteCSV(&buf, nil, nil); err == nil {
		t.Fatal("empty write should error")
	}
	b := model.SeriesFromSamples(2*time.Second, []float64{1})
	if err := WriteCSV(&buf, []string{"a", "b"}, []*model.Series{a, b}); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"t,vm1\n0.0,1.0\n",           // only one data row
		"x,vm1\n0.0,1.0\n1.0,2.0\n",  // bad header
		"t,vm1\n0.0,1.0\n0.0,2.0\n",  // non-increasing time
		"t,vm1\nzero,1.0\n1.0,2.0\n", // bad timestamp
		"t,vm1\n0.0,one\n1.0,2.0\n",  // bad sample
	}
	for _, c := range cases {
		if _, _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("ReadCSV(%q) should have failed", c)
		}
	}
}
