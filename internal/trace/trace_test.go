package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
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
	names, series, err := ReadCSV(buf.Bytes())
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
		_, series, err := ReadCSV(buf.Bytes())
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
	if _, _, err := ReadCSV(buf.Bytes()); err == nil {
		t.Fatal("drifting timestamps should be rejected")
	} else if !strings.Contains(err.Error(), "interval") {
		t.Fatalf("drift error should name the interval, got: %v", err)
	}
}

// TestReadCSVLegacyMillisecondTimestamps: files written before the
// 6-decimal column (3 decimals) still parse with the exact interval.
func TestReadCSVLegacyMillisecondTimestamps(t *testing.T) {
	in := "t,vm1,vm2\n0.000,0.5,3\n5.000,1.25,2\n10.000,2,1\n"
	names, series, err := ReadCSV([]byte(in))
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
		if _, _, err := ReadCSV([]byte(c)); err == nil {
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
		if _, _, err := ReadCSV([]byte(c)); err == nil {
			t.Errorf("ReadCSV(%q) should have failed", c)
		}
	}
}

// TestReadCSVShortRowsAllocateLittle: a wide header over as many
// timestamp-only rows passes the interval checks, but the rows cannot hold
// the header's fields. ReadCSV must reject it without allocating the
// rows × names columns (128 MB here): decode memory stays linear in the
// input.
func TestReadCSVShortRowsAllocateLittle(t *testing.T) {
	const width = 4000
	var buf bytes.Buffer
	buf.WriteString("t")
	for j := 0; j < width; j++ {
		fmt.Fprintf(&buf, ",v%d", j)
	}
	buf.WriteString("\n")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&buf, "%d\n", i)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := ReadCSV(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadCSV accepted rows missing their fields")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(data)) {
		t.Errorf("ReadCSV allocated %d bytes rejecting a %d-byte input (%v)", alloc, len(data), err)
	}
}

// TestReadCSVRangesAtAnyGOMAXPROCS: a body just above seven times the
// split minimum decodes in up to GOMAXPROCS row ranges into the same
// samples at every GOMAXPROCS. With a bad sample in any one range, or in
// several at once, the error names the lowest bad row.
func TestReadCSVRangesAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Rows of one length, so a bad sample written in place moves no
	// range boundary and row r starts at header + r*rowLen.
	const header, rowLen = len("t,a,b\n"), len("0000000.000000,1.5,0.25\n")
	var buf bytes.Buffer
	buf.WriteString("t,a,b\n")
	rows := 0
	for ; buf.Len()-header <= 7*minRangeBytes; rows++ {
		fmt.Fprintf(&buf, "%014.6f,1.5,%d.25\n", float64(rows)*5, rows%10)
	}
	clean := buf.Bytes()
	// One bad row in the middle of each of the seven ranges.
	split := scanRows(clean[header:], 7)
	if len(split.ranges) != 7 {
		t.Fatalf("body splits into %d ranges, want 7", len(split.ranges))
	}
	var bad []int
	for k, rg := range split.ranges {
		next := rows
		if k+1 < len(split.ranges) {
			next = split.ranges[k+1].row
		}
		bad = append(bad, (rg.row+next)/2)
	}
	withBad := func(rows ...int) []byte {
		data := bytes.Clone(clean)
		for _, r := range rows {
			copy(data[header+r*rowLen+len("0000000.000000,"):], "1x5")
		}
		return data
	}
	cases := [][]int{bad, bad[1:], {bad[5], bad[3]}}
	for _, r := range bad {
		cases = append(cases, []int{r})
	}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		if got := len(scanRows(clean[header:], min(procs, (len(clean)-header)/minRangeBytes)).ranges); got != procs {
			t.Fatalf("GOMAXPROCS %d: %d ranges", procs, got)
		}
		_, series, err := ReadCSV(clean)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i := 0; i < rows; i++ {
			if a, b := series[0].At(i), series[1].At(i); a != 1.5 || b != float64(i%10)+0.25 {
				t.Fatalf("GOMAXPROCS %d: row %d decoded as %v, %v", procs, i+1, a, b)
			}
		}
		for _, c := range cases {
			_, _, err := ReadCSV(withBad(c...))
			want := fmt.Sprintf("trace: row %d: bad sample", slices.Min(c)+1)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("GOMAXPROCS %d, bad rows %v: err = %v, want %q…", procs, c, err, want)
			}
		}
	}
}

// referenceWriteCSV is the encoder WriteCSV replaced, kept as its
// reference: one FormatFloat string per sample, one csv.Writer.Write per
// row. Shape checks are WriteCSV's own and are not repeated here.
func referenceWriteCSV(w io.Writer, names []string, series []*model.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"t"}, names...)); err != nil {
		return err
	}
	iv := series[0].Interval()
	row := make([]string, len(series)+1)
	for i := 0; i < series[0].Len(); i++ {
		row[0] = strconv.FormatFloat(float64(i)*iv.Seconds(), 'f', timestampDecimals, 64)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s.At(i), 'f', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TestWriteCSVMatchesCSVWriter: formatting rows into one buffer writes
// the bytes the csv.Writer encoder wrote, for names that need quoting and
// for every kind of float64.
func TestWriteCSVMatchesCSVWriter(t *testing.T) {
	negZero := math.Copysign(0, -1)
	maxSubnormal := math.Float64frombits(1<<52 - 1)
	rng := rand.New(rand.NewSource(1))
	noisy := make([]float64, 500)
	for i := range noisy {
		noisy[i] = math.Exp(rng.NormFloat64() * 3)
	}
	cases := []struct {
		name    string
		iv      time.Duration
		names   []string
		samples [][]float64
	}{
		{"one VM", 5 * time.Second, []string{"vm00.g0"}, [][]float64{noisy}},
		{"names needing quotes", time.Minute,
			[]string{"a,b", `q"uote`, "new\nline"},
			[][]float64{{1, 2, 3}, {0.5, 0.25, 0.125}, {1e-9, 1e9, 123456.789}}},
		{"more quoting", 83 * time.Millisecond,
			[]string{" lead", "cr\rhere", ""},
			[][]float64{{1, 2}, {3, 4}, {5, 6}}},
		{"special values", 500 * time.Microsecond,
			[]string{"nan-inf", "zeros", "subnormal"},
			[][]float64{
				{math.NaN(), math.Inf(1), math.Inf(-1), 1},
				{negZero, 0, -1, -0.5},
				{math.SmallestNonzeroFloat64, maxSubnormal, -math.SmallestNonzeroFloat64, math.MaxFloat64},
			}},
	}
	for _, c := range cases {
		series := make([]*model.Series, len(c.samples))
		for j, s := range c.samples {
			series[j] = model.SeriesFromSamples(c.iv, s)
		}
		var got, want bytes.Buffer
		if err := WriteCSV(&got, c.names, series); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := referenceWriteCSV(&want, c.names, series); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteCSV wrote\n%q\nthe csv.Writer encoder wrote\n%q", c.name, got.Bytes(), want.Bytes())
		}
	}
}
