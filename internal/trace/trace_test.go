package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
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

// TestReadCSVRowErrorsPinned pins the exact error ReadCSV gives for a bad
// data row. Rows are numbered from 1 after the header, blank rows not
// counted. Within a row the field count is checked first, then the
// timestamp for quotes, then each sample in column order; across rows the
// lowest bad row is reported.
func TestReadCSVRowErrorsPinned(t *testing.T) {
	// Every body has four rows at 5 s, so the interval checks pass and
	// only the data rows can fail.
	const head = "t,a,b\n0,1.5,2.25\n5,1,2\n"
	cases := []struct{ name, body, want string }{
		{"too many fields", head + "10,1,2,3\n15,1,2\n",
			"trace: row 3 has 4 fields, want 3"},
		{"too few fields", head + "10,1\n15,1,2\n",
			"trace: row 3 has 2 fields, want 3"},
		{"timestamp alone", head + "10\n15,1,2\n",
			"trace: row 3 has 1 fields, want 3"},
		{"trailing comma", head + "10,1,2,\n15,1,2\n",
			"trace: row 3 has 4 fields, want 3"},
		{"count before a bad sample", head + "10,x,2,3\n15,1,2\n",
			"trace: row 3 has 4 fields, want 3"},
		{"count before a bad last sample", head + "10,x\n15,1,2\n",
			"trace: row 3 has 2 fields, want 3"},
		{"count before a quoted timestamp", head + "\"10\",1\n15,1,2\n",
			"trace: row 3 has 2 fields, want 3"},
		{"quoted timestamp", head + "\"10\",1,2\n15,1,2\n",
			`trace: row 3: quoted field "\"10\""; data fields are bare numbers`},
		{"quoted timestamp before a bad sample", head + "\"10\",x,2\n15,1,2\n",
			`trace: row 3: quoted field "\"10\""; data fields are bare numbers`},
		{"quoted data field", head + "10,\"1.5\",2\n15,1,2\n",
			`trace: row 3: quoted field "\"1.5\""; data fields are bare numbers`},
		{"quoted last field", head + "10,1,\"2\"\n15,1,2\n",
			`trace: row 3: quoted field "\"2\""; data fields are bare numbers`},
		{"bad sample before a quoted one", head + "10,x,\"2\"\n15,1,2\n",
			`trace: row 3: bad sample "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"one", head + "10,one,2\n15,1,2\n",
			`trace: row 3: bad sample "one": strconv.ParseFloat: parsing "one": invalid syntax`},
		{"1x5", head + "10,1,1x5\n15,1,2\n",
			`trace: row 3: bad sample "1x5": strconv.ParseFloat: parsing "1x5": invalid syntax`},
		{"empty field", head + "10,,2\n15,1,2\n",
			`trace: row 3: bad sample "": strconv.ParseFloat: parsing "": invalid syntax`},
		{"empty last field", head + "10,1,\n15,1,2\n",
			`trace: row 3: bad sample "": strconv.ParseFloat: parsing "": invalid syntax`},
		{"digits then junk", head + "10,12.5x,2\n15,1,2\n",
			`trace: row 3: bad sample "12.5x": strconv.ParseFloat: parsing "12.5x": invalid syntax`},
		{"two points", head + "10,1,1.2.3\n15,1,2\n",
			`trace: row 3: bad sample "1.2.3": strconv.ParseFloat: parsing "1.2.3": invalid syntax`},
		{"lone minus", head + "10,-,2\n15,1,2\n",
			`trace: row 3: bad sample "-": strconv.ParseFloat: parsing "-": invalid syntax`},
		{"out of range", head + "10,1e400,2\n15,1,2\n",
			`trace: row 3: bad sample "1e400": strconv.ParseFloat: parsing "1e400": value out of range`},
		{"bad last row", head + "10,1,2\n15,1,x\n",
			`trace: row 4: bad sample "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"CRLF rows", "t,a,b\r\n0,1.5,2.25\r\n5,1,2\r\n10,1,1x5\r\n15,1,2\r\n",
			`trace: row 3: bad sample "1x5": strconv.ParseFloat: parsing "1x5": invalid syntax`},
		{"blank rows are not counted", "t,a,b\n\n0,1.5,2.25\n\r\n5,1,2\n\n\n10,1,x\n15,1,2\n",
			`trace: row 3: bad sample "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"lowest of several bad rows", "t,a,b\n0,1,2\n5,1,x\n10,y,2\n15,1,2,3\n",
			`trace: row 2: bad sample "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"a count error in a lower row", "t,a,b\n0,1,2\n5,1\n10,y,2\n15,1,2\n",
			"trace: row 2 has 2 fields, want 3"},
	}
	for _, c := range cases {
		_, _, err := ReadCSV([]byte(c.body))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestReadCSVMixedFieldsMatchStrconv: fields the plain-decimal path
// leaves to strconv, or declines, decode to strconv.ParseFloat's bits in
// any column, between plain fields, across CRLF and blank rows.
func TestReadCSVMixedFieldsMatchStrconv(t *testing.T) {
	odd := []string{"0.5", "+1", "1e5", "-0", "5.", ".5", "12345678901234567890",
		"0.0000000000000000012345678901234567", "-.5", "000123.4500", "9007199254740993"}
	plain := []string{"1.25", "0.123456789012345", "42", "0.0625"}
	var body strings.Builder
	body.WriteString("t,a,b,c\r\n")
	var want [3][]string
	for i := 0; i < 3*len(odd); i++ {
		row := []string{plain[i%4], plain[(i+1)%4], plain[(i+2)%4]}
		row[i%3] = odd[i/3]
		fmt.Fprintf(&body, "%d,%s", 5*i, strings.Join(row, ","))
		switch i % 3 {
		case 0:
			body.WriteString("\r\n")
		case 1:
			body.WriteString("\n\n")
		default:
			body.WriteString("\r\n\r\n")
		}
		for j := range want {
			want[j] = append(want[j], row[j])
		}
	}
	_, series, err := ReadCSV([]byte(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range series {
		if s.Len() != len(want[j]) {
			t.Fatalf("column %d: %d samples, want %d", j, s.Len(), len(want[j]))
		}
		for i, f := range want[j] {
			w, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.At(i); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("column %d row %d: %q decoded as %v (%#x), strconv %v (%#x)",
					j, i+1, f, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
	}
}

// TestReadCSVAppendKeepsNeighbours: a chunk's columns share one array,
// but appending to one series never writes into the next.
func TestReadCSVAppendKeepsNeighbours(t *testing.T) {
	_, series, err := ReadCSV([]byte("t,a,b,c\n0,1,2,3\n5,4,5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range series {
		s.Append(-1, -1)
		if j+1 < len(series) {
			if got := series[j+1].Samples(); got[0] != float64(j+2) || got[1] != float64(j+5) {
				t.Fatalf("appending to column %d changed column %d to %v", j, j+1, got)
			}
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
