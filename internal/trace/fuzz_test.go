package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/pkg/dcsim/model"
)

// referenceReadCSV is the encoding/csv decoder ReadCSV replaced, kept as
// the differential reference: ReadAll, then the same checks in the same
// order, then strconv.ParseFloat on every sample.
func referenceReadCSV(data []byte) (names []string, series []*model.Series, err error) {
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(records) < 3 {
		return nil, nil, fmt.Errorf("trace: need a header and at least two rows, got %d records", len(records))
	}
	header := records[0]
	if len(header) < 2 || header[0] != "t" {
		return nil, nil, fmt.Errorf("trace: malformed header %v", header)
	}
	names = header[1:]
	t0, err := parseTimestamp(records[1][0])
	if err != nil {
		return nil, nil, err
	}
	t1, err := parseTimestamp(records[2][0])
	if err != nil {
		return nil, nil, err
	}
	iv, err := recoverInterval(t0, t1)
	if err != nil {
		return nil, nil, err
	}
	last, err := parseTimestamp(records[len(records)-1][0])
	if err != nil {
		return nil, nil, err
	}
	wantLast := t0 + float64(len(records)-2)*iv.Seconds()
	if math.Abs(last-wantLast) > 2e-6+1e-12*math.Abs(wantLast) {
		return nil, nil, fmt.Errorf("trace: last timestamp %v does not match the recovered interval", last)
	}
	cols := make([][]float64, len(names))
	for _, rec := range records[1:] {
		if len(rec) != len(names)+1 {
			return nil, nil, fmt.Errorf("trace: row has %d fields, want %d", len(rec), len(names)+1)
		}
		for j := range names {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("trace: bad sample %q: %w", rec[j+1], err)
			}
			cols[j] = append(cols[j], v)
		}
	}
	series = make([]*model.Series, len(names))
	for i := range names {
		series[i] = model.SeriesFromSamples(iv, cols[i])
	}
	return names, series, nil
}

// dataRows returns what follows the header row, as encoding/csv reads it.
func dataRows(data []byte) []byte {
	cr := csv.NewReader(bytes.NewReader(data))
	if _, err := cr.Read(); err != nil {
		return nil
	}
	return data[cr.InputOffset():]
}

// sameSamples reports whether two decodes agree on every sample's bits,
// any NaN matching any NaN.
func sameSamples(a, b []*model.Series) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d series, reference %d", len(a), len(b))
	}
	for j := range a {
		if a[j].Interval() != b[j].Interval() || a[j].Len() != b[j].Len() {
			return fmt.Errorf("series %d: %d samples at %v, reference %d at %v",
				j, a[j].Len(), a[j].Interval(), b[j].Len(), b[j].Interval())
		}
		for i := 0; i < a[j].Len(); i++ {
			x, y := a[j].At(i), b[j].At(i)
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return fmt.Errorf("series %d sample %d: %v, reference %v", j, i, x, y)
			}
		}
	}
	return nil
}

// FuzzReadCSV ensures arbitrary input never panics the CSV reader, that
// everything it accepts round-trips through WriteCSV, and that it agrees
// with the encoding/csv decoder it replaced: whatever it accepts, the
// reference accepts identically, and whatever the reference accepts with
// no quote in a data row, it accepts too.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("t,vm1\n0.0,1.0\n5.0,2.0\n"))
	f.Add([]byte("t,a,b\n0,1,2\n1,3,4\n2,5,6\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("t,x\n0,nan\n1,2\n"))
	f.Add([]byte("t,x\n0.000000,1\n0.000500,2\n0.001000,3\n")) // sub-ms interval
	// 1s/3: too short for the drift cross-check to distinguish from a
	// genuine 333333µs recording — accepted as one (see ReadCSV docs).
	f.Add([]byte("t,x\n0.000000,1\n0.333333,2\n0.666667,3\n"))
	f.Add([]byte("t,x\r\n0,1\r\n1,2\r\n2,3\r\n"))                              // CRLF rows
	f.Add([]byte("t,x\n\n0,1\n\r\n1,2\n\n\n2,3\n\n"))                          // blank lines
	f.Add([]byte("t,x\n0,1\n1,2\r"))                                           // \r before EOF
	f.Add([]byte("t,x\n0,1\n1,2"))                                             // no final newline
	f.Add([]byte("t,\"a,b\",\"q\"\"uote\",\"new\nline\"\n0,1,2,3\n5,4,5,6\n")) // quoted names
	f.Add([]byte("t,x\n0,\"1.5\"\n1,2\n"))                                     // quoted data field
	f.Add([]byte("t,x\n0,1\n\"1\",2\n2,3\n"))                                  // quoted middle timestamp
	f.Add([]byte("t,x\n0,1\n1,2\"\n"))                                         // bare quote
	f.Add([]byte("t,x\n0,1\n1,\"2\n3\"\n"))                                    // quoted newline in a field
	f.Add([]byte("t,x\n0,1,\n1,2,\n"))                                         // trailing comma
	f.Add([]byte("t,x\n0,1\n"))                                                // 2 rows
	f.Add([]byte("t,x\n0,1\n5,2\n"))                                           // 3 rows
	f.Add([]byte("t,x\n0,1\n1,2\r\r\n2,3\n"))                                  // doubled \r
	f.Add([]byte("t,x\n0,1\nbad,2\n2,3\n"))                                    // unparsed middle timestamp
	f.Fuzz(func(t *testing.T, data []byte) {
		names, series, err := ReadCSV(data)
		refNames, refSeries, refErr := referenceReadCSV(data)
		if err != nil {
			if refErr == nil && !bytes.ContainsRune(dataRows(data), '"') {
				t.Fatalf("rejected input the reference accepts: %v", err)
			}
			return // rejection is fine; panics are not
		}
		if refErr != nil {
			t.Fatalf("accepted input the reference rejects: %v", refErr)
		}
		if !slices.Equal(names, refNames) {
			t.Fatalf("names %q, reference %q", names, refNames)
		}
		if err := sameSamples(series, refSeries); err != nil {
			t.Fatal(err)
		}
		if len(names) != len(series) {
			t.Fatalf("%d names for %d series", len(names), len(series))
		}
		// Everything ReadCSV accepts carries a whole-microsecond interval
		// (the format's resolution), so it must re-encode and re-read.
		if iv := series[0].Interval(); iv < time.Microsecond || iv%time.Microsecond != 0 {
			t.Fatalf("accepted interval %v is outside the format contract", iv)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, names, series); err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		names2, series2, err := ReadCSV(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded output rejected: %v", err)
		}
		if len(names2) != len(names) || len(series2) != len(series) {
			t.Fatal("round-trip changed shape")
		}
		// Samples round-trip losslessly (shortest-form float encoding).
		if err := sameSamples(series2, series); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}
