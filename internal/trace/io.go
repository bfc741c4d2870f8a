// Package trace is the CSV codec for utilization time series: the cmd/
// tools and recorded-trace workloads read and write model.Series through
// ReadCSV and WriteCSV. The Series type itself, and the statistics over it
// that consolidation policies consume, live in the public contract package
// pkg/dcsim/model.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/pkg/dcsim/model"
)

// The CSV timestamp column carries microseconds as six decimal places, so
// the contract is: intervals are a positive whole number of microseconds.
// WriteCSV rejects anything finer or fractional instead of silently
// truncating it into a file that reconstructs a different interval.
const timestampDecimals = 6

// maxIntervalSeconds bounds the interval a file may claim: beyond this the
// float→Duration conversion would overflow int64 nanoseconds.
const maxIntervalSeconds = float64(math.MaxInt64) / float64(time.Second)

// WriteCSV writes a set of named series sharing interval and length as CSV:
// a header row "t,<name>,<name>,..." followed by one row per sample with the
// elapsed time in seconds (microsecond precision) in the first column.
// Samples are written in the shortest decimal form that round-trips the
// float64 exactly, so a read-back series is sample-identical — the property
// recorded-trace workloads rely on to reproduce a synthetic run bit for bit.
func WriteCSV(w io.Writer, names []string, series []*model.Series) error {
	if len(names) != len(series) {
		return fmt.Errorf("trace: %d names for %d series", len(names), len(series))
	}
	if len(series) == 0 {
		return fmt.Errorf("trace: no series to write")
	}
	n := series[0].Len()
	iv := series[0].Interval()
	if iv <= 0 || iv%time.Microsecond != 0 {
		return fmt.Errorf("trace: interval %v is not a positive whole number of microseconds", iv)
	}
	for i, s := range series {
		if s.Len() != n || s.Interval() != iv {
			return fmt.Errorf("trace: series %q does not match shape of %q", names[i], names[0])
		}
	}
	cw := csv.NewWriter(w)
	header := append([]string{"t"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for i := 0; i < n; i++ {
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

// ReadCSV reads series written by WriteCSV. The interval is recovered from
// the first two timestamps, rounded to the nearest microsecond (the write
// precision), and cross-checked against the last row's timestamp, so a file
// whose true interval the format cannot represent — sub-microsecond, or a
// non-terminating decimal like 1s/3 — is rejected once the accumulated
// drift exceeds the timestamp quantum (a handful of rows; shorter files
// are information-theoretically indistinguishable from a genuine
// whole-microsecond recording and parse as one). A single-row file is
// rejected.
func ReadCSV(r io.Reader) (names []string, series []*model.Series, err error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
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
	// Cross-check: the last row must sit where n-1 recovered intervals
	// put it, within the timestamp quantum. Quantization error in t1-t0
	// is amplified by the row count here, which is exactly what exposes
	// an interval the 6-decimal column could not represent.
	last, err := parseTimestamp(records[len(records)-1][0])
	if err != nil {
		return nil, nil, err
	}
	// Tolerance: the timestamp quantum (±0.5 µs on each of the two rows
	// compared) plus float formatting noise, which scales with magnitude.
	// Anything past that is real drift: the recovered interval is wrong.
	wantLast := t0 + float64(len(records)-2)*iv.Seconds()
	if math.Abs(last-wantLast) > 2e-6+1e-12*math.Abs(wantLast) {
		return nil, nil, fmt.Errorf(
			"trace: last timestamp %v does not match %d samples at the recovered interval %v (want %v); interval not representable or timestamps inconsistent",
			last, len(records)-1, iv, wantLast)
	}
	cols := make([][]float64, len(names))
	for i := range cols {
		cols[i] = make([]float64, 0, len(records)-1)
	}
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

// parseTimestamp parses one elapsed-seconds value, rejecting the
// non-finite spellings strconv accepts.
func parseTimestamp(s string) (float64, error) {
	t, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad timestamp: %w", err)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("trace: non-finite timestamp %q", s)
	}
	return t, nil
}

// recoverInterval turns the first two timestamps into the sampling
// interval, rounded to the nearest microsecond — the write precision — so
// float formatting noise never truncates 5s into 4.999999…s.
func recoverInterval(t0, t1 float64) (time.Duration, error) {
	dt := t1 - t0
	if !(dt > 0) {
		return 0, fmt.Errorf("trace: non-increasing timestamps %v, %v", t0, t1)
	}
	if dt > maxIntervalSeconds {
		return 0, fmt.Errorf("trace: interval %g s overflows a duration", dt)
	}
	us := math.Round(dt * 1e6)
	if us < 1 {
		return 0, fmt.Errorf("trace: interval %g s is below the microsecond resolution of the format", dt)
	}
	return time.Duration(us) * time.Microsecond, nil
}
