// Package trace is the CSV codec for utilization time series: the cmd/
// tools and recorded-trace workloads read and write model.Series through
// ReadCSV and WriteCSV. The Series type itself, and the statistics over it
// that consolidation policies consume, live in the public contract package
// pkg/dcsim/model.
//
// ReadCSV decodes one chunk on the caller's goroutine, each data row in
// one walk along its fields. A plain decimal field, such as the shortest
// forms WriteCSV writes, is scanned to its comma and converted with the
// Eisel–Lemire algorithm strconv itself runs; every field that path
// cannot settle goes to strconv.ParseFloat. Either way a sample gets the
// bits strconv.ParseFloat gives it. Callers that load many chunks, as
// internal/tracedir does, decode them concurrently.
package trace

import (
	"bufio"
	"bytes"
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
// The header goes through encoding/csv, which quotes names as CSV needs;
// a number never needs quoting, so each row is formatted straight into
// one reused buffer.
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
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(append([]string{"t"}, names...)); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	var row []byte
	for i := 0; i < n; i++ {
		row = strconv.AppendFloat(row[:0], float64(i)*iv.Seconds(), 'f', timestampDecimals, 64)
		for _, s := range series {
			row = append(row, ',')
			row = strconv.AppendFloat(row, s.At(i), 'f', -1, 64)
		}
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads series written by WriteCSV from a chunk's bytes; it keeps
// no reference into data. The interval is recovered from the first two
// timestamps, rounded to the nearest microsecond (the write precision),
// and cross-checked against the last row's timestamp, so a file whose true
// interval the format cannot represent — sub-microsecond, or a
// non-terminating decimal like 1s/3 — is rejected once the accumulated
// drift exceeds the timestamp quantum (a handful of rows; shorter files
// are information-theoretically indistinguishable from a genuine
// whole-microsecond recording and parse as one). A single-row file is
// rejected.
//
// The header is read by encoding/csv, so VM names may be quoted. Data rows
// are bare numbers: a row ends at "\n" with one trailing "\r" dropped,
// blank rows are skipped, and fields split at ",". A quoted data field is
// rejected, and so is a body too short to hold its rows' fields, before
// any column is allocated. The rows are decoded in order on the caller's
// goroutine, each in one walk along its fields, and the first bad row is
// the error.
//
// A data field of the form -?digits[.digits], with at most 19 significant
// digits and at most 64 after the point, is converted by Eisel–Lemire
// straight from its bytes, in the scan that finds its end. Any other
// field (a sign "+", an exponent, hex, "Inf" or "NaN", underscores,
// longer digit strings), and any field Eisel–Lemire declines, as it does
// some fractions a float64 holds exactly such as 0.5, goes to
// strconv.ParseFloat. Every sample gets strconv.ParseFloat's bits, and
// every rejected field its error.
func ReadCSV(data []byte) (names []string, series []*model.Series, err error) {
	cr := csv.NewReader(bytes.NewReader(data))
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("trace: need a header and at least two rows, got 0 records")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trace: header: %w", err)
	}
	if len(header) < 2 || header[0] != "t" {
		return nil, nil, fmt.Errorf("trace: malformed header %v", header)
	}
	names = header[1:]
	body := data[cr.InputOffset():]
	rows := scanRows(body)
	if rows.n < 2 {
		return nil, nil, fmt.Errorf("trace: need a header and at least two rows, got %d records", rows.n+1)
	}
	t0, err := parseTimestamp(timestamp(rows.first))
	if err != nil {
		return nil, nil, err
	}
	t1, err := parseTimestamp(timestamp(rows.second))
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
	last, err := parseTimestamp(timestamp(rows.last))
	if err != nil {
		return nil, nil, err
	}
	// Tolerance: the timestamp quantum (±0.5 µs on each of the two rows
	// compared) plus float formatting noise, which scales with magnitude.
	// Anything past that is real drift: the recovered interval is wrong.
	wantLast := t0 + float64(rows.n-1)*iv.Seconds()
	if math.Abs(last-wantLast) > 2e-6+1e-12*math.Abs(wantLast) {
		return nil, nil, fmt.Errorf(
			"trace: last timestamp %v does not match %d samples at the recovered interval %v (want %v); interval not representable or timestamps inconsistent",
			last, rows.n, iv, wantLast)
	}
	// A row holds len(names)+1 fields of at least one byte each, but for
	// a middle row's timestamp, which is never parsed and may be empty,
	// and every row but the last ends in "\n": 2·len(names)+1 bytes. A
	// body too short for its row count is corrupt, and is rejected here,
	// before the columns (rows × names samples) are allocated from it.
	if rows.n > (len(body)+1)/(2*len(names)+1) {
		return nil, nil, fmt.Errorf("trace: %d rows of %d fields do not fit in %d bytes; rows are missing fields",
			rows.n, len(names)+1, len(body))
	}
	// The columns are cut from one array, each capped at its own length
	// so that Series.Append copies instead of writing into the next. An
	// array of its own per column would be rounded up to whole 8 KiB
	// pages once it outgrows Go's largest size class (32 KiB): a 6 h
	// column of 4,320 samples (34,560 B) would take five pages, 40,960 B.
	all := make([]float64, len(names)*rows.n)
	cols := make([][]float64, len(names))
	for j := range cols {
		cols[j] = all[j*rows.n : (j+1)*rows.n : (j+1)*rows.n]
	}
	if err := decodeRows(body, cols); err != nil {
		return nil, nil, err
	}
	series = make([]*model.Series, len(names))
	for j := range names {
		series[j] = model.SeriesFromSamples(iv, cols[j])
	}
	return names, series, nil
}

// rowScan is one pass over a chunk body: its row count and the three rows
// the interval checks read.
type rowScan struct {
	n                   int
	first, second, last []byte
}

// scanRows scans body once.
func scanRows(body []byte) rowScan {
	var s rowScan
	for rest := body; len(rest) > 0; {
		var row []byte
		row, rest = cutRow(rest)
		if len(row) == 0 {
			continue
		}
		switch s.n {
		case 0:
			s.first = row
		case 1:
			s.second = row
		}
		s.last = row
		s.n++
	}
	return s
}

// cutRow returns b's first line, without its "\n" and one trailing "\r",
// and the rest of b after it.
func cutRow(b []byte) (row, rest []byte) {
	row = b
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		row, rest = b[:i], b[i+1:]
	}
	if n := len(row); n > 0 && row[n-1] == '\r' {
		row = row[:n-1]
	}
	return row, rest
}

// timestamp returns a row's first field.
func timestamp(row []byte) string {
	if i := bytes.IndexByte(row, ','); i >= 0 {
		row = row[:i]
	}
	return string(row)
}

// decodeRows decodes body's rows into cols, stopping at the first bad
// row.
func decodeRows(body []byte, cols [][]float64) error {
	for r := 0; len(body) > 0; {
		var row []byte
		row, body = cutRow(body)
		if len(row) == 0 {
			continue
		}
		if err := decodeRow(row, r, cols); err != nil {
			return err
		}
		r++
	}
	return nil
}

// decodeRow stores row r's samples at index r of cols in one walk along
// the row. The timestamp is read only by the interval checks, so here it
// is only checked for quotes; each sample is scanned from the comma the
// last one ended at, and a field scanDecimal declines is cut at its own
// comma and handed to parseSample.
func decodeRow(line []byte, r int, cols [][]float64) error {
	i := bytes.IndexByte(line, ',') // the comma ending the last field read
	if i < 0 {
		return rowError(line, r, len(cols)+1, nil, nil)
	}
	if ts := line[:i]; bytes.IndexByte(ts, '"') >= 0 {
		return rowError(line, r, len(cols)+1, ts, nil)
	}
	for _, col := range cols {
		if i == len(line) { // the row has no field left
			return rowError(line, r, len(cols)+1, nil, nil)
		}
		f := line[i+1:]
		v, n, ok := scanDecimal(f)
		if !ok {
			if n = bytes.IndexByte(f, ','); n < 0 {
				n = len(f)
			}
			var err error
			if v, err = parseSample(f[:n]); err != nil {
				return rowError(line, r, len(cols)+1, f[:n], err)
			}
		}
		col[r] = v
		i += 1 + n
	}
	if i != len(line) {
		return rowError(line, r, len(cols)+1, nil, nil)
	}
	return nil
}

var comma = []byte{','}

// rowError reports the first fault of row r, which decodeRow stopped at,
// in the order the row checks run: a field count other than want, then
// the field f, a quoted timestamp or a sample that failed with err.
func rowError(line []byte, r, want int, f []byte, err error) error {
	if n := 1 + bytes.Count(line, comma); n != want {
		return fmt.Errorf("trace: row %d has %d fields, want %d", r+1, n, want)
	}
	if bytes.IndexByte(f, '"') >= 0 {
		return fmt.Errorf("trace: row %d: quoted field %q; data fields are bare numbers", r+1, f)
	}
	return fmt.Errorf("trace: row %d: bad sample %q: %w", r+1, f, err)
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
