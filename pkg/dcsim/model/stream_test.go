package model

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// testDataset builds a small dataset of n named fine series.
func testDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		fine := make([]float64, 12)
		for j := range fine {
			fine[j] = float64(i+1) + float64(j)/100
		}
		s := SeriesFromSamples(time.Second, fine)
		ds.Names = append(ds.Names, string(rune('a'+i)))
		ds.Fine = append(ds.Fine, s)
	}
	return ds
}

func TestMaterializeRoundTrip(t *testing.T) {
	ds := testDataset(t, 4)
	got, err := Materialize(DatasetReaderOf(ds))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names) != 4 || len(got.Fine) != 4 {
		t.Fatalf("materialized shape %d/%d, want 4 each", len(got.Names), len(got.Fine))
	}
	for i := range ds.Fine {
		if got.Names[i] != ds.Names[i] {
			t.Fatalf("record %d: got %q, want %q", i, got.Names[i], ds.Names[i])
		}
		// The adapter shares series, so identity (not just equality) holds.
		if got.Fine[i] != ds.Fine[i] {
			t.Fatalf("record %d: series not shared through the round trip", i)
		}
	}
}

// TestMaterializeRejectsRecordWithoutFine pins the one record check
// Materialize makes: a record with no fine series is a malformed stream,
// and the reader is closed.
func TestMaterializeRejectsRecordWithoutFine(t *testing.T) {
	ds := testDataset(t, 3)
	ds.Fine[1] = nil
	r := &errReader{inner: DatasetReaderOf(ds), after: 3, err: io.EOF}
	_, err := Materialize(r)
	if err == nil || !strings.Contains(err.Error(), `record "b" has no fine series`) {
		t.Fatalf("Materialize() = %v, want the fine-less record rejected", err)
	}
	if !r.closed {
		t.Fatal("Materialize did not close the reader after rejecting a record")
	}
}

// errReader yields n good records then a terminal error.
type errReader struct {
	inner DatasetReader
	after int
	err   error

	emitted int
	closed  bool
}

func (r *errReader) Len() int { return r.inner.Len() }
func (r *errReader) Next() (VMRecord, error) {
	if r.emitted >= r.after {
		return VMRecord{}, r.err
	}
	r.emitted++
	return r.inner.Next()
}
func (r *errReader) Close() error { r.closed = true; return r.inner.Close() }

func TestMaterializeMidStreamErrorClosesReader(t *testing.T) {
	want := errors.New("mid-stream failure")
	r := &errReader{inner: DatasetReaderOf(testDataset(t, 4)), after: 2, err: want}
	if _, err := Materialize(r); !errors.Is(err, want) {
		t.Fatalf("Materialize() = %v, want %v", err, want)
	}
	if !r.closed {
		t.Fatal("Materialize did not close the reader on a mid-stream error")
	}
}

func TestReaderWithContextCancelsBetweenRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := ReaderWithContext(ctx, DatasetReaderOf(testDataset(t, 3)))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := r.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next() after cancel = %v, want context.Canceled", err)
	}
}

func TestDatasetReaderEOF(t *testing.T) {
	r := DatasetReaderOf(testDataset(t, 1))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next() past the end = %v, want io.EOF", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next() remains io.EOF, got %v", err)
	}
}
