package model

import (
	"io"
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

// TestDatasetReaderEOF: the reader walks the Dataset in order, pairing
// each name with its series (shared, not copied), then returns io.EOF
// from every further Next.
func TestDatasetReaderEOF(t *testing.T) {
	ds := testDataset(t, 3)
	r := DatasetReaderOf(ds)
	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
	for i := range ds.Fine {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Name != ds.Names[i] || rec.Fine != ds.Fine[i] {
			t.Fatalf("record %d is %q, want %q with the dataset's own series", i, rec.Name, ds.Names[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next() past the end = %v, want io.EOF", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next() remains io.EOF, got %v", err)
	}
}
