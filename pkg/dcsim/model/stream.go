package model

import (
	"context"
	"fmt"
	"io"
)

// VMRecord is one VM as a streaming workload backend emits it: the name
// and the fine-granularity demand every run reads. Records arrive in
// canonical dataset order — the same order a materialized Dataset's
// parallel slices use — so folding a stream and indexing a Dataset see
// identical VM sequences.
type VMRecord struct {
	Name string
	// Fine is the fine-granularity demand; never nil.
	Fine *Series
}

// DatasetReader yields a workload's VMs one record at a time, in canonical
// order. Next returns io.EOF after the last record; any other error is
// terminal (the stream is broken, not resumable). Close releases whatever
// the reader holds — chunk buffers, cache handles — and must be called
// whether or not the stream was drained.
//
// Len reports the total VM count, known up front from the manifest or the
// generator config, so consumers can size their fold state before the
// first record arrives.
type DatasetReader interface {
	Len() int
	Next() (VMRecord, error)
	Close() error
}

// Materialize drains a reader into the Dataset its records describe and
// closes it — the whole-dataset form of a WorkloadSource's stream, for
// consumers that index traces instead of folding them. A drain error
// closes the reader and wins over any close error.
func Materialize(r DatasetReader) (*Dataset, error) {
	n := r.Len()
	if n < 0 {
		n = 0
	}
	ds := &Dataset{
		Names: make([]string, 0, n),
		Fine:  make([]*Series, 0, n),
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			return nil, err
		}
		if rec.Fine == nil {
			r.Close()
			return nil, fmt.Errorf("model: stream record %q has no fine series", rec.Name)
		}
		ds.Names = append(ds.Names, rec.Name)
		ds.Fine = append(ds.Fine, rec.Fine)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return ds, nil
}

// datasetReader adapts a materialized Dataset to the streaming contract.
type datasetReader struct {
	ds *Dataset
	i  int
}

// DatasetReaderOf wraps an already-materialized Dataset as a DatasetReader
// — how a WorkloadSource that holds its traces in memory implements Open.
// It shares the Dataset's series (no copies), so it bounds nothing; wrap it
// in ReaderWithContext to make a long one cancellable between records.
func DatasetReaderOf(ds *Dataset) DatasetReader {
	return &datasetReader{ds: ds}
}

func (r *datasetReader) Len() int { return len(r.ds.Fine) }

func (r *datasetReader) Next() (VMRecord, error) {
	if r.i >= len(r.ds.Fine) {
		return VMRecord{}, io.EOF
	}
	i := r.i
	r.i++
	rec := VMRecord{Fine: r.ds.Fine[i]}
	if i < len(r.ds.Names) {
		rec.Name = r.ds.Names[i]
	}
	return rec, nil
}

func (r *datasetReader) Close() error { return nil }

// ctxReader decorates a DatasetReader with per-record cancellation checks.
type ctxReader struct {
	DatasetReader
	ctx context.Context
}

// ReaderWithContext returns a reader that checks ctx before every record,
// so a long stream from a source that never blocks (a synthetic generator,
// a wrapped Dataset) still stops promptly between VM records when the run
// is cancelled. Transport-backed readers that already thread the context
// through their fetches don't need it.
func ReaderWithContext(ctx context.Context, r DatasetReader) DatasetReader {
	if ctx == nil {
		return r
	}
	return &ctxReader{DatasetReader: r, ctx: ctx}
}

func (r *ctxReader) Next() (VMRecord, error) {
	if err := r.ctx.Err(); err != nil {
		return VMRecord{}, err
	}
	return r.DatasetReader.Next()
}
