package model

import "io"

// VMRecord is one VM as dcsim.OpenTraces yields it: the name and the
// fine-granularity demand every run reads. Records arrive in canonical
// dataset order — the order of a Dataset's parallel slices.
type VMRecord struct {
	Name string
	// Fine is the fine-granularity demand; never nil.
	Fine *Series
}

// DatasetReader yields a loaded workload's VMs one record at a time, in
// canonical order. Next returns io.EOF after the last record. Close must
// be called when the caller is done.
//
// Len reports the total VM count, so consumers can size their state
// before the first record arrives.
type DatasetReader interface {
	Len() int
	Next() (VMRecord, error)
	Close() error
}

// datasetReader walks a loaded Dataset as a DatasetReader.
type datasetReader struct {
	ds *Dataset
	i  int
}

// DatasetReaderOf walks a Dataset record by record — the reader
// dcsim.OpenTraces returns over the Dataset a workload backend loaded. It
// shares the Dataset's series (no copies).
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
