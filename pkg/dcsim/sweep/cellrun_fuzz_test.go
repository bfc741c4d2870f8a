package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/pkg/dcsim"
)

// decodeCellRun decodes a CellRun as strictly as a worker's /run handler
// does: unknown fields are errors.
func decodeCellRun(data []byte) (CellRun, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var run CellRun
	err := dec.Decode(&run)
	return run, err
}

// FuzzCellRun feeds arbitrary bytes through what a worker does with a
// CellRun off the wire: strict decode, Cell.Name, Scenario and
// dcsim.CheckScenario. None of it may panic, and an accepted run must
// survive marshal → decode → marshal byte-identically, because a retried
// cell is re-sent from its encoding.
func FuzzCellRun(f *testing.F) {
	g, err := ParseGrid([]byte(`{"base":{"policy":"corr-aware","workload":{"vms":6}},` +
		`"axes":[{"field":"param:thcost","values":[1.0,1.25]},{"field":"oracle","values":[false,true]}],"replicas":2}`))
	if err != nil {
		f.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range cells {
		data, err := json.Marshal(CellRun{Cell: c, Replica: i % 2, SeedStride: g.SeedStride})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"cell":{"index":0,"scenario":{"workload":{"vms":4,"hours":1},"max_servers":2000000000}},"replica":0,"seed_stride":1}`))
	f.Add([]byte(`{"cell":{"index":3,"assign":[{"field":"workload.path","value":"no-such-trace-dir"}],` +
		`"scenario":{"workload":{"kind":"trace-dir","path":"no-such-trace-dir"}}},"replica":-9223372036854775808,"seed_stride":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := decodeCellRun(data)
		if err != nil {
			return
		}
		_ = run.Cell.Name()
		_ = dcsim.CheckScenario(run.Scenario()) // rejection is fine; a panic is not
		enc, err := json.Marshal(run)
		if err != nil {
			t.Fatalf("decoded run does not marshal: %v", err)
		}
		back, err := decodeCellRun(enc)
		if err != nil {
			t.Fatalf("re-encoded run %s rejected: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-decoded run does not marshal: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", enc, again)
		}
	})
}
