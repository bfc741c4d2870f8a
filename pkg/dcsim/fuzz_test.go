package dcsim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseScenario feeds arbitrary bytes to the scenario decoder. Whatever
// ParseScenario accepts must pass through CheckScenario without panicking
// and must re-encode stably: marshal → ParseScenario → marshal gives the
// same bytes. The comparison is on bytes, not DeepEqual, because
// `"params":{}` decodes to an empty map that omitempty then drops.
func FuzzParseScenario(f *testing.F) {
	for _, sc := range []Scenario{
		DefaultScenario(),
		New(WithWorkloadKind("trace-dir"), WithTracePath("no-such-trace-dir")),
		New(WithPolicy("corr-aware"), WithParam("thcost", 1.2), WithParam("alpha", 0.8)),
	} {
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"workload":{"vms":4,"hours":1},"max_servers":2000000000}`))
	f.Add([]byte(`{"workload":{"vms":4,"groups":1,"hours":1},"pctl":-0.5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		_ = CheckScenario(sc) // rejection is fine; a panic is not
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("re-encoded scenario %s rejected: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-parsed scenario does not marshal: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", enc, again)
		}
	})
}
