package dcsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/objstore"
	"repro/pkg/dcsim/model"
)

func TestWorkloadKindsListsBuiltins(t *testing.T) {
	kinds := WorkloadKinds()
	for _, want := range []string{"datacenter", "uncorrelated", "trace-dir", "trace-obj"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("WorkloadKinds() = %v, missing %q", kinds, want)
		}
	}
}

// TestGenerateTracesErrors: every bad workload description fails loudly,
// through GenerateTraces and OpenTraces alike.
func TestGenerateTracesErrors(t *testing.T) {
	dir := t.TempDir() // empty: no manifest
	cases := []struct {
		name string
		w    Workload
		want string // substring of the error
	}{
		{"unknown kind", Workload{Kind: "s3"}, `unknown workload kind "s3"`},
		{"unknown kind lists known", Workload{Kind: "s3"}, "trace-dir"},
		{"path on synthetic", Workload{Kind: "datacenter", Path: "/tmp/x"}, "does not read a path"},
		{"path on default kind", Workload{Path: "/tmp/x"}, "does not read a path"},
		{"default kind named in errors", Workload{Path: "/tmp/x"}, `"datacenter"`},
		{"negative vms", Workload{Kind: "datacenter", VMs: -4}, "non-negative"},
		{"negative hours", Workload{Kind: "uncorrelated", Hours: -1}, "non-negative"},
		{"trace-dir without path", Workload{Kind: "trace-dir"}, "needs a path"},
		{"trace-dir missing manifest", Workload{Kind: "trace-dir", Path: dir}, "manifest.json"},
	}
	for _, c := range cases {
		if _, err := GenerateTraces(c.w); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("GenerateTraces(%s): err = %v, want mention of %q", c.name, err, c.want)
		}
		if r, err := OpenTraces(context.Background(), c.w); err == nil || !strings.Contains(err.Error(), c.want) {
			if err == nil {
				r.Close()
			}
			t.Errorf("OpenTraces(%s): err = %v, want mention of %q", c.name, err, c.want)
		}
		if err := CheckWorkload(c.w); err == nil {
			t.Errorf("CheckWorkload(%s) accepted a description GenerateTraces rejects", c.name)
		}
	}
}

// TestUncorrelatedKindIsOneGroupPerVM: the "uncorrelated" kind is the
// datacenter generator with one group per VM, sample for sample, whatever
// groups the workload asks for.
func TestUncorrelatedKindIsOneGroupPerVM(t *testing.T) {
	got, err := GenerateTraces(Workload{Kind: "uncorrelated", VMs: 9, Groups: 2, Hours: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateTraces(Workload{Kind: "datacenter", VMs: 9, Groups: 9, Hours: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fine) != len(want.Fine) {
		t.Fatalf("uncorrelated kind made %d traces, want %d", len(got.Fine), len(want.Fine))
	}
	for i, s := range want.Fine {
		if got.Names[i] != want.Names[i] || !slices.Equal(got.Fine[i].Samples(), s.Samples()) {
			t.Fatalf("VM %d: the uncorrelated kind differs from the datacenter generator with one group per VM", i)
		}
	}
}

// TestUnknownWorkloadKindIsTyped: registry misses surface as
// model.NotRegisteredError, so the distributed-sweep worker classifies a
// missing workload backend as unknown_component like any other registry
// mismatch.
func TestUnknownWorkloadKindIsTyped(t *testing.T) {
	_, err := GenerateTraces(Workload{Kind: "s3"})
	var nr *model.NotRegisteredError
	if !errors.As(err, &nr) || nr.Kind != "workload kind" {
		t.Fatalf("err = %#v, want *model.NotRegisteredError for a workload kind", err)
	}
	sc := New(WithWorkloadKind("s3"))
	if err := CheckScenario(sc); !errors.As(err, &nr) {
		t.Fatalf("CheckScenario err = %v, want a typed registry miss", err)
	}
	if _, err := Run(context.Background(), sc); !errors.As(err, &nr) {
		t.Fatalf("Run err = %v, want a typed registry miss", err)
	}
}

func TestRegisterWorkloadRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterWorkload did not panic")
		}
	}()
	RegisterWorkload("datacenter", nil)
}

// TestTraceDirRoundTripRun is the core recorded-workload property: a
// scenario reading traces recorded from a synthetic run produces a
// byte-identical Result at the same seed.
func TestTraceDirRoundTripRun(t *testing.T) {
	dir := t.TempDir()
	synthetic := New(smallOpts()...)
	ds, err := GenerateTraces(synthetic.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceDir(dir, ds, 3); err != nil {
		t.Fatal(err)
	}

	recorded := New(append(smallOpts(), WithWorkloadKind("trace-dir"), WithTracePath(dir))...)
	if err := CheckScenario(recorded); err != nil {
		t.Fatal(err)
	}

	want, err := Run(context.Background(), synthetic)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), recorded)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("recorded run differs from the synthetic run it was recorded from:\n%s\nvs\n%s",
			wantJSON, gotJSON)
	}
}

// TestTraceDirValidatedAgainstScenario: the manifest's shape gates the
// scenario before any run.
func TestTraceDirValidatedAgainstScenario(t *testing.T) {
	dir := t.TempDir()
	ds, err := GenerateTraces(Workload{VMs: 6, Groups: 2, Hours: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceDir(dir, ds, 0); err != nil {
		t.Fatal(err)
	}
	// Wrong VM count: the default scenario wants 40 VMs.
	sc := New(WithWorkloadKind("trace-dir"), WithTracePath(dir))
	if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), "records 6 VMs") {
		t.Errorf("CheckScenario = %v, want a VM-count mismatch", err)
	}
	if _, err := Run(context.Background(), sc); err == nil {
		t.Error("Run accepted a scenario whose workload mismatches the recording")
	}
	// Matching shape passes.
	sc = New(WithVMs(6), WithGroups(2), WithHours(2), WithMaxServers(6),
		WithWorkloadKind("trace-dir"), WithTracePath(dir))
	if err := CheckScenario(sc); err != nil {
		t.Errorf("matching scenario rejected: %v", err)
	}
}

// TestTraceObjCheckWritesNothing: preflight of a "trace-obj" workload is
// offline and side-effect free — CheckWorkload creates no chunk-cache
// directory, so a coordinator that never fetches never writes — while
// loading the workload, which fetches, still creates it.
func TestTraceObjCheckWritesNothing(t *testing.T) {
	dir := t.TempDir()
	ds, err := GenerateTraces(Workload{VMs: 4, Groups: 2, Hours: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceDir(dir, ds, 0); err != nil {
		t.Fatal(err)
	}
	store := httptest.NewServer(&objstore.DirServer{Dir: dir})
	defer store.Close()

	cache := filepath.Join(t.TempDir(), "nested", "cache")
	w := Workload{Kind: "trace-obj", Path: store.URL, VMs: 4, Hours: 1}
	w.SetOption(objstore.OptCacheDir, cache)
	if err := CheckWorkload(w); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cache); !os.IsNotExist(err) {
		t.Fatalf("CheckWorkload touched the chunk-cache directory (stat err = %v)", err)
	}
	r, err := OpenTraces(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("OpenTraces did not create the chunk cache: %v", err)
	}
}

// TestNegativeSeedsAreDistinct pins the generator half of the sweep
// seed-aliasing fix: negative seeds are real seeds, not aliases of the
// default.
func TestNegativeSeedsAreDistinct(t *testing.T) {
	w := Workload{VMs: 4, Groups: 2, Hours: 1}
	a, err := GenerateTraces(withSeed(w, -1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTraces(withSeed(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fine[0].At(0) == b.Fine[0].At(0) && a.Fine[0].At(1) == b.Fine[0].At(1) &&
		a.Fine[1].At(0) == b.Fine[1].At(0) {
		t.Fatal("seed -1 produced the same traces as seed 1")
	}
}

func withSeed(w Workload, seed int64) Workload {
	w.Seed = seed
	return w
}

// TestSeedInvariantWorkload: recorded kinds report seed invariance, the
// synthetic generators do not, and unknown kinds are simply false (the
// registry rejection happens elsewhere).
func TestSeedInvariantWorkload(t *testing.T) {
	for _, kind := range []string{"trace-dir", "trace-obj"} {
		if !SeedInvariantWorkload(kind) {
			t.Errorf("%s should be seed-invariant", kind)
		}
	}
	for _, kind := range []string{"datacenter", "uncorrelated", "", "nope"} {
		if SeedInvariantWorkload(kind) {
			t.Errorf("kind %q reported seed-invariant", kind)
		}
	}
}

// TestWorkloadOptionsContract pins the kind-scoped options map: keys a
// backend does not read are rejected (the unread-param rule, applied to
// workloads), setting is copy-on-write so derived scenarios never alias,
// and the scenario validator rejects structurally empty keys.
func TestWorkloadOptionsContract(t *testing.T) {
	t.Run("synthetic kinds read no options", func(t *testing.T) {
		for _, kind := range []string{"datacenter", "uncorrelated"} {
			w := Workload{Kind: kind, VMs: 4, Groups: 2, Hours: 1}
			w.SetOption("cache_mb", "1")
			err := CheckWorkload(w)
			if err == nil || !strings.Contains(err.Error(), "reads no options") {
				t.Errorf("kind %s: err = %v, want unread-option rejection", kind, err)
			}
		}
	})
	t.Run("trace-dir reads no options", func(t *testing.T) {
		w := Workload{Kind: "trace-dir", Path: t.TempDir()}
		w.SetOption("cache_mb", "1")
		err := CheckWorkload(w)
		if err == nil || !strings.Contains(err.Error(), "reads no options") {
			t.Errorf("err = %v, want unread-option rejection", err)
		}
	})
	t.Run("trace-obj rejects unread keys", func(t *testing.T) {
		w := Workload{Kind: "trace-obj", Path: "http://store.example/run"}
		w.SetOption("cache_gb", "1")
		err := CheckWorkload(w)
		if err == nil || !strings.Contains(err.Error(), "cache_gb") {
			t.Errorf("err = %v, want the unread key named", err)
		}
	})
	t.Run("copy on write", func(t *testing.T) {
		base := New(WithWorkloadOption("cache_mb", "64"))
		derived := base
		derived.Workload.SetOption("cache_mb", "128")
		if got := base.Workload.Option("cache_mb"); got != "64" {
			t.Errorf("base option mutated to %q through the derived copy", got)
		}
		if got := derived.Workload.Option("cache_mb"); got != "128" {
			t.Errorf("derived option = %q, want 128", got)
		}
	})
	t.Run("unknown options sorted", func(t *testing.T) {
		var w Workload
		w.SetOption("zeta", "1")
		w.SetOption("alpha", "1")
		w.SetOption("cache_mb", "1")
		got := w.UnknownOptions("cache_mb")
		if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
			t.Errorf("UnknownOptions = %v, want [alpha zeta]", got)
		}
	})
	t.Run("empty key fails validation", func(t *testing.T) {
		sc := New()
		sc.Workload.Options = map[string]string{"": "x"}
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "empty workload option key") {
			t.Errorf("Validate err = %v, want empty-key rejection", err)
		}
	})
	t.Run("options survive the JSON round trip", func(t *testing.T) {
		sc := New(WithWorkloadKind("trace-obj"), WithTracePath("http://store.example/run"),
			WithWorkloadOption("cache_mb", "64"))
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Workload.Option("cache_mb"); got != "64" {
			t.Errorf("round-tripped option = %q, want 64", got)
		}
	})
}
