package dcsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/pkg/dcsim/model"
)

// recordSmallDir records an 8-VM synthetic workload as a trace directory
// chunked 3 VMs per file.
func recordSmallDir(t *testing.T) string {
	t.Helper()
	ds, err := GenerateTraces(Workload{Kind: "datacenter", VMs: 8, Groups: 2, Hours: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteTraceDir(dir, ds, 3); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunMaterializeByteIdentical pins the default scenario at the
// single-run level: Run over its workload and RunVMs over the Dataset
// that GenerateTraces returns produce byte-identical results.
func TestRunMaterializeByteIdentical(t *testing.T) {
	sc := New(smallOpts()...)
	streamed, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateTraces(sc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := RunVMs(context.Background(), model.VMsFromSeries(ds.Names, ds.Fine), sc)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(streamed)
	mj, _ := json.Marshal(mat)
	if !bytes.Equal(sj, mj) {
		t.Fatalf("Run differs from RunVMs over GenerateTraces:\n%s\nvs\n%s", sj, mj)
	}
}

// TestStreamMatchesMaterialized pins the ingest path on every built-in
// kind: Run over the workload must produce byte-identical results to
// RunVMs over the Dataset that GenerateTraces returns for it.
func TestStreamMatchesMaterialized(t *testing.T) {
	dir := recordSmallDir(t)
	store := httptest.NewServer(&objstore.DirServer{Dir: dir})
	defer store.Close()
	cases := []struct {
		kind string
		opts []Option
	}{
		{"datacenter", nil},
		{"uncorrelated", nil},
		{"trace-dir", []Option{WithTracePath(dir)}},
		{"trace-obj", []Option{WithTracePath(store.URL),
			WithWorkloadOption("cache_dir", filepath.Join(t.TempDir(), "cache"))}},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			for _, policy := range []string{"bfd", "corr-aware"} {
				opts := append(smallOpts(), WithWorkloadKind(c.kind), WithPolicy(policy), WithRescaleEvery(12))
				sc := New(append(opts, c.opts...)...)
				streamed, err := Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				ds, err := GenerateTraces(sc.Workload)
				if err != nil {
					t.Fatal(err)
				}
				mat, err := RunVMs(context.Background(), model.VMsFromSeries(ds.Names, ds.Fine), sc)
				if err != nil {
					t.Fatal(err)
				}
				sj, err := json.Marshal(streamed)
				if err != nil {
					t.Fatal(err)
				}
				mj, err := json.Marshal(mat)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sj, mj) {
					t.Fatalf("%s: Run differs from RunVMs over GenerateTraces:\n%s\nvs\n%s", policy, sj, mj)
				}
			}
		})
	}
}

// TestOpenTracesCancelBetweenRecords pins load cancellation between the
// chunks of a recording: a context cancelled after the first chunk has
// been read stops the load before the next one with the context's error.
func TestOpenTracesCancelBetweenRecords(t *testing.T) {
	dir := recordSmallDir(t) // three chunks
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The recorded loader checks the context once before each chunk, so
	// the second check cancels with the first chunk read.
	cctx := &cancelOnErr{Context: ctx, cancel: cancel, n: 2}
	r, err := OpenTraces(cctx, Workload{Kind: "trace-dir", VMs: 8, Hours: 2, Path: dir})
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("OpenTraces cancelled between chunks = %v, %v; want context.Canceled and no reader", r, err)
	}
	if n := cctx.calls.Load(); n != 2 {
		t.Fatalf("the load checked the context %d times, want 2: the cancel did not land between chunks", n)
	}
}

// TestRunCancelledContext pins the run-level path: a cancelled context
// surfaces context.Canceled out of Run before any placement work.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, New(smallOpts()...)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx = %v, want context.Canceled", err)
	}
}

// cancelOnErr is a context cancelled by its own Err call number n: the
// synthetic generator checks the context before each VM and the recorded
// loader before each chunk, so this cancels a load between two given VMs
// or chunks.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func (c *cancelOnErr) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRunCancelledDuringSyntheticIngest: cancelling while a datacenter
// workload is being refined in batches on goroutines makes Run return the
// context's error, and leaves no goroutine behind.
func TestRunCancelledDuringSyntheticIngest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Batches hold four records. The sixth Err call, before record 5,
	// cancels with the second batch (records 4-7) partly emitted.
	cctx := &cancelOnErr{Context: ctx, cancel: cancel, n: 6}
	sc := New(WithVMs(40), WithGroups(4), WithHours(2), WithMaxServers(20))
	if _, err := Run(cctx, sc); !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("Run cancelled mid-ingest = %v, want the context's error %v", err, ctx.Err())
	}
	if n := cctx.calls.Load(); n != 6 {
		t.Fatalf("ingest checked the context %d times, want 6: the cancel did not land mid-ingest", n)
	}
	// A goroutine that has signalled its WaitGroup may still be exiting;
	// wait for the count to settle rather than sample it once.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTruncatedManifestRejectedBeforePlacement pins the fail-fast
// contract: a manifest claiming VMs its chunks do not cover is rejected
// when the load starts — before any trace bytes are read or any
// placement runs — both at preflight and through Run.
func TestTruncatedManifestRejectedBeforePlacement(t *testing.T) {
	dir := recordSmallDir(t)
	mPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	files := m["files"].([]any)
	m["files"] = files[:len(files)-1] // drop the last chunk; names keep claiming its VMs
	trunc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mPath, trunc, 0o644); err != nil {
		t.Fatal(err)
	}

	w := Workload{Kind: "trace-dir", VMs: 8, Hours: 2, Path: dir}
	for name, got := range map[string]error{
		"CheckWorkload": CheckWorkload(w),
		"OpenTraces": func() error {
			r, err := OpenTraces(context.Background(), w)
			if err == nil {
				r.Close()
			}
			return err
		}(),
		"Run": func() error {
			sc := New(smallOpts()...)
			sc.Workload = w
			_, err := Run(context.Background(), sc)
			return err
		}(),
	} {
		if got == nil || !strings.Contains(got.Error(), "manifest files cover") {
			t.Fatalf("%s = %v, want the manifest-coverage rejection", name, got)
		}
	}
}
