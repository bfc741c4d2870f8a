package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/pkg/dcsim"
)

// kvFlag collects a repeatable key=value flag (-wopt cache_mb=64 -wopt
// retries=2).
type kvFlag []string

// String implements flag.Value.
func (f *kvFlag) String() string { return strings.Join(*f, ",") }

// Set implements flag.Value.
func (f *kvFlag) Set(s string) error {
	*f = append(*f, s)
	return nil
}

// applyRecording applies the recorded-trace flags the run and sweep
// commands share to w; an empty flag is unset. -tracedir and -objstore
// name a recording location, at most one of them, and the location implies
// its kind unless -workload (kindSet) or the scenario or grid chose a kind
// other than the default. Each -wopt key=value pair becomes a kind-scoped
// option: the backend's validation rejects unread keys later, but a
// missing "=" fails here, at the flag.
func applyRecording(w *dcsim.Workload, kindSet bool, tracedir, objstore string, wopts []string) error {
	if tracedir != "" && objstore != "" {
		return errors.New("-tracedir and -objstore are mutually exclusive (one recording location)")
	}
	path, kind := tracedir, "trace-dir"
	if objstore != "" {
		path, kind = objstore, "trace-obj"
	}
	if path != "" {
		w.Path = path
		if !kindSet && (w.Kind == "" || w.Kind == dcsim.DefaultScenario().Workload.Kind) {
			w.Kind = kind
		}
	}
	for _, kv := range wopts {
		key, value, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return fmt.Errorf("-wopt needs key=value, got %q", kv)
		}
		w.SetOption(key, value)
	}
	return nil
}
