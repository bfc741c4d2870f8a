package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
)

// SplitURLList splits a comma-separated worker list (the "dcsim sweep
// -remote" flag format), trimming whitespace and dropping empty entries —
// the one parsing rule for flag and config strings, ahead of
// fleet.NewStaticRegistry's per-URL normalization.
func SplitURLList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// RunCell executes one cell-replica on the worker at baseURL — the POST
// /run leg of the worker protocol, which the fleet executor in sweep/fleet
// dispatches every remote run through. Failures classify three ways: a
// *TransportError (connection-level failure, 5xx, or a non-protocol
// response — the worker is gone or unusable, re-execute elsewhere), a
// typed *Error with CodeBusy or CodeDraining (a healthy worker declining —
// wait or reroute, carrying any Retry-After hint), or any other typed
// *Error (deterministic, never retried).
func RunCell(ctx context.Context, client *http.Client, baseURL string, run sweep.CellRun) (*dcsim.Result, error) {
	body, err := json.Marshal(run)
	if err != nil {
		return nil, fmt.Errorf("remote: marshal cell run: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+runPath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("remote: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, &TransportError{err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, &TransportError{fmt.Errorf("read response: %w", err)}
	}
	var envelope runResponse
	decodeErr := json.Unmarshal(data, &envelope)
	switch {
	case resp.StatusCode == http.StatusOK && decodeErr == nil && envelope.Result != nil:
		return envelope.Result, nil
	case decodeErr == nil && envelope.Error != nil && resp.StatusCode == http.StatusServiceUnavailable &&
		(envelope.Error.Code == CodeBusy || envelope.Error.Code == CodeDraining):
		// A healthy worker declining: busy (retry after the hint) or
		// draining (reroute). Not a death.
		envelope.Error.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, envelope.Error
	case decodeErr == nil && envelope.Error != nil && resp.StatusCode < http.StatusInternalServerError:
		// A typed worker-side failure: deterministic, so not retryable.
		return nil, envelope.Error
	default:
		// 5xx, a truncated body, or a non-protocol response: treat the
		// worker as broken and fail over.
		return nil, &TransportError{fmt.Errorf("status %d: %s", resp.StatusCode, snippet(data))}
	}
}

// parseRetryAfter reads a Retry-After header's delay-seconds form ("",
// unparsable, or too large for a time.Duration means no hint; the
// HTTP-date form is not worth supporting between our own binaries).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// maxBodyBytes bounds every response body this client reads — run
// results, capability listings, and health probes alike — so a confused
// or hostile endpoint cannot balloon the sweep driver's memory.
const maxBodyBytes = 64 << 20

// snippet bounds an HTTP body for error messages.
func snippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}

// FetchHealth retrieves one worker's /healthz payload: liveness plus the
// in-flight run count and capabilities fingerprint (fields old workers
// omit; they decode to zero values).
func FetchHealth(ctx context.Context, client *http.Client, baseURL string) (HealthInfo, error) {
	var info HealthInfo
	err := getJSON(ctx, client, baseURL+healthPath, &info)
	return info, err
}

// Health checks one worker's liveness endpoint.
func Health(ctx context.Context, client *http.Client, baseURL string) error {
	info, err := FetchHealth(ctx, client, baseURL)
	if err != nil {
		return err
	}
	if info.Status != StatusOK {
		return fmt.Errorf("remote: worker %s health = %q", baseURL, info.Status)
	}
	return nil
}

// FetchCapabilities retrieves a worker's registry listing.
func FetchCapabilities(ctx context.Context, client *http.Client, baseURL string) (Capabilities, error) {
	var caps Capabilities
	err := getJSON(ctx, client, baseURL+capabilitiesPath, &caps)
	return caps, err
}

// Preflight health-checks every worker URL — concurrently, each under its
// own timeout, so one blackholed worker costs one timeout, not one per
// worker — and returns an error naming the unreachable ones. It does not
// mark anything dead: a worker that is merely slow to start may well
// serve the sweep.
func Preflight(ctx context.Context, client *http.Client, urls []string) error {
	bad := eachWorker(ctx, urls, func(ctx context.Context, url string) error {
		return Health(ctx, client, url)
	})
	if len(bad) > 0 {
		return fmt.Errorf("remote: unreachable workers: %s", strings.Join(bad, "; "))
	}
	return nil
}

// PreflightGrid is Preflight plus a registry check: every worker must be
// healthy and its capability listing must resolve every component name the
// grid's cells select, so a grid naming an out-of-tree component some
// worker binary never registered fails here — before any fan-out — naming
// the worker and the missing components, instead of aborting mid-sweep.
func PreflightGrid(ctx context.Context, client *http.Client, urls []string, g sweep.Grid) error {
	cells, err := g.Cells()
	if err != nil {
		return err
	}
	type need struct{ kind, name string }
	needs := map[need]bool{}
	for _, c := range cells {
		sc := c.Scenario
		needs[need{"policy", sc.Policy}] = true
		needs[need{"governor", sc.Governor}] = true
		needs[need{"predictor", sc.Predictor}] = true
		needs[need{"server", sc.Server}] = true
		needs[need{"workload", sc.Workload.Kind}] = true
	}
	bad := eachWorker(ctx, urls, func(ctx context.Context, url string) error {
		if err := Health(ctx, client, url); err != nil {
			return err
		}
		caps, err := FetchCapabilities(ctx, client, url)
		if err != nil {
			return err
		}
		has := map[need]bool{}
		for kind, names := range map[string][]string{
			"policy": caps.Policies, "governor": caps.Governors,
			"predictor": caps.Predictors, "server": caps.Servers,
			"workload": caps.Workloads,
		} {
			for _, n := range names {
				has[need{kind, n}] = true
			}
		}
		var missing []string
		for n := range needs {
			if !has[n] {
				missing = append(missing, n.kind+" "+n.name)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return fmt.Errorf("missing %s", strings.Join(missing, ", "))
		}
		return nil
	})
	if len(bad) > 0 {
		return fmt.Errorf("remote: workers cannot serve the grid: %s", strings.Join(bad, "; "))
	}
	return nil
}

// eachWorker runs check against every worker URL concurrently, each call
// under its own 5s timeout, and returns the failures in URL order.
func eachWorker(ctx context.Context, urls []string, check func(ctx context.Context, url string) error) []string {
	errs := make([]error, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			errs[i] = check(wctx, url)
		}()
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s (%v)", urls[i], err))
		}
	}
	return bad
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("remote: build request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("remote: GET %s: status %d: %s", url, resp.StatusCode, snippet(data))
	}
	// The same body bound RunCell applies: an OK status from a confused
	// endpoint must not stream an unbounded body into the decoder.
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("remote: GET %s: decode: %w", url, err)
	}
	return nil
}
