package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/backoff"
)

// AgentConfig tells an Agent who it is and where the coordinator lives.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL (the listener serving
	// NewHandler).
	Coordinator string
	// SelfURL is the worker's externally reachable base URL — what the
	// coordinator will dispatch runs to.
	SelfURL string
	// Capabilities is the worker's registry fingerprint (see
	// remote.Capabilities.Fingerprint). Optional but recommended: it lets
	// the coordinator spot registry drift across the fleet.
	Capabilities string
	// Interval is the heartbeat interval to request; the coordinator's
	// grant wins. 0 requests the coordinator's default.
	Interval time.Duration
	// Status, when set, supplies each beat's status ("ok" or "draining")
	// and in-flight run count. Nil reports ok/0 forever.
	Status func() (status string, inflight int64)
	// Client is the HTTP client for all coordinator calls; nil uses a
	// client with a 10s timeout (membership calls are small and fast —
	// unlike runs, hanging forever is wrong).
	Client *http.Client
	// Logf, when set, receives one line per membership event. Nil means
	// silent.
	Logf func(format string, args ...any)
}

// Agent is the worker-side membership loop `dcsim worker -register` runs:
// register with the coordinator (retrying until it is reachable), beat on
// the granted interval, re-register when the coordinator has forgotten us
// (expiry, or a coordinator restart), and deregister on the way out.
type Agent struct {
	cfg  AgentConfig
	kick chan struct{}
}

// NewAgent validates the config and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	var err error
	if cfg.Coordinator, err = normalizeURL(cfg.Coordinator); err != nil {
		return nil, fmt.Errorf("fleet: coordinator URL: %w", err)
	}
	if cfg.SelfURL, err = normalizeURL(cfg.SelfURL); err != nil {
		return nil, fmt.Errorf("fleet: worker URL: %w", err)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Agent{cfg: cfg, kick: make(chan struct{}, 1)}, nil
}

// BeatNow asks the agent to heartbeat immediately instead of waiting out
// the interval — `dcsim worker` kicks it when SIGINT flips the drain
// state, so the coordinator stops routing to us the moment the drain
// starts rather than a beat later. Safe from any goroutine; a kick while
// one is already pending coalesces.
func (a *Agent) BeatNow() {
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

// logf logs through cfg.Logf when set.
func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// status reads the worker's current status and load.
func (a *Agent) status() (string, int64) {
	if a.cfg.Status == nil {
		return "ok", 0
	}
	return a.cfg.Status()
}

// Run drives the membership loop until ctx ends, then deregisters
// (best-effort) and returns ctx's error. Registration failures retry —
// a worker may come up before its coordinator — and a heartbeat answered
// 404 re-registers, so a coordinator restart or an expiry during a long
// GC pause heals without operator action.
func (a *Agent) Run(ctx context.Context) error {
	id, interval, err := a.register(ctx)
	if err != nil {
		return err
	}
	for {
		t := time.NewTimer(interval)
		select {
		case <-t.C:
		case <-a.kick:
			t.Stop()
		case <-ctx.Done():
			t.Stop()
			a.deregister(id)
			return ctx.Err()
		}
		status, inflight := a.status()
		err := a.beat(ctx, id, HeartbeatRequest{Status: status, Inflight: inflight})
		switch {
		case ctx.Err() != nil:
			a.deregister(id)
			return ctx.Err()
		case isUnknownMember(err):
			// The coordinator forgot us — we expired, or it restarted.
			a.logf("fleet: coordinator forgot member %s, re-registering", id)
			if id, interval, err = a.register(ctx); err != nil {
				return err
			}
		case err != nil:
			// Transient: the coordinator may be briefly unreachable. Keep
			// beating; it re-admits us (or answers 404) when it returns.
			a.logf("fleet: heartbeat failed: %v", err)
		}
	}
}

// register announces the worker, retrying until the coordinator accepts
// or ctx ends. It returns the granted member ID and interval.
func (a *Agent) register(ctx context.Context) (string, time.Duration, error) {
	status, _ := a.status()
	req := RegisterRequest{
		URL:          a.cfg.SelfURL,
		Capabilities: a.cfg.Capabilities,
		IntervalMS:   a.cfg.Interval.Milliseconds(),
		Status:       status,
	}
	for {
		var resp RegisterResponse
		err := a.call(ctx, http.MethodPost, a.cfg.Coordinator+registerPath, req, &resp)
		if err == nil {
			interval := time.Duration(resp.IntervalMS) * time.Millisecond
			if interval <= 0 {
				interval = 2 * time.Second
			}
			a.logf("fleet: registered as %s with %s (heartbeat %s, expiry after %d missed beats)",
				resp.ID, a.cfg.Coordinator, interval, resp.MissThreshold)
			return resp.ID, interval, nil
		}
		a.logf("fleet: register with %s failed (%v), retrying", a.cfg.Coordinator, err)
		if serr := backoff.Sleep(ctx, 500*time.Millisecond); serr != nil {
			return "", 0, fmt.Errorf("fleet: register with %s: %w (last failure: %v)", a.cfg.Coordinator, serr, err)
		}
	}
}

// beat sends one heartbeat.
func (a *Agent) beat(ctx context.Context, id string, hb HeartbeatRequest) error {
	return a.call(ctx, http.MethodPut, a.cfg.Coordinator+membersPath+id, hb, nil)
}

// deregister tells the coordinator we are leaving — best effort, under
// its own short deadline since the caller's context is already done.
func (a *Agent) deregister(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.call(ctx, http.MethodDelete, a.cfg.Coordinator+membersPath+id, nil, nil); err != nil {
		a.logf("fleet: deregister %s failed: %v", id, err)
		return
	}
	a.logf("fleet: deregistered %s", id)
}

// statusError is a non-2xx coordinator response.
type statusError struct {
	status int
	code   string
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("fleet: coordinator status %d (%s): %s", e.status, e.code, e.msg)
}

// isUnknownMember reports whether err is the coordinator disowning our
// member ID.
func isUnknownMember(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == http.StatusNotFound
}

// call performs one JSON request against the coordinator, decoding a 2xx
// body into out (when non-nil) and a failure envelope into a statusError.
func (a *Agent) call(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: marshal request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("fleet: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("fleet: %s %s: read response: %w", method, url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env fleetError
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			return &statusError{status: resp.StatusCode, code: env.Error.Code, msg: env.Error.Message}
		}
		return &statusError{status: resp.StatusCode, code: "unexpected", msg: strings.TrimSpace(string(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("fleet: %s %s: decode response: %w", method, url, err)
		}
	}
	return nil
}
