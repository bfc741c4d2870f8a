package remote

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/httpjson"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// statusClientClosedRequest reports a run stopped because the requester
// went away (nginx's non-standard 499; no standard code fits).
const statusClientClosedRequest = 499

// Server is the HTTP worker: it executes cell-replicas shipped by a
// fleet.Executor (or any RunCell caller) against this process's
// registries. The zero value is ready to serve.
//
// Endpoints, routed by method and path:
//
//	GET  /healthz       liveness, {"status":"ok"}
//	GET  /capabilities  the worker's registry listing (Capabilities)
//	POST /run           execute one sweep.CellRun, answer {"result": ...}
//	                    or a typed {"error": {code, message}}
//
// The GET endpoints answer HEAD too. Any other method on these paths
// answers 405 with an Allow header naming the ones served, and any other
// path 404. /run reads at most 8 MiB of body and rejects unknown fields: a
// body that does not decode answers 400 bad_request.
//
// /run validates the scenario against the worker's own registries before
// running, so a cell naming an out-of-tree component this process never
// registered fails with CodeUnknownComponent instead of an opaque string.
// The run executes under the request context: when the client disconnects
// or cancels, the simulation stops between samples and the response is
// CodeCancelled.
//
// /healthz answers a HealthInfo: {"status":"ok"} for compatibility with
// older clients, plus the current in-flight run count and the worker's
// capabilities fingerprint (see Capabilities.Fingerprint). A draining
// worker (SetDraining) reports {"status":"draining"} and answers /run
// with a 503 draining error so clients reroute instead of dead-marking
// it.
type Server struct {
	// Logf, when set, receives one line per handled run (and per typed
	// failure). Nil means silent.
	Logf func(format string, args ...any)

	// MaxInflight, when positive, bounds the runs executing at once:
	// beyond it /run answers 503 busy with a Retry-After, telling the
	// client this worker is loaded, not lost. 0 means unbounded (the
	// client's own per-worker in-flight cap is then the only limit).
	MaxInflight int64

	// inflight counts /run requests currently executing.
	inflight atomic.Int64
	// draining reports the worker is winding down (its drain window).
	draining atomic.Bool

	once sync.Once
	mux  *http.ServeMux
}

// Inflight is the number of runs executing right now — what a graceful
// drain is waiting on.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// SetDraining flips the worker's drain state. While draining, /healthz
// reports "draining" and /run rejects new work with a typed 503 draining
// error; in-flight runs are unaffected. `dcsim worker` sets it on SIGINT
// for the length of its -drain window.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the worker is winding down.
func (s *Server) Draining() bool { return s.draining.Load() }

// logf logs through s.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.once.Do(func() {
		s.mux = http.NewServeMux()
		s.mux.HandleFunc("GET "+healthPath, func(w http.ResponseWriter, r *http.Request) {
			status := StatusOK
			if s.draining.Load() {
				status = StatusDraining
			}
			httpjson.WriteJSON(w, http.StatusOK, HealthInfo{
				Status:       status,
				Inflight:     s.inflight.Load(),
				Capabilities: LocalCapabilities().Fingerprint(),
			})
		})
		s.mux.HandleFunc("GET "+capabilitiesPath, func(w http.ResponseWriter, r *http.Request) {
			httpjson.WriteJSON(w, http.StatusOK, LocalCapabilities())
		})
		s.mux.HandleFunc("POST "+runPath, s.handleRun)
	})
	s.mux.ServeHTTP(w, r)
}

// handleRun decodes one CellRun, validates it against this process's
// registries, and executes it under the request context. Draining and
// over-capacity workers decline with typed 503s — rejections that tell
// the client to reroute or wait, not to bury the worker.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining,
			"worker draining: finishing in-flight runs, accepting no new ones")
		return
	}
	if n := s.inflight.Add(1); s.MaxInflight > 0 && n > s.MaxInflight {
		s.inflight.Add(-1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, CodeBusy,
			fmt.Sprintf("worker at capacity: %d runs in flight", n-1))
		return
	}
	defer s.inflight.Add(-1)
	var run sweep.CellRun
	if err := httpjson.Decode(w, r, &run); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decode cell run: "+err.Error())
		return
	}
	sc := run.Scenario()
	if err := dcsim.CheckScenario(sc); err != nil {
		var nr *model.NotRegisteredError
		code, status := CodeBadScenario, http.StatusUnprocessableEntity
		if errors.As(err, &nr) {
			code = CodeUnknownComponent
		}
		s.writeError(w, status, code, err.Error())
		return
	}
	res, err := dcsim.Run(r.Context(), sc)
	if err != nil {
		if r.Context().Err() != nil {
			// The requester is gone or gave up; the status is a courtesy.
			s.writeError(w, statusClientClosedRequest, CodeCancelled, err.Error())
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, CodeRunFailed, err.Error())
		return
	}
	s.logf("ran cell %d (%s) replica %d", run.Cell.Index, run.Cell.Name(), run.Replica)
	httpjson.WriteJSON(w, http.StatusOK, runResponse{Result: res})
}

// writeError sends a typed error envelope and logs it.
func (s *Server) writeError(w http.ResponseWriter, status int, code Code, msg string) {
	s.logf("error %s: %s", code, msg)
	httpjson.WriteError(w, status, string(code), msg)
}
