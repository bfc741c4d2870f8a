package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/httpjson"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
)

// Server exposes a Manager as the simulation-as-a-service HTTP API.
// Construct with NewServer; the zero value is not usable.
//
// Endpoints:
//
//	GET    /healthz            liveness, {"status":"ok"}
//	GET    /metrics            OpenMetrics text (see WriteOpenMetrics)
//	POST   /jobs               submit a sweep grid JSON; 202 + job Status
//	GET    /jobs               list job Statuses in submission order
//	GET    /jobs/{id}          job Status, with "result" embedded once
//	                           one exists
//	GET    /jobs/{id}/result   the exact `dcsim sweep` report bytes
//	GET    /jobs/{id}/events   Server-Sent Events: state, progress, and
//	                           a final done/failed/cancelled event
//	DELETE /jobs/{id}          cancel; idempotent on terminal jobs
//
// With Config.Fleet set, the elastic-fleet membership endpoints mount
// alongside (POST /fleet/register, PUT/DELETE /fleet/members/{id},
// GET /fleet — see sweep/fleet.NewHandler), and /metrics gains the
// dcsim_fleet_* families.
//
// Failures use the envelope {"error":{"code":..., "message":...}} the
// worker and the fleet endpoints share, with codes bad_request, bad_grid,
// queue_full, draining, not_found, and no_result. POST /jobs reads at most
// 8 MiB of grid and rejects unknown fields: a body that does not decode is
// bad_request.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer builds the HTTP front end over a Manager.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	if m.cfg.Fleet != nil {
		// The coordinator role rides on the same listener: workers
		// register and heartbeat against the service that dispatches to
		// them (see Config.Fleet).
		fh := fleet.NewHandler(m.cfg.Fleet)
		s.mux.Handle("/fleet", fh)
		s.mux.Handle("/fleet/", fh)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpjson.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ContentTypeOpenMetrics)
	_ = s.m.WriteOpenMetrics(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Submit fills the grid's defaults; a body that does not decode reads
	// as a grid file's decode error does.
	var g sweep.Grid
	if err := httpjson.Decode(w, r, &g); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, "bad_request", "sweep: parse grid: "+err.Error())
		return
	}
	st, err := s.m.Submit(g)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpjson.WriteError(w, http.StatusServiceUnavailable, "queue_full", err.Error())
		return
	case errors.Is(err, ErrDraining):
		httpjson.WriteError(w, http.StatusServiceUnavailable, "draining", err.Error())
		return
	default:
		// Grid validation: the submission itself is malformed.
		httpjson.WriteError(w, http.StatusUnprocessableEntity, "bad_grid", err.Error())
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	httpjson.WriteJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	httpjson.WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.m.List()})
}

// jobResponse is a Status with the sweep result embedded once one exists
// (done jobs always; cancelled jobs that completed cells carry their
// partial result, marked by result.complete = false).
type jobResponse struct {
	Status
	Result *sweep.Result `json:"result,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.m.Status(id)
	if err != nil {
		httpjson.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	resp := jobResponse{Status: st}
	if res, _, err := s.m.Result(id); err == nil {
		resp.Result = res
	}
	httpjson.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		httpjson.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	httpjson.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	_, data, err := s.m.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		httpjson.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	case err != nil:
		httpjson.WriteError(w, http.StatusConflict, "no_result", err.Error())
		return
	}
	// The exact bytes `dcsim sweep` would have written for this grid —
	// the determinism contract, servable for byte comparison.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub, err := s.m.Subscribe(r.PathValue("id"))
	if err != nil {
		httpjson.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()
	for {
		ev, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		data, err := json.Marshal(ev.Data)
		if err != nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return // client gone
		}
		_ = rc.Flush()
	}
}
