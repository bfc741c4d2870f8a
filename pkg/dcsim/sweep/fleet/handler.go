package fleet

import (
	"errors"
	"net/http"

	"repro/internal/httpjson"
)

// wire paths of the membership protocol. The heartbeat and deregister
// paths append the member ID from RegisterResponse.
const (
	registerPath = "/fleet/register"
	membersPath  = "/fleet/members/"
	listPath     = "/fleet"
)

// NewHandler exposes a Registry's membership protocol over HTTP:
//
//	POST   /fleet/register      join (RegisterRequest -> RegisterResponse)
//	PUT    /fleet/members/{id}  heartbeat (HeartbeatRequest)
//	DELETE /fleet/members/{id}  leave cleanly
//	GET    /fleet               list members and stats (FleetStatus)
//
// Failures answer the envelope {"error": {"code", "message"}} the worker
// and the job service answer too; a heartbeat for an expired member is
// 404 "unknown_member" — the Agent's cue to re-register — and a body that
// does not decode (more than 8 MiB, an unknown field), or names a status
// other than ok/alive/draining or an out-of-range interval, is 400
// "bad_request". A heartbeat that names no status keeps the member's
// state. Mount it on the coordinator's listener (`dcsim sweep -fleet` and
// `dcsim serve -fleet` do).
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+registerPath, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := httpjson.Decode(w, r, &req); err != nil {
			httpjson.WriteError(w, http.StatusBadRequest, "bad_request", "decode register request: "+err.Error())
			return
		}
		resp, err := reg.Register(req)
		switch {
		case errors.Is(err, ErrClosed):
			httpjson.WriteError(w, http.StatusServiceUnavailable, "closed", err.Error())
		case err != nil:
			httpjson.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		default:
			httpjson.WriteJSON(w, http.StatusOK, resp)
		}
	})
	mux.HandleFunc("PUT "+membersPath+"{id}", func(w http.ResponseWriter, r *http.Request) {
		var hb HeartbeatRequest
		if err := httpjson.Decode(w, r, &hb); err != nil {
			httpjson.WriteError(w, http.StatusBadRequest, "bad_request", "decode heartbeat: "+err.Error())
			return
		}
		if err := reg.Heartbeat(r.PathValue("id"), hb); errors.Is(err, ErrUnknownMember) {
			httpjson.WriteError(w, http.StatusNotFound, "unknown_member", err.Error())
			return
		} else if err != nil {
			httpjson.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		httpjson.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("DELETE "+membersPath+"{id}", func(w http.ResponseWriter, r *http.Request) {
		if !reg.Deregister(r.PathValue("id")) {
			httpjson.WriteError(w, http.StatusNotFound, "unknown_member", "fleet: unknown member "+r.PathValue("id"))
			return
		}
		httpjson.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET "+listPath, func(w http.ResponseWriter, r *http.Request) {
		httpjson.WriteJSON(w, http.StatusOK, FleetStatus{Workers: reg.Members(), Stats: reg.Stats()})
	})
	return mux
}
