package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
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
// Failures answer a JSON envelope {"error": {"code", "message"}}; a
// heartbeat for an expired member is 404 "unknown_member" — the Agent's
// cue to re-register — and a body that does not decode, or names a status
// other than ok/alive/draining or an out-of-range interval, is 400
// "bad_request". Mount it on the coordinator's listener (`dcsim
// sweep -fleet` and `dcsim serve -fleet` do).
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+registerPath, func(w http.ResponseWriter, r *http.Request) {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var req RegisterRequest
		if err := dec.Decode(&req); err != nil {
			writeFleetError(w, http.StatusBadRequest, "bad_request", "decode register request: "+err.Error())
			return
		}
		resp, err := reg.Register(req)
		switch {
		case errors.Is(err, ErrClosed):
			writeFleetError(w, http.StatusServiceUnavailable, "closed", err.Error())
		case err != nil:
			writeFleetError(w, http.StatusBadRequest, "bad_request", err.Error())
		default:
			writeFleetJSON(w, http.StatusOK, resp)
		}
	})
	mux.HandleFunc("PUT "+membersPath+"{id}", func(w http.ResponseWriter, r *http.Request) {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var hb HeartbeatRequest
		if err := dec.Decode(&hb); err != nil {
			writeFleetError(w, http.StatusBadRequest, "bad_request", "decode heartbeat: "+err.Error())
			return
		}
		if err := reg.Heartbeat(r.PathValue("id"), hb); errors.Is(err, ErrUnknownMember) {
			writeFleetError(w, http.StatusNotFound, "unknown_member", err.Error())
			return
		} else if err != nil {
			writeFleetError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		writeFleetJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("DELETE "+membersPath+"{id}", func(w http.ResponseWriter, r *http.Request) {
		if !reg.Deregister(r.PathValue("id")) {
			writeFleetError(w, http.StatusNotFound, "unknown_member", "fleet: unknown member "+r.PathValue("id"))
			return
		}
		writeFleetJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET "+listPath, func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, http.StatusOK, FleetStatus{Workers: reg.Members(), Stats: reg.Stats()})
	})
	return mux
}

// fleetError is the handler's JSON failure envelope, mirroring the worker
// protocol's shape.
type fleetError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeFleetError(w http.ResponseWriter, status int, code, msg string) {
	var e fleetError
	e.Error.Code = code
	e.Error.Message = msg
	writeFleetJSON(w, status, e)
}

func writeFleetJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The write goes straight to the peer; a failure leaves nothing useful
	// to do.
	_ = json.NewEncoder(w).Encode(v)
}
