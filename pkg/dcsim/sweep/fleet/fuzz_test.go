package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpjson"
)

// FuzzFleetHandler feeds arbitrary register and heartbeat bodies to the
// membership protocol: no body may panic the handler, and every non-2xx
// answer must be the {"error": {"code", "message"}} envelope.
func FuzzFleetHandler(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"url":"http://w:1"}`, `{"status":"ok","inflight":2}`},
		{`{"url":"w:1","heartbeat_interval_ms":25,"status":"draining"}`, `{"status":"draining"}`},
		{`{"url":"w:1","status":"zombie"}`, `{"status":"zombie"}`},
		{`{"url":"w:1","heartbeat_interval_ms":9223372036854775807}`, `{}`},
		{`{"url":"  "}`, `{"inflight":-1}`},
		{`{`, `[]`},
		{`{"url":"w:1","extra":1}`, `{"status":"alive","inflight":1e30}`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, register, heartbeat string) {
		reg := NewRegistry(Config{DefaultInterval: time.Minute})
		defer reg.Close()
		h := NewHandler(reg)
		call := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code < 200 || rec.Code > 299 {
				var fe httpjson.ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &fe); err != nil ||
					fe.Error.Code == "" || fe.Error.Message == "" {
					t.Fatalf("%s %s %q: status %d without the error envelope: %s",
						method, path, body, rec.Code, rec.Body)
				}
			}
			return rec
		}
		id := "ghost"
		if rec := call(http.MethodPost, registerPath, register); rec.Code == http.StatusOK {
			var rr RegisterResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rr.ID == "" {
				t.Fatalf("register OK without a member ID: %s", rec.Body)
			}
			id = rr.ID
		}
		call(http.MethodPut, membersPath+id, heartbeat)
		call(http.MethodPut, membersPath+"ghost", heartbeat)
	})
}
