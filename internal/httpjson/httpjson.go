// Package httpjson is the JSON wire the repository's HTTP servers and
// their clients share: the sweep worker (pkg/dcsim/sweep/remote), the
// fleet coordinator (pkg/dcsim/sweep/fleet) and the job service
// (pkg/dcsim/service). A server replies with WriteJSON, fails with
// WriteError's one envelope {"error":{"code","message"}}, and reads a
// request body with Decode, strictly and within MaxRequestBytes. A client
// calls an endpoint with Call, which reads a failure envelope back into a
// *StatusError.
package httpjson

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// MaxRequestBytes bounds every request body a server decodes. The largest
// a client sends is a sweep grid, a small JSON document.
const MaxRequestBytes = 8 << 20

// WriteJSON replies with status and v as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The write goes straight to the peer; nothing useful is left to do
	// with a failure, and the client sees a truncated body.
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorBody is the failure envelope every endpoint answers with.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// WriteError replies with status and the failure envelope of code and msg.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = msg
	WriteJSON(w, status, body)
}

// Decode reads r's body into v with DecodeStrict. It reads at most
// MaxRequestBytes: a longer body fails with an *http.MaxBytesError, and
// the server closes the connection once it has replied.
func Decode(w http.ResponseWriter, r *http.Request, v any) error {
	return DecodeStrict(http.MaxBytesReader(w, r.Body, MaxRequestBytes), v)
}

// DecodeStrict reads one JSON value from r into v, rejecting fields v does
// not have and anything but white space after the value: a second value
// or trailing bytes are an error, not ignored. Scenario and grid files are
// read through it too.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, new(*json.SyntaxError)):
		return fmt.Errorf("data after the JSON value, which ends at offset %d", end)
	}
	return err
}

// StatusError is a reply outside 2xx: its status, and the code and message
// of its failure envelope, or code "unexpected" and a snippet of the body
// when it carried none.
type StatusError struct {
	Status  int
	Code    string
	Message string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("status %d (%s): %s", e.Status, e.Code, e.Message)
}

// Call sends method to url with in, when non-nil, as its JSON body, and
// reads at most limit bytes of the reply. A 2xx reply decodes into out,
// when non-nil; any other status is a *StatusError. A transport failure is
// the client's *url.Error, which names the method and the URL; every other
// error names them in front.
func Call(ctx context.Context, client *http.Client, method, url string, in, out any, limit int64) error {
	at := method + " " + url
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("%s: marshal request: %w", at, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("%s: build request: %w", at, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return fmt.Errorf("%s: read response: %w", at, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Status: resp.StatusCode, Code: "unexpected", Message: Snippet(data)}
		var env ErrorBody
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			se.Code, se.Message = env.Error.Code, env.Error.Message
		}
		return fmt.Errorf("%s: %w", at, se)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s: decode response: %w", at, err)
		}
	}
	return nil
}

// Snippet bounds an HTTP body for an error message.
func Snippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}
