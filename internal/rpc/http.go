package rpc

import (
	"encoding/json"
	"net/http"
)

// Handler exposes the protocol over streamable HTTP:
//
//	POST /rpc      request lines in the body, response and notification
//	               lines streamed back as application/x-ndjson. A POST
//	               carrying a study.subscribe keeps its response open
//	               until the subscribed sessions end — the streaming
//	               transport. Each reply is flushed as it is written;
//	               event lines are flushed per burst, as soon as nothing
//	               more is queued for the subscription.
//	GET  /healthz  structured health report (Health as JSON): session
//	               tallies, store presence, and — with a fleet attached —
//	               the lease-table counters. Always HTTP 200 so probes
//	               distinguish "unreachable" from "draining" by body, and
//	               `curl -sf` liveness checks keep working.
//
// Each POST is its own connection and starts initialized: the handshake
// is per stdio connection, not per HTTP request, or the streamable
// transport would be unusable. Everything else — the session registry,
// single-flight, replay cursors — is shared with every other connection
// of the same Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Health())
	})
	mux.HandleFunc("/rpc", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		c := s.newConn(w, true)
		c.streamTail = true
		c.serve(r.Context(), r.Body)
	})
	return mux
}
