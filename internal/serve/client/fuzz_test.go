package serveclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"islands/internal/serve"
)

// fuzzReply is what the fuzzed server answers every request with.
type fuzzReply struct {
	status     int
	retryAfter string
	body       []byte
}

// FuzzClientDecode drives Submit, Status and Events against a server that
// answers with a fuzzed status code, Retry-After header and body (for Events,
// the body is the SSE stream). No reply may panic the client: each call
// returns an error or a decoded value, an API error's RetryAfter is never
// negative, and a follow ends. The committed seed
// testdata/fuzz/FuzzClientDecode/retry-after-overflow is the 429 whose
// Retry-After wrapped negative before hints saturated.
func FuzzClientDecode(f *testing.F) {
	f.Add(uint16(200), "", []byte(`{"id":"j1","state":"running","step":1,"steps":4}`))
	f.Add(uint16(200), "", []byte("event: done\ndata: {\"type\":\"done\",\"state\":\"succeeded\"}\n\n"))
	f.Add(uint16(503), "1", []byte("draining"))

	var reply atomic.Pointer[fuzzReply]
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rp := reply.Load()
		if rp.retryAfter != "" {
			w.Header()["Retry-After"] = []string{rp.retryAfter}
		}
		w.WriteHeader(rp.status)
		w.Write(rp.body)
	}))
	defer hs.Close()
	c := New(hs.URL)

	f.Fuzz(func(t *testing.T, status uint16, retryAfter string, body []byte) {
		// Any code a server can write: WriteHeader accepts 1xx informational
		// codes but then keeps waiting for a final one, so start at 200.
		reply.Store(&fuzzReply{status: 200 + int(status)%400, retryAfter: retryAfter, body: body})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		check := func(op string, err error) {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.RetryAfter < 0 {
				t.Fatalf("%s: Retry-After %q decoded to a negative hint %v", op, retryAfter, apiErr.RetryAfter)
			}
		}
		_, err := c.Submit(ctx, serve.Spec{Grid: "8x8x8", Steps: 1})
		check("Submit", err)
		_, err = c.Status(ctx, "j1")
		check("Status", err)
		err = c.Events(ctx, "j1", func(serve.Event) bool { return true })
		check("Events", err)
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Events did not end on a finite stream: %v", err)
		}
	})
}
