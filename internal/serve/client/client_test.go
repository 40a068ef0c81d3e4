package serveclient

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"islands/internal/serve"
)

// sseServer answers every events request with one progress event and a done
// event whose error text is pad bytes long, and counts the connections it
// accepted.
func sseServer(t *testing.T, pad int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: progress\ndata: {\"type\":\"progress\",\"state\":\"running\",\"step\":1,\"steps\":1}\n\n")
		w.(http.Flusher).Flush()
		fmt.Fprintf(w, "event: done\ndata: {\"type\":\"done\",\"state\":\"failed\",\"step\":1,\"steps\":1,\"error\":%q}\n\n",
			strings.Repeat("x", pad))
		// Like the real handler: "done" is flushed on its own, and the
		// stream's end reaches the client as a later segment.
		w.(http.Flusher).Flush()
		time.Sleep(2 * time.Millisecond)
	}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	return hs, &conns
}

// TestEventsReusesItsConnection follows ten jobs one after another: each
// stream is read to its end, so the transport hands the same connection to
// the next follow instead of dialing per job.
func TestEventsReusesItsConnection(t *testing.T) {
	hs, conns := sseServer(t, 10)
	c := New(hs.URL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	defer c.HTTP.CloseIdleConnections()

	for i := 0; i < 10; i++ {
		var last serve.Event
		if err := c.Events(context.Background(), "j1", func(ev serve.Event) bool {
			last = ev
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if last.Type != "done" {
			t.Fatalf("follow %d ended on %+v, want the done event", i, last)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("10 sequential follows used %d connections, want 1", n)
	}
}

// TestEventsBufferGrows sends a done event far beyond the scanner's small
// initial buffer (a profiled result is a few KiB): it must arrive whole, and
// one past the 1 MiB cap must surface as an error rather than a silent end.
func TestEventsBufferGrows(t *testing.T) {
	for _, tc := range []struct {
		pad    int
		wantOK bool
	}{{200 << 10, true}, {2 << 20, false}} {
		hs, _ := sseServer(t, tc.pad)
		var last serve.Event
		err := New(hs.URL).Events(context.Background(), "j1", func(ev serve.Event) bool {
			last = ev
			return true
		})
		if ok := err == nil && last.Type == "done" && len(last.Error) == tc.pad; ok != tc.wantOK {
			t.Fatalf("%d-byte event: err %v, last event type %q with %d error bytes; want delivered = %v",
				tc.pad, err, last.Type, len(last.Error), tc.wantOK)
		}
		if !tc.wantOK && err == nil {
			t.Fatalf("%d-byte event: oversized event ended the stream without an error", tc.pad)
		}
	}
}
