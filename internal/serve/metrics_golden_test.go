package serve_test

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"islands/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.txt from this tree's exposition")

// TestMetricsExpositionGolden pins the server's full /metrics exposition —
// HELP and TYPE lines, family order, label and bucket formatting — byte for
// byte: a fresh server with explicit capacities, plus one labeled job counter
// and one step observation so the {solver=...} series and the histogram
// block are part of the pinned text.
func TestMetricsExpositionGolden(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 2, MaxCached: 4, QueueDepth: 8, Logf: t.Logf})
	defer srv.Close()
	srv.Metrics().JobSubmitted("mpdata")
	srv.Metrics().ObserveStep("islands-of-cores", 3*time.Millisecond)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := rec.Body.Bytes()

	golden := filepath.Join("testdata", "metrics.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestMetricsExpositionGolden -update)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics exposition moved.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
