package fleet_test

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"islands/internal/fleet"
	"islands/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.txt from this tree's exposition")

// TestMetricsExpositionGolden pins the router's full /metrics exposition —
// HELP and TYPE lines, family order, gauge formatting — byte for byte, on a
// fresh router over two healthy replicas.
func TestMetricsExpositionGolden(t *testing.T) {
	_, urls := startReplicas(t, 2, serve.Options{Slots: 1})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
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
