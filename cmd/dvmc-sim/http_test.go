package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvmc"
	"dvmc/internal/telemetry"
)

// newTestSystem assembles a small telemetry-enabled system and advances
// it far enough that counters and sampled series are non-trivial.
func newTestSystem(t *testing.T) *dvmc.System {
	t.Helper()
	cfg := dvmc.ScaledConfig().WithTelemetry(dvmc.TelemetryOn())
	w, err := dvmc.WorkloadByName("oltp")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sys, err := dvmc.NewSystem(cfg, w)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sys.RunCycles(4096)
	return sys
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestTelemetryMuxMetrics exercises the live Prometheus endpoint against
// a running system: it must serve well-formed exposition text containing
// the core metric families.
func TestTelemetryMuxMetrics(t *testing.T) {
	sys := newTestSystem(t)
	ls := &lockedSystem{sys: sys}
	srv := httptest.NewServer(telemetryMux(ls))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d, want 200", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics: Content-Type %q, want text/plain exposition", ctype)
	}
	for _, want := range []string{
		"# HELP dvmc_proc_ops_retired",
		"# TYPE dvmc_proc_ops_retired counter",
		`dvmc_proc_ops_retired{node="0"}`,
		"dvmc_net_bytes_total",
		"dvmc_snapshot_cycle 4096",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics: missing %q in body:\n%s", want, body)
		}
	}

	// The endpoint reflects live progress: advancing the system moves
	// the snapshot cycle on the next scrape.
	ls.mu.Lock()
	ls.sys.RunCycles(1024)
	ls.mu.Unlock()
	_, _, body2 := get(t, srv, "/metrics")
	if !strings.Contains(body2, "dvmc_snapshot_cycle 5120") {
		t.Errorf("/metrics after RunCycles: snapshot cycle not advanced to 5120")
	}
}

// TestMetricsScrapeDuringStep scrapes /metrics from another goroutine
// while the driver loop steps the system, which is what -http does. Run
// under -race it checks that the handlers and step share the system only
// through ls.mu; every scrape must also see a chunk boundary.
func TestMetricsScrapeDuringStep(t *testing.T) {
	sys := newTestSystem(t)
	ls := &lockedSystem{sys: sys}
	srv := httptest.NewServer(telemetryMux(ls))
	defer srv.Close()

	start := uint64(sys.Now())
	first := make(chan struct{})
	stop := make(chan struct{})
	type scrape struct {
		cycle uint64
		err   error
	}
	scrapes := make(chan []scrape)
	go func() {
		var got []scrape
		for {
			s := scrape{}
			resp, err := http.Get(srv.URL + "/metrics")
			if err == nil {
				var body []byte
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				_, rest, ok := strings.Cut(string(body), "\ndvmc_snapshot_cycle ")
				if !ok {
					err = fmt.Errorf("no dvmc_snapshot_cycle in body")
				} else {
					_, err = fmt.Sscan(rest, &s.cycle)
				}
			}
			s.err = err
			got = append(got, s)
			if len(got) == 1 {
				close(first)
			}
			select {
			case <-stop:
				scrapes <- got
				return
			default:
			}
		}
	}()

	<-first
	const chunks = 6
	for !ls.step(1<<62, start+chunks*httpRunChunk) {
	}
	close(stop)
	got := <-scrapes
	if len(got) < 2 {
		t.Fatalf("%d scrapes, want some while the system stepped", len(got))
	}
	for i, s := range got {
		if s.err != nil {
			t.Fatalf("scrape %d: %v", i, s.err)
		}
		if s.cycle < start || (s.cycle-start)%httpRunChunk != 0 {
			t.Errorf("scrape %d saw cycle %d, not a chunk boundary after %d", i, s.cycle, start)
		}
	}
}

// TestTelemetryMuxJSON checks the JSON snapshot endpoint round-trips
// through the snapshot decoder.
func TestTelemetryMuxJSON(t *testing.T) {
	sys := newTestSystem(t)
	srv := httptest.NewServer(telemetryMux(&lockedSystem{sys: sys}))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json: status %d, want 200", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/metrics.json: Content-Type %q, want application/json", ctype)
	}
	snap, err := telemetry.DecodeSnapshot(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics.json: decode: %v", err)
	}
	if snap.Cycle != 4096 {
		t.Errorf("snapshot cycle = %d, want 4096", snap.Cycle)
	}
	if len(snap.Metrics) == 0 || len(snap.Series) == 0 {
		t.Errorf("snapshot has %d metrics and %d series, want both non-empty",
			len(snap.Metrics), len(snap.Series))
	}
}

// TestTelemetryMuxPprof confirms the profiling index is wired in.
func TestTelemetryMuxPprof(t *testing.T) {
	sys := newTestSystem(t)
	srv := httptest.NewServer(telemetryMux(&lockedSystem{sys: sys}))
	defer srv.Close()

	code, _, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d, want 200", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index does not list the goroutine profile")
	}
}
