package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"

	"dvmc"
	"dvmc/internal/telemetry"
)

// telemetryMux serves live introspection for a running simulation:
//
//	/metrics        Prometheus text exposition of the telemetry registry
//	/metrics.json   the full JSON snapshot (series, events, latency)
//	/debug/pprof/   the standard Go profiling endpoints
//
// The simulator itself is strictly single-threaded and deterministic;
// all concurrency lives here in the cmd layer (outside the dvmc-lint
// determinism allowlist). The driver loop holds ls.mu while stepping the
// kernel and releases it between chunks, so handlers always observe a
// quiesced system at a cycle boundary.
func telemetryMux(ls *lockedSystem) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := ls.snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.Prometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		snap := ls.snapshot()
		w.Header().Set("Content-Type", "application/json")
		if err := snap.EncodeJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// lockedSystem pairs the simulated system with the lock that serialises
// the driver loop against the HTTP handlers: every access to sys holds
// mu.
type lockedSystem struct {
	mu  sync.Mutex
	sys *dvmc.System
}

// snapshot captures the telemetry snapshot at a quiesced cycle boundary.
func (ls *lockedSystem) snapshot() *telemetry.Snapshot {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.sys.TelemetrySnapshot()
}

// httpRunChunk is how many cycles the driver simulates per lock
// acquisition when serving -http: long enough that locking is noise,
// short enough that scrapes observe fresh state.
const httpRunChunk = 16384

// step advances the system by up to httpRunChunk cycles under the lock
// and reports whether the run budget (transactions or cycles) is spent.
func (ls *lockedSystem) step(txns, maxCycles uint64) (done bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.sys.Transactions() >= txns || uint64(ls.sys.Now()) >= maxCycles {
		return true
	}
	chunk := uint64(httpRunChunk)
	if left := maxCycles - uint64(ls.sys.Now()); left < chunk {
		chunk = left
	}
	ls.sys.RunCycles(chunk)
	return false
}

// runWithHTTP drives the simulation in locked chunks while an HTTP
// server exposes /metrics and pprof. Returns the whole-run results and
// mirrors System.Run's budget-expiry error.
func runWithHTTP(sys *dvmc.System, addr string, txns, maxCycles uint64) (dvmc.Results, error) {
	ls := &lockedSystem{sys: sys}
	srv := &http.Server{Addr: addr, Handler: telemetryMux(ls)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "dvmc-sim: http: %v\n", err)
		}
	}()
	defer srv.Close()

	for !ls.step(txns, maxCycles) {
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	res := ls.sys.ResultsSoFar()
	if ls.sys.Transactions() < txns {
		return res, fmt.Errorf("dvmc: %d of %d transactions after %d cycles",
			ls.sys.Transactions(), txns, maxCycles)
	}
	return res, nil
}
