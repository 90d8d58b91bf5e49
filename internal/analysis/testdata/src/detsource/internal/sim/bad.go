// Package sim is a seeded-bad fixture for the detsource analyzer.
package sim

import (
	"math/rand" // want "seeds from global, run-varying state"
	"os"
	"sync"        // want "locks and atomics reintroduce host scheduling"
	"sync/atomic" // want "locks and atomics reintroduce host scheduling"
	"time"
)

var mu sync.Mutex

var ready atomic.Bool

// Clock reads the wall clock: flagged.
func Clock() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

// Env reads the host environment: flagged.
func Env() string {
	return os.Getenv("DVMC_MODE") // want "os.Getenv makes behavior depend on the host environment"
}

// Roll uses the global math/rand stream (the import is what gets
// flagged; the call resolves through it).
func Roll() int {
	return rand.Intn(6)
}

// Since is not time.Now: allowed (only wall-clock *reads* are banned).
func Since(d time.Duration) time.Duration { return d }

// Spawn starts a goroutine: flagged.
func Spawn(done chan bool) {
	go func() { // want "go statement in deterministic package"
		done <- true
	}()
}

// Wait selects over a channel: flagged. The channel type and receive
// are not findings on their own.
func Wait(done chan bool) bool {
	select { // want "select picks among ready cases pseudo-randomly"
	case v := <-done:
		return v
	default:
		return false
	}
}

// Shutdown takes a lock and stores an atomic; the imports above carry
// the findings.
func Shutdown() {
	mu.Lock()
	ready.Store(true)
	mu.Unlock()
}
