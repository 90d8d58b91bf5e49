package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"time"

	"dvmc/internal/fuzz"
	"dvmc/internal/strictjson"
	"dvmc/internal/telemetry"
)

// ExecuteShard runs one shard of a job — the worker's entire
// computational duty. It is a pure function of (spec, shard): no
// coordinator state, clock, or worker identity reaches the simulation,
// which is what makes shard results interchangeable across workers,
// retries, and steals. The variadic tail is ignored: it keeps
// three-argument calls, ExecuteShard(spec, sh, nil) from when a lease
// also carried a seed pool, compiling.
func ExecuteShard(spec JobSpec, sh Shard, _ ...json.RawMessage) (ShardResult, error) {
	out := ShardResult{Shard: sh}
	switch spec.Kind {
	case JobFuzz:
		cfg := *spec.Fuzz
		// Corpus writing is the coordinator's finalize step; worker-side
		// config must not touch the (possibly nonexistent) directory.
		cfg.CorpusDir = ""
		records, snap, err := fuzz.RunRange(cfg, sh.From, sh.To)
		if err != nil {
			return out, err
		}
		out.Records = records
		if err := out.encodeSnapshot(snap); err != nil {
			return out, err
		}
	case JobExperiment:
		fig := spec.Experiment.figure()
		for i := sh.From; i < sh.To; i++ {
			r, err := fig.Inject(i)
			if err != nil {
				return out, err
			}
			out.Injections = append(out.Injections, r)
		}
	default:
		return out, fmt.Errorf("fabric: unknown job kind %q", spec.Kind)
	}
	return out, nil
}

// encodeSnapshot stores a shard's merged telemetry snapshot (nil is a
// no-op: the campaign ran without Metrics).
func (r *ShardResult) encodeSnapshot(snap *telemetry.Snapshot) error {
	if snap == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := snap.EncodeJSON(&buf); err != nil {
		return err
	}
	r.Snapshot = json.RawMessage(buf.Bytes())
	return nil
}

// WorkerOptions configure one worker process.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (lease ownership,
	// status reporting).
	Name string
	// Coordinator is the coordinator's base URL, e.g. http://host:8700.
	Coordinator string
	// MaxShards stops the worker after completing that many shards
	// (0 = run until the job finishes). Lets tests and canary workers
	// leave mid-job; the fabric reassigns whatever they abandoned.
	MaxShards int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// RunWorker registers with the coordinator and executes leases until
// the job finishes, the context is cancelled, or MaxShards is reached.
// Returns the number of shards this worker completed (had accepted).
// When the coordinator has no assignable shard the worker sleeps for its
// suggested WaitSeconds (1 s when that is zero).
func RunWorker(ctx context.Context, opts WorkerOptions) (int, error) {
	if opts.Name == "" {
		return 0, fmt.Errorf("fabric: worker needs a name")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Register through the retries, so workers may start before the
	// coordinator finishes binding its listener.
	var reg RegisterResponse
	if err := postJSONRetry(ctx, client, opts.Coordinator+PathRegister, RegisterRequest{Worker: opts.Name}, &reg, MaxControlBody, logf); err != nil {
		return 0, fmt.Errorf("fabric: register with %s: %w", opts.Coordinator, err)
	}
	if err := reg.Spec.Validate(); err != nil {
		return 0, fmt.Errorf("fabric: coordinator sent an invalid spec: %w", err)
	}
	logf("registered with %s: %s job, %d cases, lease ttl %ds",
		opts.Coordinator, reg.Spec.Kind, reg.Spec.TotalCases(), reg.TTLSeconds)

	completed := 0
	for {
		if ctx.Err() != nil {
			return completed, ctx.Err()
		}
		var lease LeaseResponse
		if err := postJSONRetry(ctx, client, opts.Coordinator+PathLease, LeaseRequest{Worker: opts.Name}, &lease, MaxControlBody, logf); err != nil {
			return completed, err
		}
		switch {
		case lease.Done:
			logf("job finished; %d shards completed here", completed)
			return completed, nil
		case lease.Shard == nil:
			wait := time.Duration(lease.WaitSeconds) * time.Second
			if wait == 0 {
				wait = time.Second
			}
			sleep(ctx, wait)
			continue
		}

		sh := *lease.Shard
		logf("leased shard %d: cases [%d, %d)", sh.ID, sh.From, sh.To)
		result, err := executeWithHeartbeat(ctx, client, opts, reg, sh)
		if err != nil {
			return completed, fmt.Errorf("fabric: shard %d: %w", sh.ID, err)
		}
		var ack CompleteResponse
		if err := postJSONRetry(ctx, client, opts.Coordinator+PathComplete, CompleteRequest{Worker: opts.Name, Result: result}, &ack, MaxControlBody, logf); err != nil {
			return completed, err
		}
		if ack.Accepted {
			completed++
		} else {
			logf("shard %d was completed elsewhere; result dropped", sh.ID)
		}
		if ack.Done {
			logf("job finished; %d shards completed here", completed)
			return completed, nil
		}
		if opts.MaxShards > 0 && completed >= opts.MaxShards {
			logf("max shards reached; leaving with %d completed", completed)
			return completed, nil
		}
	}
}

// executeWithHeartbeat runs the shard while renewing its lease in the
// background so long shards survive the TTL. A failed renewal (lease
// stolen) does not abort the computation — the result is still correct,
// and Complete resolves the race.
func executeWithHeartbeat(ctx context.Context, client *http.Client, opts WorkerOptions, reg RegisterResponse, sh Shard) (ShardResult, error) {
	hbCtx, stop := context.WithCancel(ctx)
	defer stop()
	interval := time.Duration(reg.TTLSeconds) * time.Second / 3
	if interval < time.Second {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				var resp RenewResponse
				_ = postJSON(hbCtx, client, opts.Coordinator+PathRenew, RenewRequest{Worker: opts.Name, Shard: sh.ID}, &resp, MaxControlBody)
			}
		}
	}()
	return ExecuteShard(reg.Spec, sh)
}

// postJSONRetry rides out transient transport failures (a coordinator
// starting or restarting, a dropped connection) with a few short retries,
// logging each failed attempt. HTTP errors — the coordinator answered,
// unhappily — are not retried.
func postJSONRetry(ctx context.Context, client *http.Client, url string, req, resp any, limit int64, logf func(string, ...any)) error {
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			logf("attempt %d of 10 failed, retrying: %v", attempt, err)
			sleep(ctx, 300*time.Millisecond)
			if ctx.Err() != nil {
				break
			}
		}
		err = postJSON(ctx, client, url, req, resp, limit)
		var uerr *neturl.Error
		if err == nil || !errors.As(err, &uerr) {
			return err
		}
	}
	return err
}

// postJSON is the wire primitive: POST a JSON body, decode a JSON reply
// of at most limit bytes, surface non-200s as errors.
func postJSON(ctx context.Context, client *http.Client, url string, req, resp any, limit int64) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	reply := io.LimitReader(hresp.Body, limit)
	if hresp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(reply) // best effort: the status is the error
		return fmt.Errorf("%s: %s: %s", url, hresp.Status, bytes.TrimSpace(msg.Bytes()))
	}
	if err := strictjson.Decode(reply, resp); err != nil {
		return fmt.Errorf("%s: reply (read up to its %d-byte bound): %w", url, limit, err)
	}
	return nil
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
