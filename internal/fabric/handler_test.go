package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvmc"
	"dvmc/internal/frame"
	"dvmc/internal/fuzz"
)

// handlerFixture is a job behind an httptest server, on a clock the test
// steps by hand.
type handlerFixture struct {
	t     *testing.T
	coord *Coordinator
	srv   *httptest.Server
	now   uint64
}

// twoShardFuzz is the handler tests' fuzz job: cases [0, 2) and [2, 4).
func twoShardFuzz() JobSpec {
	return JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000}, ShardSize: 2}
}

func newHandlerFixture(t *testing.T, spec JobSpec) *handlerFixture {
	t.Helper()
	f := &handlerFixture{t: t}
	coord, err := NewCoordinator(spec, CoordinatorOptions{TTLSeconds: 10, Clock: func() uint64 { return f.now }})
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.srv = httptest.NewServer(coord)
	t.Cleanup(f.srv.Close)
	return f
}

// post sends body to path and returns the status and the reply.
func (f *handlerFixture) post(path string, body []byte) (int, string) {
	f.t.Helper()
	resp, err := f.srv.Client().Post(f.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp.StatusCode, string(reply)
}

func (f *handlerFixture) postJSON(path string, req any) (int, string) {
	f.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		f.t.Fatal(err)
	}
	return f.post(path, body)
}

// result executes shard id for real, so an accepted completion is one
// finalize could use.
func (f *handlerFixture) result(id int) ShardResult {
	f.t.Helper()
	res, err := ExecuteShard(f.coord.spec, f.coord.shards[id])
	if err != nil {
		f.t.Fatal(err)
	}
	return res
}

// TestOversizedBodyIs413 sends each POST path one byte more than it
// reads: the answer is 413 and the coordinator is as it was — no worker
// admitted, no lease handed out, no result taken.
func TestOversizedBodyIs413(t *testing.T) {
	f := newHandlerFixture(t, twoShardFuzz())
	if got, want := f.coord.completeLimit, int64(96<<10); got != want {
		t.Fatalf("completion bound = %d, want %d (64 KiB, and 16 KiB for each of the largest shard's 2 cases)", got, want)
	}
	before := f.coord.Status()
	for path, limit := range map[string]int64{
		PathRegister: MaxControlBody, PathLease: MaxControlBody, PathRenew: MaxControlBody,
		PathComplete: f.coord.completeLimit,
	} {
		// Well-formed JSON all the way, so only its length can be refused.
		body := `{"worker":"` + strings.Repeat("w", int(limit)) + `"}`
		if code, reply := f.post(path, []byte(body)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with %d bytes: status %d (%s), want 413", path, len(body), code, strings.TrimSpace(reply))
		}
	}
	if after := f.coord.Status(); !reflect.DeepEqual(before, after) {
		t.Errorf("oversized bodies changed the coordinator:\nbefore %+v\nafter  %+v", before, after)
	}
	// The same bound from the worker's side: a reply longer than the
	// caller allows is an error, not an allocation.
	var reg RegisterResponse
	err := postJSON(context.Background(), f.srv.Client(), f.srv.URL+PathRegister, RegisterRequest{Worker: "w"}, &reg, 16)
	if err == nil || !strings.Contains(err.Error(), "16-byte bound") {
		t.Errorf("postJSON with a 16-byte reply bound: %v", err)
	}
}

// TestOversizedLeaseReplyIsRefused: a worker reads a lease reply under
// MaxControlBody. A coordinator that answers with one byte more — a
// well-formed shard behind whitespace, so only the length is wrong —
// fails the worker with the bound named, before it runs or reports any
// shard.
func TestOversizedLeaseReplyIsRefused(t *testing.T) {
	spec := twoShardFuzz()
	lease := `{"shard":{"id":0,"from":0,"to":2}}`
	var other atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathRegister:
			writeJSON(w, RegisterResponse{Spec: spec, TTLSeconds: 10})
		case PathLease:
			fmt.Fprint(w, strings.Repeat(" ", MaxControlBody+1-len(lease))+lease)
		default:
			other.Add(1)
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := RunWorker(ctx, WorkerOptions{Name: "w", Coordinator: srv.URL})
	if want := fmt.Sprintf("%d-byte bound", MaxControlBody); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("worker against an oversized lease reply: %v, want an error naming the %s", err, want)
	}
	if n != 0 || other.Load() != 0 {
		t.Errorf("worker completed %d shards and made %d other requests after the refused lease", n, other.Load())
	}
}

// TestHandlersRefuseWhatIsNotTheirs walks the protocol's refusals through
// the HTTP surface: none may panic, none may change what the job holds.
func TestHandlersRefuseWhatIsNotTheirs(t *testing.T) {
	f := newHandlerFixture(t, twoShardFuzz())

	// A worker nobody has seen holds no lease to renew.
	if code, reply := f.postJSON(PathRenew, RenewRequest{Worker: "ghost", Shard: 0}); code != 200 || !strings.Contains(reply, `"ok":false`) {
		t.Errorf("renew by an unknown worker: %d %s", code, reply)
	}
	if code, reply := f.postJSON(PathRenew, RenewRequest{Worker: "ghost", Shard: 99}); code != 200 || !strings.Contains(reply, `"ok":false`) {
		t.Errorf("renew of a shard that does not exist: %d %s", code, reply)
	}

	// w1 leases shard 0 and goes quiet; past the TTL w2 steals it.
	var lease LeaseResponse
	_, reply := f.postJSON(PathLease, LeaseRequest{Worker: "w1"})
	if err := json.Unmarshal([]byte(reply), &lease); err != nil || lease.Shard == nil || lease.Shard.ID != 0 {
		t.Fatalf("w1's lease: %s (%v)", reply, err)
	}
	f.now += 11
	_, reply = f.postJSON(PathLease, LeaseRequest{Worker: "w2"})
	if err := json.Unmarshal([]byte(reply), &lease); err != nil || lease.Shard == nil || lease.Shard.ID != 1 {
		t.Fatalf("w2's first lease: %s (%v)", reply, err)
	}
	_, reply = f.postJSON(PathLease, LeaseRequest{Worker: "w2"})
	if err := json.Unmarshal([]byte(reply), &lease); err != nil || lease.Shard == nil || lease.Shard.ID != 0 {
		t.Fatalf("w2 did not steal the expired shard 0: %s (%v)", reply, err)
	}
	if code, reply := f.postJSON(PathRenew, RenewRequest{Worker: "w1", Shard: 0}); code != 200 || !strings.Contains(reply, `"ok":false`) {
		t.Errorf("renew of a stolen lease: %d %s", code, reply)
	}

	// Completions that are not results of this job: 400, nothing kept.
	good := f.result(0)
	withRecords := func(edit func([]fuzz.Record) []fuzz.Record) ShardResult {
		res := good
		res.Records = edit(append([]fuzz.Record(nil), good.Records...))
		return res
	}
	withInjections := good
	withInjections.Injections = make([]dvmc.InjectionResult, 2)
	before := f.coord.Status()
	for name, res := range map[string]ShardResult{
		"a shard id past the partition": {Shard: Shard{ID: 99, From: 0, To: 2}},
		"a negative shard id":           {Shard: Shard{ID: -1}},
		"a shard with other bounds":     {Shard: Shard{ID: 0, From: 0, To: 4}},
		"a record outside its shard": withRecords(func(r []fuzz.Record) []fuzz.Record {
			r[0].Index = 3 // shard 0 is cases [0, 2)
			return r
		}),
		"a short completion":                 withRecords(func(r []fuzz.Record) []fuzz.Record { return r[:1] }),
		"no records at all":                  {Shard: good.Shard},
		"a record twice":                     withRecords(func(r []fuzz.Record) []fuzz.Record { return append(r[:1], r[0]) }),
		"records out of order":               withRecords(func(r []fuzz.Record) []fuzz.Record { return []fuzz.Record{r[1], r[0]} }),
		"injection results in a fuzz job":    withInjections,
		"an extra record past the shard end": withRecords(func(r []fuzz.Record) []fuzz.Record { return append(r, fuzz.Record{Index: 2}) }),
	} {
		code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "w2", Result: res})
		if code != http.StatusBadRequest || !strings.Contains(reply, "does not belong to this job") {
			t.Errorf("completion with %s: %d %s, want 400", name, code, strings.TrimSpace(reply))
		}
	}
	if after := f.coord.Status(); !reflect.DeepEqual(before, after) {
		t.Errorf("refused completions changed the coordinator:\nbefore %+v\nafter  %+v", before, after)
	}
	// A record that still carries its case (a worker from before results
	// became verdicts) is refused whole, not accepted with the case dropped.
	body, err := json.Marshal(CompleteRequest{Worker: "w2", Result: good})
	if err != nil {
		t.Fatal(err)
	}
	withCase := bytes.Replace(body, []byte(`{"index":0,`), []byte(`{"index":0,"case":{"name":"run-000000"},`), 1)
	if bytes.Equal(withCase, body) {
		t.Fatalf("no record 0 to plant a case in: %s", body)
	}
	before = f.coord.Status()
	if code, reply := f.post(PathComplete, withCase); code != http.StatusBadRequest || !strings.Contains(reply, `unknown field "case"`) {
		t.Errorf("completion whose record carries a case: %d %s, want 400", code, strings.TrimSpace(reply))
	}
	if after := f.coord.Status(); !reflect.DeepEqual(before, after) {
		t.Errorf("a completion carrying a case changed the coordinator:\nbefore %+v\nafter  %+v", before, after)
	}
	if st := f.coord.Status(); st.Done != 0 {
		t.Fatalf("refused completions were counted: %+v", st)
	}

	// The thief's result is taken; the first holder's identical late copy
	// is acknowledged and dropped.
	if code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "w2", Result: good}); code != 200 || !strings.Contains(reply, `"accepted":true`) {
		t.Errorf("completion by the lease holder: %d %s", code, reply)
	}
	if code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "w1", Result: good}); code != 200 || !strings.Contains(reply, `"accepted":false`) {
		t.Errorf("duplicate completion: %d %s", code, reply)
	}
	// A result is its shard's whoever ran it: an unknown worker may deliver.
	if code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "ghost", Result: f.result(1)}); code != 200 || !strings.Contains(reply, `"done":true`) {
		t.Errorf("completion by an unknown worker: %d %s", code, reply)
	}
	if _, err := f.coord.Finalize(); err != nil {
		t.Errorf("finalize after the refusals: %v", err)
	}

	// Not JSON, and not POST.
	if code, _ := f.post(PathLease, []byte("{")); code != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", code)
	}
	resp, err := f.srv.Client().Get(f.srv.URL + PathComplete)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", PathComplete, resp.StatusCode)
	}
}

// TestExperimentRefusesUnderivedInjections: an experiment completion
// reports one outcome per case of its shard, each for the injection the
// coordinator derives for that index. A tampered node, a short result
// and an empty one are refused with 400 and change nothing; the honest
// result is taken.
func TestExperimentRefusesUnderivedInjections(t *testing.T) {
	spec := JobSpec{Kind: JobExperiment, Experiment: &ExperimentSpec{Faults: 2, Budget: 1000, Seed: 3}, ShardSize: 3}
	f := newHandlerFixture(t, spec)
	injs := spec.Experiment.figure().Injections()
	sh := spec.Shards()[1] // cases [3, 6): rows 1 and 2
	result := func(n int) ShardResult {
		res := ShardResult{Shard: sh}
		for i := sh.From; i < sh.From+n; i++ {
			res.Injections = append(res.Injections, dvmc.InjectionResult{Injection: injs[i], Applied: true, Detected: true})
		}
		return res
	}
	tampered := result(3)
	tampered.Injections[1].Injection.Node++
	before := f.coord.Status()
	for name, res := range map[string]ShardResult{
		"a tampered node":    tampered,
		"a short completion": result(2),
		"no results at all":  result(0),
		"fuzz records":       {Shard: sh, Records: Verdicts{{Index: 3}, {Index: 4}, {Index: 5}}},
	} {
		code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "w1", Result: res})
		if code != http.StatusBadRequest || !strings.Contains(reply, "does not belong to this job") {
			t.Errorf("completion with %s: %d %s, want 400", name, code, strings.TrimSpace(reply))
		}
	}
	if after := f.coord.Status(); !reflect.DeepEqual(before, after) {
		t.Errorf("refused completions changed the coordinator:\nbefore %+v\nafter  %+v", before, after)
	}
	if code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "w1", Result: result(3)}); code != 200 || !strings.Contains(reply, `"accepted":true`) {
		t.Errorf("the derived injections: %d %s", code, reply)
	}
}

// TestResumeRefusesForeignResult pins the same check on the other way a
// result reaches a coordinator: a checkpoint whose CRCs hold but whose
// result Complete would refuse does not resume — it fails at once with
// the record and offset of the result's line, instead of at the end.
func TestResumeRefusesForeignResult(t *testing.T) {
	spec := twoShardFuzz()
	for name, res := range map[string]ShardResult{
		"a shard with other bounds": {Shard: Shard{ID: 1, From: 0, To: 2}},
		"a short result":            {Shard: Shard{ID: 0, From: 0, To: 2}, Records: Verdicts{{Index: 0}}},
		"an empty result":           {Shard: Shard{ID: 1, From: 2, To: 4}},
	} {
		var buf bytes.Buffer
		for _, e := range []CheckpointEntry{{Spec: &spec}, {Result: &res}} {
			if err := AppendEntry(&buf, e); err != nil {
				t.Fatal(err)
			}
		}
		specLine := bytes.IndexByte(buf.Bytes(), '\n') + 1
		path := filepath.Join(t.TempDir(), "farm.ckpt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeCoordinator(path, CoordinatorOptions{})
		var pe *frame.PosError
		if !errors.As(err, &pe) || pe.Record != 1 || pe.Offset != int64(specLine) || !errors.Is(err, ErrBadResult) {
			t.Errorf("%s: resume = %v, want a record 1, offset %d refusal wrapping ErrBadResult", name, err, specLine)
		}
	}
}

// TestResumeRefusesHostileSpec: a journal whose framing and CRC hold but
// whose spec no coordinator would have written is refused at once, with
// the record and offset of the spec line. The first is 205 bytes whose
// generations*per_gen overflowed to 0 when a campaign had breeding
// generations: multiplied, it validated, and Shards() then walked 2^40
// generations; the fields are gone, and strict decoding refuses them.
// The second is the job kind the generations fold removed. The last two
// ask for 2^40 cases, which Shards() or the injection list would
// allocate.
func TestResumeRefusesHostileSpec(t *testing.T) {
	for name, tc := range map[string]struct{ payload, want string }{
		"overflowing generations": {
			`{"spec":{"kind":"fuzz","fuzz":{"seed":1,"runs":1,"generations":1099511627776,"per_gen":1099511627776,"workers":0,"fault_frac":0,"budget":0,"minimize":false}}}`,
			`unknown field "generations"`,
		},
		"removed coverage kind": {
			`{"spec":{"kind":"coverage","coverage":{"campaign":{"seed":1,"runs":0,"workers":0,"fault_frac":0,"budget":0,"minimize":false},"init_runs":4,"generations":1,"per_gen":2}}}`,
			`unknown field "coverage"`,
		},
		"fuzz runs near 2^40": {
			`{"spec":{"kind":"fuzz","fuzz":{"seed":1,"runs":1099511627776,"budget":2000}}}`,
			"need <= 1048576 cases",
		},
		"experiment faults near 2^40": {
			`{"spec":{"kind":"experiment","experiment":{"faults":137438953472,"budget":1000,"seed":3}}}`,
			"need <= 1048576 cases",
		},
	} {
		path := filepath.Join(t.TempDir(), "hostile.ckpt")
		if err := os.WriteFile(path, []byte(journalLine(checkpointMagic, tc.payload)), 0o644); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := ResumeCoordinator(path, CoordinatorOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			var pe *frame.PosError
			if !errors.As(err, &pe) || pe.Record != 0 || pe.Offset != 0 || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: resume = %v, want a record 0, offset 0 refusal saying %q", name, err, tc.want)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: resume still running after 1 s", name)
		}
	}
}

// TestCoordinatorCallsInterleave runs a job with several worker
// goroutines that call the coordinator's methods directly, executing
// each leased shard between Lease and Complete as a worker does. There
// is no HTTP in between, because socket reads and writes order
// goroutines for the race detector: under -race, a field read or
// written outside c.mu by one call races a write made under the lock by
// another worker during the pause before it.
func TestCoordinatorCallsInterleave(t *testing.T) {
	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 16, Budget: 2000}, ShardSize: 1}
	coord, err := NewCoordinator(spec, CoordinatorOptions{TTLSeconds: 10, Clock: func() uint64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	pause := func() { time.Sleep(100 * time.Microsecond) }
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				lease := coord.Lease(LeaseRequest{Worker: name})
				if lease.Done {
					return
				}
				pause()
				coord.Status()
				pause()
				if _, err := coord.MetricsSnapshot(); err != nil {
					errs <- err
					return
				}
				if lease.Shard == nil {
					pause()
					continue
				}
				res, err := ExecuteShard(spec, *lease.Shard)
				if err == nil {
					coord.Renew(RenewRequest{Worker: name, Shard: lease.Shard.ID})
					pause()
					_, err = coord.Complete(CompleteRequest{Worker: name, Result: res})
				}
				if err != nil {
					errs <- err
					return
				}
				pause()
			}
		}(fmt.Sprintf("w%d", w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := coord.Status(); !st.Finished || st.Done != st.Total {
		t.Fatalf("status after the workers returned: %+v", st)
	}
	if _, err := coord.Finalize(); err != nil {
		t.Fatal(err)
	}
}
