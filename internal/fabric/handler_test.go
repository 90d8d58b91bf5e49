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
	"testing"
	"time"

	"dvmc"
	"dvmc/internal/frame"
	"dvmc/internal/fuzz"
	"dvmc/internal/hash"
)

// handlerFixture is a two-shard fuzz job behind an httptest server, on a
// clock the test steps by hand.
type handlerFixture struct {
	t     *testing.T
	coord *Coordinator
	srv   *httptest.Server
	now   uint64
}

func newHandlerFixture(t *testing.T) *handlerFixture {
	t.Helper()
	f := &handlerFixture{t: t}
	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000}, ShardSize: 2}
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
	res, err := ExecuteShard(f.coord.spec, f.coord.shards[id], nil)
	if err != nil {
		f.t.Fatal(err)
	}
	return res
}

// TestOversizedBodyIs413 sends each POST path one byte more than it
// reads: the answer is 413 and the coordinator is as it was — no worker
// admitted, no lease handed out, no result taken.
func TestOversizedBodyIs413(t *testing.T) {
	f := newHandlerFixture(t)
	if got, want := f.coord.completeLimit, int64(MaxControlBody+2*maxCaseBody); got != want {
		t.Fatalf("completion bound = %d, want %d (the largest shard holds 2 cases)", got, want)
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

// TestHandlersRefuseWhatIsNotTheirs walks the protocol's refusals through
// the HTTP surface: none may panic, none may change what the job holds.
func TestHandlersRefuseWhatIsNotTheirs(t *testing.T) {
	f := newHandlerFixture(t)

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
	outside := good
	outside.Records = append([]fuzz.Record(nil), good.Records...)
	outside.Records[0].Index = 3 // shard 0 is cases [0, 2)
	for name, res := range map[string]ShardResult{
		"a shard id past the partition": {Shard: Shard{ID: 99, From: 0, To: 2}},
		"a negative shard id":           {Shard: Shard{ID: -1}},
		"a shard with other bounds":     {Shard: Shard{ID: 0, From: 0, To: 4}},
		"a record outside its shard":    outside,
		"experiment rows in a fuzz job": {Shard: good.Shard, Rows: []RowPartial{{Row: 0, From: -5, Results: make([]dvmc.InjectionResult, 1)}}},
	} {
		code, reply := f.postJSON(PathComplete, CompleteRequest{Worker: "w2", Result: res})
		if code != http.StatusBadRequest || !strings.Contains(reply, "does not belong to this job") {
			t.Errorf("completion with %s: %d %s, want 400", name, code, strings.TrimSpace(reply))
		}
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
	before := f.coord.Status()
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

// TestResumeRefusesForeignResult pins the same check on the other way a
// result reaches a coordinator: a checkpoint whose CRCs hold but whose
// result is not the job's refuses to resume instead of failing at the end.
func TestResumeRefusesForeignResult(t *testing.T) {
	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000}, ShardSize: 2}
	var buf bytes.Buffer
	for _, e := range []CheckpointEntry{{Spec: &spec}, {Result: &ShardResult{Shard: Shard{ID: 1, From: 0, To: 2}}}} {
		if err := AppendEntry(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/farm.ckpt"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeCoordinator(path, CoordinatorOptions{}); err == nil || !strings.Contains(err.Error(), "does not belong to this job") {
		t.Fatalf("resume from a checkpoint with a foreign result: %v", err)
	}
}

// TestResumeRefusesHostileSpec: a journal whose framing and CRC hold but
// whose spec no coordinator would have written is refused at once, with
// the record and offset of the spec line. The first is 205 bytes whose
// Generations*PerGen overflows to 0: multiplied, it validated, and
// Shards() then walked 2^40 generations. The second is the job kind the
// generations fold removed.
func TestResumeRefusesHostileSpec(t *testing.T) {
	frameLine := func(payload string) []byte {
		return []byte(fmt.Sprintf("%s %04x %s\n", checkpointMagic, uint16(hash.Sum([]byte(payload))), payload))
	}
	for name, tc := range map[string]struct{ payload, want string }{
		"overflowing generations": {
			`{"spec":{"kind":"fuzz","fuzz":{"seed":1,"runs":1,"generations":1099511627776,"per_gen":1099511627776,"workers":0,"fault_frac":0,"budget":0,"minimize":false}}}`,
			"leaves no random prefix",
		},
		"removed coverage kind": {
			`{"spec":{"kind":"coverage","coverage":{"campaign":{"seed":1,"runs":0,"workers":0,"fault_frac":0,"budget":0,"minimize":false},"init_runs":4,"generations":1,"per_gen":2}}}`,
			`unknown field "coverage"`,
		},
	} {
		path := filepath.Join(t.TempDir(), "hostile.ckpt")
		if err := os.WriteFile(path, frameLine(tc.payload), 0o644); err != nil {
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
