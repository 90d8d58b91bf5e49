package fuzz

import (
	"dvmc"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fuzzBudget clamps a fuzzed case's cycle budget: the target asks
// whether a decoded case can run at all, not what a long run finds.
const fuzzBudget = 20_000

// FuzzDecodeCase: bytes that decode and validate as a case must run to a
// classification, or be refused by the simulator's own configuration
// check naming the field. A case that makes the simulator panic (PR 16's
// negative fault.node was one) comes back as dvmc.ClassCrash, which this
// target does not accept from a validated case.
func FuzzDecodeCase(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no corpus cases to seed from (%v)", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCase(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("refusal with an empty message")
			}
			return
		}
		if n := c.Program.NumOps() + c.Program.NumThreads(); n > len(data) {
			t.Fatalf("%d threads and ops out of %d bytes", n, len(data))
		}
		c.Budget = min(c.Budget, fuzzBudget)
		res, _, err := RunCase(c)
		if err != nil {
			if !strings.Contains(err.Error(), "dvmc: ") && !strings.Contains(err.Error(), "fuzz: ") {
				t.Fatalf("run refused without saying what is wrong with the case: %v", err)
			}
			return
		}
		if res.Class == dvmc.ClassCrash {
			t.Fatalf("a validated case crashed the simulator: %s", res.Panic)
		}
		if !slices.Contains(dvmc.Classes, res.Class) {
			t.Fatalf("class %q is not one of %v", res.Class, dvmc.Classes)
		}
	})
}
