package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dvmc"
	"dvmc/internal/strictjson"
)

// FaultSpec is the serializable form of a dvmc.Injection.
type FaultSpec struct {
	Kind  string `json:"kind"` // dvmc.FaultKind string name, e.g. "wb-reorder"
	Node  int    `json:"node"`
	Cycle uint64 `json:"cycle"`
	// Window parameterizes time-windowed kinds (msg-reorder's delay,
	// stale-dup replay delay, reorder-burst hold, nested-recovery
	// spacing), in cycles. Zero picks the kind's default.
	Window uint64 `json:"window,omitempty"`
	// Magnitude parameterizes sized kinds (reorder-burst length, lt-skew
	// in logical ticks). Zero picks the kind's default.
	Magnitude uint64 `json:"magnitude,omitempty"`
}

// FaultKindNames lists every injectable fault kind by name, in kind
// order.
func FaultKindNames() []string {
	var out []string
	for _, k := range dvmc.AllFaultKinds() {
		out = append(out, k.String())
	}
	return out
}

// Injection converts the spec to the simulator's form.
func (f FaultSpec) Injection() (dvmc.Injection, error) {
	k, err := dvmc.ParseFaultKind(f.Kind)
	if err != nil {
		return dvmc.Injection{}, err
	}
	if f.Node < 0 {
		return dvmc.Injection{}, fmt.Errorf("fuzz: fault.node = %d, need >= 0", f.Node)
	}
	return dvmc.Injection{
		Kind:      k,
		Node:      f.Node,
		Cycle:     dvmc.Cycle(f.Cycle),
		Window:    dvmc.Cycle(f.Window),
		Magnitude: f.Magnitude,
	}, nil
}

// Case is one complete, self-contained, replayable experiment: the
// program, the system configuration knobs that matter, and an optional
// fault. Cases serialize to stable JSON — the corpus format.
type Case struct {
	// Name labels the case in reports and corpus file names.
	Name string `json:"name,omitempty"`
	// Model is the consistency model: SC|TSO|PSO|RMO.
	Model string `json:"model"`
	// Protocol is the coherence substrate: directory|snooping.
	Protocol string `json:"protocol"`
	// Seed is the simulator seed (network jitter etc.).
	Seed uint64 `json:"seed"`
	// Budget is the cycle budget: the whole run for fault-free cases,
	// the post-injection observation window for fault cases.
	Budget uint64 `json:"budget"`
	// DVMC enables the online checkers (a case with them off documents
	// an expected escape — used to seed minimizer tests).
	DVMC bool `json:"dvmc"`
	// SafetyNet enables checkpoint/recovery.
	SafetyNet bool `json:"safetynet"`
	// Fault, when non-nil, is injected mid-run.
	Fault *FaultSpec `json:"fault,omitempty"`
	// Program is the litmus program under test.
	Program Program `json:"program"`
	// Expect records the classification this case reproduces; replay
	// verifies it still holds.
	Expect dvmc.Class `json:"expect,omitempty"`
}

// Validate reports structural errors.
func (c *Case) Validate() error {
	if _, err := c.Config(); err != nil { // the model and protocol names
		return err
	}
	if c.Budget == 0 {
		return fmt.Errorf("fuzz: case %q has zero budget", c.Name)
	}
	if c.Fault != nil {
		if _, err := c.Fault.Injection(); err != nil {
			return err
		}
	}
	return c.Program.Validate()
}

// Clone returns a deep copy.
func (c *Case) Clone() *Case {
	out := *c
	if c.Fault != nil {
		f := *c.Fault
		out.Fault = &f
	}
	out.Program = *c.Program.Clone()
	return &out
}

// Nodes returns the node count the case runs on: one per thread.
func (c *Case) Nodes() int {
	if n := c.Program.NumThreads(); n > 0 {
		return n
	}
	return 1
}

// Config assembles the simulator configuration for this case.
func (c *Case) Config() (dvmc.Config, error) {
	model, err := dvmc.ParseModel(c.Model)
	if err != nil {
		return dvmc.Config{}, err
	}
	proto, err := dvmc.ParseProtocol(c.Protocol)
	if err != nil {
		return dvmc.Config{}, err
	}
	cfg := dvmc.ScaledConfig().
		WithNodes(c.Nodes()).
		WithModel(model).
		WithProtocol(proto).
		WithSeed(c.Seed).
		WithTrace(dvmc.TraceOn())
	if !c.DVMC {
		cfg.DVMC = dvmc.Off()
	}
	cfg.SafetyNet = c.SafetyNet
	return cfg, nil
}

// Encode renders the case as stable, indented JSON (byte-identical for
// equal cases — the corpus reproducibility contract).
func (c *Case) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCase parses and validates a serialized case.
func DecodeCase(data []byte) (*Case, error) {
	var c Case
	if err := strictjson.Decode(bytes.NewReader(data), &c); err != nil {
		return nil, fmt.Errorf("fuzz: decode case: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
