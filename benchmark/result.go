package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// resultSchema versions the -out document compare reads.
const resultSchema = "dvmc-benchmark/1"

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Per-layer entries name how the number was obtained and which
	// end-to-end metric it should move.
	Method string `json:"method,omitempty"`
	Moves  string `json:"moves,omitempty"`
}

// WorkloadResult is everything one run of one workload reports.
type WorkloadResult struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	Unit   string `json:"work_unit"`
	Native string `json:"native_metric"`

	// Sizes: compare refuses results whose sizes differ.
	Chunks     int     `json:"chunks"`
	ChunkWork  float64 `json:"work_per_chunk"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"` // what an output check found

	Timing       Summary   `json:"chunk_timing"`
	SetupSamples []float64 `json:"setup_samples_s"`
	WallS        float64   `json:"wall_s"`

	EndToEnd map[string]Value `json:"end_to_end"`
	PerLayer map[string]Value `json:"per_layer,omitempty"`
	// Detail carries what a per-layer number needs to be read correctly
	// (each ablation configuration's retired ops, span self times).
	Detail map[string]any `json:"detail,omitempty"`
}

func newWorkloadResult(def WorkloadDef) *WorkloadResult {
	return &WorkloadResult{
		Name: def.Name, Why: def.Why, Unit: def.Unit, Native: def.Native,
		Correct:  true,
		EndToEnd: make(map[string]Value),
	}
}

// fail records one failed operation and why.
func (r *WorkloadResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// incorrect records a wholesale output-check failure.
func (r *WorkloadResult) incorrect(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setE2E stores the three end-to-end metrics from a timed pass.
func (r *WorkloadResult) setE2E(samples []float64, work float64, mallocDelta uint64) {
	r.Timing = summarize(samples)
	r.Chunks = len(samples)
	r.ChunkWork = work
	r.EndToEnd[mRate] = Value{Value: work / r.Timing.RuleTime(), Unit: "1/s"}
	r.EndToEnd[mAllocs] = Value{Value: float64(mallocDelta) / (work * float64(len(samples))), Unit: "count"}
	r.EndToEnd[mSetup] = Value{Value: summarize(r.SetupSamples).RuleTime(), Unit: "s"}
}

// overheadPct is bench.trace_overhead_pct: how much slower the traced
// units ran than the untraced ones they were interleaved with, by the
// timing rule, as a share of the untraced rate.
func overheadPct(plain, traced []float64) float64 {
	p, t := summarize(plain).RuleTime(), summarize(traced).RuleTime()
	return (t - p) / t * 100
}

// setLayer stores one per-layer value; the name must be in perLayer.
func (r *WorkloadResult) setLayer(name string, v float64) {
	if r.PerLayer == nil {
		r.PerLayer = make(map[string]Value)
	}
	for _, m := range perLayer {
		if m.Name == name {
			r.PerLayer[name] = Value{Value: v, Unit: m.Unit, Method: m.Method, Moves: m.Moves}
			return
		}
	}
	panic("benchmark: setLayer of undeclared metric " + name)
}

// fillLayers gives every per-layer metric this workload does not
// measure the value 0: its layer did no timed work here.
func (r *WorkloadResult) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.Name]; !ok {
			r.setLayer(m.Name, 0)
		}
	}
}

// contractLine is the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *WorkloadResult) contractLine(traced bool) ([]byte, error) {
	metrics := r.EndToEnd
	if traced {
		metrics = r.PerLayer
	}
	out := make(map[string]map[string]any, len(metrics))
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		out[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
}

// print writes the human-readable table of one workload.
func (r *WorkloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", r.Name, r.Why)
	fmt.Fprintf(w, "work unit: %s (%s); %d chunks x %g; chunk time median %.6fs p10 %.6fs p90 %.6fs\n",
		r.Unit, r.Native, r.Chunks, r.ChunkWork, r.Timing.Median, r.Timing.P10, r.Timing.P90)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d wall=%.2fs\n", r.Correct, r.Attempted, r.Failed, r.WallS)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range endToEnd {
		v := r.EndToEnd[m.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s is better\tbound %.0f%%\n", m.Name, v.Value, v.Unit, m.Better, m.Bound*100)
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			if !m.measuredOn(r.Name) {
				continue
			}
			v := r.PerLayer[m.Name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t-> %s\n", m.Name, v.Value, v.Unit, m.Method, m.Moves)
		}
	}
	tw.Flush()
}

// RunSet is the -out document: one full set of runs.
type RunSet struct {
	Schema    string            `json:"schema"`
	Claim     *string           `json:"claim"` // always null: the benchmark claims no gain
	Host      Host              `json:"host"`
	W         int               `json:"workers"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick"`
	Workloads []*WorkloadResult `json:"workloads"`
}

func (s *RunSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunSet(path string) (*RunSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s RunSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, resultSchema)
	}
	sort.SliceStable(s.Workloads, func(i, j int) bool { return s.Workloads[i].Name < s.Workloads[j].Name })
	return &s, nil
}
