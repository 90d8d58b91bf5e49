package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// setupFloorS is the absolute slack compare gives setup_s: a set-up of
// a tenth of a second cannot be held to a tenth of itself.
const setupFloorS = 0.2

// worsening returns how much worse b is than a as a share of a
// (negative: better).
func worsening(m Metric, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spreadsOverlap reports whether the p10..p90 chunk-time intervals of
// two runs overlap by more than bound of the narrower one: then a
// difference between their rates is within what one run's own chunks
// disagree by, and cannot be called a regression.
func spreadsOverlap(a, b Summary, bound float64) bool {
	lo, hi := math.Max(a.P10, b.P10), math.Min(a.P90, b.P90)
	narrow := math.Min(a.P90-a.P10, b.P90-b.P10)
	return narrow > 0 && (hi-lo)/narrow > bound
}

// compareSets prints, per workload and end-to-end metric, both values,
// the delta and the bound, and returns the process exit code: 2 when
// the sets are not comparable, 1 when any delta exceeds its bound or an
// exact count differs, 0 otherwise.
func compareSets(a, b *RunSet, out io.Writer) int {
	if a.W != b.W || a.Seed != b.Seed || a.Seconds != b.Seconds || a.Quick != b.Quick || len(a.Workloads) != len(b.Workloads) {
		fmt.Fprintf(out, "not comparable: workers %d/%d seed %d/%d seconds %g/%g quick %v/%v workloads %d/%d\n",
			a.W, b.W, a.Seed, b.Seed, a.Seconds, b.Seconds, a.Quick, b.Quick, len(a.Workloads), len(b.Workloads))
		return 2
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Name != wb.Name || wa.Chunks != wb.Chunks || wa.ChunkWork != wb.ChunkWork {
			fmt.Fprintf(out, "not comparable: %s %dx%g vs %s %dx%g\n", wa.Name, wa.Chunks, wa.ChunkWork, wb.Name, wb.Chunks, wb.ChunkWork)
			return 2
		}
	}
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tverdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			d := worsening(m, va, vb)
			verdict := "unchanged"
			switch {
			case m.Name == mSetup && math.Abs(vb-va) <= setupFloorS:
			case d > m.SameSeed && m.Name == mRate && spreadsOverlap(wa.Timing, wb.Timing, m.SameSeed):
				verdict, code = "unresolved", 1
			case d > m.SameSeed:
				verdict, code = "REGRESSED", 1
			case d < -m.SameSeed:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", wa.Name, m.Name, va, vb, d*100, m.SameSeed*100, verdict)
		}
		if wa.Failed != wb.Failed || wa.Attempted != wb.Attempted || wa.Correct != wb.Correct {
			fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t%d/%d\t\t0\tDIFFERS\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			code = 1
		}
		for _, m := range perLayer {
			if m.Method != methodCount {
				continue
			}
			va, oka := wa.PerLayer[m.Name]
			vb, okb := wb.PerLayer[m.Name]
			if oka && okb && va.Value != vb.Value {
				fmt.Fprintf(tw, "%s\t%s\t%.9g\t%.9g\t\texact\tDIFFERS\n", wa.Name, m.Name, va.Value, vb.Value)
				code = 1
			}
		}
	}
	tw.Flush()
	return code
}

func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readRunSet(args[0])
	if err == nil {
		var b *RunSet
		if b, err = readRunSet(args[1]); err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
