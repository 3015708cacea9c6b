// Benchmarks regenerating the paper's evaluation (§8), one per table and
// figure. Each benchmark runs the corresponding experiment at the Quick
// scale and reports the simulated results as custom metrics:
//
//	sim-cycles       simulated execution time of the measured section
//	sim-speedup      speedup over the serial build (figures)
//	host-ms/sweep    host wall time of one whole sweep (all points)
//	host-ms/point    host wall time per sweep point (mean)
//
// The sim-* metrics are properties of the simulated machine and must never
// move under host-side optimization; the host-* metrics are the harness
// performance and are what BENCH_sweeps.json snapshots, so the host-perf
// trajectory accumulates in git history (run `go test -bench=. -benchtime=1x`
// and commit the rewritten file).
//
// cmd/dsmbench runs the same experiments at full (paper/16) scale;
// EXPERIMENTS.md records those results against the paper's.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
)

// benchRows runs an experiment once per b.N, reports the last rows, and
// records them in the BENCH_sweeps.json snapshot.
func benchRows(b *testing.B, exp string, fn func(experiments.Sizes) ([]experiments.Row, error), s experiments.Sizes) []experiments.Row {
	b.Helper()
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fn(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var wall float64
	for _, r := range rows {
		wall += r.WallMS
	}
	b.ReportMetric(wall, "host-ms/sweep")
	if len(rows) > 0 {
		b.ReportMetric(wall/float64(len(rows)), "host-ms/point")
	}
	recordSweep(exp, rows)
	return rows
}

// BenchmarkTable2 reproduces Table 2: the reshape-optimization ablation on
// the LU kernel, one processor.
func BenchmarkTable2(b *testing.B) {
	s := experiments.Quick()
	rows := benchRows(b, "table2", experiments.Table2, s)
	for _, r := range rows {
		b.ReportMetric(float64(r.Cycles), "sim-cycles-"+shortLabel(r.Variant))
	}
}

func shortLabel(v string) string {
	switch v {
	case "reshape, no optimizations":
		return "noopt"
	case "reshape, tile and peel":
		return "tilepeel"
	case "reshape, tile and peel, hoist":
		return "hoist"
	case "reshape, all optimizations":
		return "full"
	case "original without reshaping":
		return "original"
	}
	return v
}

// figBench runs a figure experiment and reports per-variant speedups at the
// largest processor count.
func figBench(b *testing.B, exp string, fn func(experiments.Sizes) ([]experiments.Row, error)) {
	s := experiments.Quick()
	rows := benchRows(b, exp, fn, s)
	maxP := 0
	for _, r := range rows {
		if r.P > maxP {
			maxP = r.P
		}
	}
	for _, r := range rows {
		if r.P == maxP {
			b.ReportMetric(r.Speedup, fmt.Sprintf("sim-speedup-%s-p%d", r.Variant, r.P))
		}
	}
}

// BenchmarkFig4 reproduces Figure 4: NAS-LU speedups under the four
// placement strategies.
func BenchmarkFig4(b *testing.B) { figBench(b, "fig4", experiments.Fig4) }

// BenchmarkFig5 reproduces Figure 5: matrix-transpose speedups.
func BenchmarkFig5(b *testing.B) { figBench(b, "fig5", experiments.Fig5) }

// BenchmarkFig6 reproduces Figure 6: 2-D convolution, small input, one- and
// two-level parallelism.
func BenchmarkFig6(b *testing.B) { figBench(b, "fig6", experiments.Fig6) }

// BenchmarkFig7 reproduces Figure 7: 2-D convolution, large input.
func BenchmarkFig7(b *testing.B) { figBench(b, "fig7", experiments.Fig7) }

// ---- BENCH_sweeps.json: the host-performance snapshot ----

// sweepPoint is one row of a sweep, reduced to the fields the perf
// trajectory needs: the simulated cycles (must never move) and the host
// wall time (the metric under optimization).
type sweepPoint struct {
	Variant string  `json:"variant"`
	P       int     `json:"p"`
	Cycles  int64   `json:"cycles"`
	WallMS  float64 `json:"wall_ms"`
}

type sweepRecord struct {
	Exp         string       `json:"exp"`
	TotalWallMS float64      `json:"total_wall_ms"`
	Points      []sweepPoint `json:"points"`
}

type benchSnapshot struct {
	RecordedAt string        `json:"recorded_at"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Scale      string        `json:"scale"`
	Tier       string        `json:"tier"`
	Sweeps     []sweepRecord `json:"sweeps"`
}

var snapMu sync.Mutex
var snapRecs = map[string]sweepRecord{}

func recordSweep(exp string, rows []experiments.Row) {
	rec := sweepRecord{Exp: exp}
	for _, r := range rows {
		rec.TotalWallMS += r.WallMS
		rec.Points = append(rec.Points, sweepPoint{
			Variant: r.Variant, P: r.P, Cycles: r.Cycles, WallMS: r.WallMS,
		})
	}
	snapMu.Lock()
	snapRecs[exp] = rec
	snapMu.Unlock()
}

// TestMain writes BENCH_sweeps.json after a benchmark run; a plain
// `go test` records no sweeps and leaves the snapshot untouched.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := writeSnapshot("BENCH_sweeps.json"); err != nil {
		fmt.Fprintf(os.Stderr, "bench snapshot: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func writeSnapshot(path string) error {
	snapMu.Lock()
	defer snapMu.Unlock()
	if len(snapRecs) == 0 {
		return nil
	}
	snap := benchSnapshot{
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      "quick",
		// The sweeps run at the Sizes default (auto), so the resolved
		// tier is what actually executed; cycles are tier-independent.
		Tier: exec.TierAuto.Resolve().String(),
	}
	names := make([]string, 0, len(snapRecs))
	for n := range snapRecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Sweeps = append(snap.Sweeps, snapRecs[n])
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TestFigureShapes asserts the paper's qualitative results hold at Quick
// scale (the full-scale record lives in EXPERIMENTS.md):
//
//   - Figure 5 (transpose): reshaping wins and first-touch loses at the
//     largest processor count ("the reshaped version obtains the best
//     performance", §8.2).
//   - Table 2: each optimization level improves on the previous, and fully
//     optimized reshaping is within a few percent of the original
//     non-reshaped code.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	s := experiments.Quick()
	s.TransIters = 4

	rows, err := experiments.Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	maxP := 0
	at := map[string]experiments.Row{}
	for _, r := range rows {
		if r.P > maxP {
			maxP = r.P
		}
	}
	for _, r := range rows {
		if r.P == maxP {
			at[r.Variant] = r
		}
	}
	if at["reshaped"].Speedup <= at["first-touch"].Speedup {
		t.Errorf("fig5 shape: reshaped (%.2fx) must beat first-touch (%.2fx) at P=%d",
			at["reshaped"].Speedup, at["first-touch"].Speedup, maxP)
	}
	if at["reshaped"].Speedup <= at["round-robin"].Speedup {
		t.Errorf("fig5 shape: reshaped (%.2fx) must beat round-robin (%.2fx) at P=%d",
			at["reshaped"].Speedup, at["round-robin"].Speedup, maxP)
	}

	t2, err := experiments.Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 5 {
		t.Fatalf("table2 rows = %d", len(t2))
	}
	for i := 1; i < 4; i++ {
		if t2[i].Cycles > t2[i-1].Cycles {
			t.Errorf("table2 not monotone: %q (%d) worse than %q (%d)",
				t2[i].Variant, t2[i].Cycles, t2[i-1].Variant, t2[i-1].Cycles)
		}
	}
	full, orig := float64(t2[3].Cycles), float64(t2[4].Cycles)
	if full > orig*1.15 {
		t.Errorf("table2: optimized reshape (%.0f) should be within ~15%% of original (%.0f)", full, orig)
	}
}
