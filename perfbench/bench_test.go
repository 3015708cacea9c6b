package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// runTiny runs one workload at the self-test size and decodes its result
// line.
func runTiny(t *testing.T, workload string, trace bool, exp *expected) (resultLine, string) {
	t.Helper()
	var log bytes.Buffer
	c := &config{workload: workload, seed: 7, seconds: 0.5, trace: trace, scale: "tiny",
		out: t.TempDir(), exp: exp, log: &log}
	line, err := run(c)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, log.String())
	}
	var res resultLine
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, line, err)
	}
	return res, log.String()
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func mustExpected(t *testing.T) *expected {
	t.Helper()
	e, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size:
// each must pass its output checks and emit exactly its named metrics with
// their units.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"transpose-run", "lu-sweep", "dsmd-mix"} {
		for _, trace := range []bool{false, true} {
			res, log := runTiny(t, w, trace, mustExpected(t))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && !(m.Value > 0) && d.name != "failed_frac" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if trace {
				var sum float64
				for _, l := range shareLayers {
					sum += res.Metrics["host_share."+l].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: host shares sum to %v, want 1", w, sum)
				}
				if res.Metrics["bytecode.instrs"].Value <= 0 || res.Metrics["exec.run_ms"].Value <= 0 {
					t.Errorf("%s: traced run reported no simulated work", w)
				}
				if !strings.Contains(log, "spans:") {
					t.Errorf("%s: traced run wrote no span summary", w)
				}
			}
		}
	}
}

// TestCorruptedPinIsAFailure corrupts one pinned output per workload: the
// run must report failed operations and correct=false.
func TestCorruptedPinIsAFailure(t *testing.T) {
	corrupt := map[string]func(e *expected){
		"transpose-run": func(e *expected) {
			p := e.Transpose["tiny/reshaped"]
			p.Total.L2Miss++
			e.Transpose["tiny/reshaped"] = p
		},
		"lu-sweep": func(e *expected) { e.LUSweep["tiny"][3].Cycles++ },
		"dsmd-mix": func(e *expected) {
			for k := range e.DSMD {
				e.DSMD[k] = strings.Repeat("0", 64)
			}
		},
	}
	for w, fn := range corrupt {
		e := mustExpected(t)
		fn(e)
		res, log := runTiny(t, w, false, e)
		if res.Correct || res.Failed == 0 || !strings.Contains(log, "FAIL") {
			t.Errorf("%s with a corrupted pin: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestDefaultPathGuard: an environment override of the engine, tier,
// workers or memory-run mode must stop the benchmark.
func TestDefaultPathGuard(t *testing.T) {
	if err := guardDefaults(); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	for _, v := range []string{"DSM_ENGINE", "DSM_TIER", "DSM_WORKERS", "DSM_MEMRUN"} {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			if guardDefaults() == nil {
				t.Errorf("%s set, guard passed", v)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists identical
// to the ones the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestMixRoundsDeterministic: the seed alone fixes the job list, and the
// list holds every caller's kind and coalesced rounds.
func TestMixRoundsDeterministic(t *testing.T) {
	space, err := buildMixSpace()
	if err != nil {
		t.Fatal(err)
	}
	a, b := mixRounds(5, space, 200), mixRounds(5, space, 200)
	if !slices.Equal(a, b) {
		t.Fatal("rounds differ for the same seed")
	}
	kinds := map[string]int{}
	for _, r := range a {
		kinds[space.ops[r.a].kind]++
		kinds[space.ops[r.b].kind]++
		if r.a == r.b {
			kinds["coalesced"]++
		}
	}
	for _, k := range []string{"run", "bench", "advise", "coalesced"} {
		if kinds[k] == 0 {
			t.Errorf("round kinds %v: want %s", kinds, k)
		}
	}
}

// TestMixCallerShapes: bench operations are a remote figure sweep (the
// serial baseline, then four variants per processor count, checks off)
// and advise operations carry the advisor's own verification points.
func TestMixCallerShapes(t *testing.T) {
	space, err := buildMixSpace()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range space.ops {
		first := space.specs[op.specs[0]]
		switch op.kind {
		case "run":
			if len(op.specs) != 1 || !first.checks {
				t.Fatalf("run op %s: want one job with runtime checks", first.key())
			}
		case "bench":
			if n := len(op.specs); (n-1)%4 != 0 || first.procs != 1 || first.checks {
				t.Fatalf("bench op %s: %d jobs", first.key(), n)
			}
		case "advise":
			if len(op.specs) == 0 || first.checks || first.file != "main.f" {
				t.Fatalf("advise op %s: %d jobs", first.key(), len(op.specs))
			}
		}
	}
}
