// Command perfbench is the repository's benchmark: three workloads driven
// through the public Go API of the simulator from one process, each
// printing its end-to-end metrics (or, with -trace 1, its per-layer
// metrics) as the last line of standard output, and checking every output
// it produces. README.md in this directory explains the workloads, the
// metrics and the layer-to-metric predictions; run.sh builds and runs it.
//
//	perfbench -workload transpose-run|lu-sweep|dsmd-mix -seed N -seconds S -trace 0|1
//	perfbench -pin expected.json     # re-pin the expected simulated outputs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dsmdist/internal/hostpool"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
)

// metricDef names a reported metric and its unit. The lists below mirror
// BENCHMARK.json (TestBenchmarkJSONMatches keeps them equal).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_wall_s", "s"},
	{"sweep_wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// shareLayers are the layers host_share.* reports: the repository's
// packages in pipeline order, the repository's remaining packages
// (hostpool, machine, workloads, ...) as "other", then the Go runtime, the
// rest of the standard library (HTTP, JSON, syscalls) and the benchmark
// itself.
var shareLayers = []string{
	"fortran", "sema", "obj", "ir", "link", "xform", "codegen", "dist",
	"rtl", "exec", "bytecode", "memsim", "ospage", "obs", "core",
	"experiments", "service", "other", "runtime", "stdlib", "bench",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_frac", "ratio"},
		{"obj.compile_ms", "ms"}, {"obj.compiles", "count"},
		{"link.link_ms", "ms"}, {"link.links", "count"},
		{"rtl.load_ms", "ms"},
		{"exec.run_ms", "ms"}, {"exec.ns_per_instr", "ns"},
		{"bytecode.instrs", "count"},
		{"memsim.ns_per_access", "ns"},
		{"memsim.loads", "count"}, {"memsim.stores", "count"},
		{"memsim.l1_miss", "count"}, {"memsim.l2_miss", "count"},
		{"memsim.l2_miss_remote", "count"}, {"memsim.tlb_miss", "count"},
		{"memsim.inv_sent", "count"}, {"memsim.wait_cyc", "cycles"},
		{"ospage.spilled", "count"}, {"ospage.placed", "count"},
		{"experiments.point_ms_p50", "ms"}, {"experiments.point_ms_max", "ms"},
		{"experiments.fanout_eff", "ratio"}, {"hostpool.peak", "count"},
		{"service.hit_ms_p50", "ms"}, {"service.coalesced_ms_p50", "ms"},
		{"service.simulated_ms_p50", "ms"}, {"service.store_hit_ratio", "ratio"},
		{"service.build_hit_ratio", "ratio"}, {"service.simulations", "count"},
		{"service.refused", "count"}, {"service.store_evictions", "count"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"host_share." + l, "ratio"})
	}
	return append(defs,
		metricDef{"host_share.gc", "ratio"},
		metricDef{"go.alloc_mb_per_op", "MB"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "full" (the benchmark) or "tiny" (self-test)
	out      string // directory for the store, spans and other run output
	exp      *expected
	log      io.Writer
}

// result is what a workload reports. metrics may hold both end-to-end and
// per-layer values; report picks the set the mode asks for.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	labels            map[string]any
	spans             *tracer
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, labels: map[string]any{}}
}

// fail records n failed operations with a reason on the log.
func (r *result) fail(c *config, n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(c.log, "FAIL: "+format+"\n", args...)
}

var workloadsByName = map[string]func(*config) (*result, error){
	"transpose-run": runTranspose,
	"lu-sweep":      runLUSweep,
	"dsmd-mix":      runDSMDMix,
}

func main() {
	var c config
	var traceFlag int
	var pin string
	flag.StringVar(&c.workload, "workload", "", "transpose-run | lu-sweep | dsmd-mix")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for run output (store, spans)")
	flag.StringVar(&pin, "pin", "", "recompute the expected simulated outputs into this file and exit")
	flag.Parse()
	c.trace = traceFlag == 1
	c.scale = "full"
	c.log = os.Stdout

	if err := guardDefaults(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if pin != "" {
		if err := writePins(pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	c.exp = exp
	line, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run executes one workload and returns the result line.
func run(c *config) (string, error) {
	fn := workloadsByName[c.workload]
	if fn == nil {
		return "", fmt.Errorf("unknown workload %q (accepted: transpose-run, lu-sweep, dsmd-mix)", c.workload)
	}
	if c.seconds <= 0 {
		return "", errors.New("seconds must be positive")
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return "", err
	}
	// Start every workload from a collected heap, so no collection cycle
	// left over from start-up overlaps the timed set-up.
	runtime.GC()
	res, err := fn(c)
	if err != nil {
		return "", err
	}
	for k, v := range hostLabels() {
		res.labels[k] = v
	}
	res.labels["workload"], res.labels["seed"], res.labels["scale"] = c.workload, c.seed, c.scale
	lab, err := json.Marshal(map[string]any{"labels": res.labels})
	if err != nil {
		return "", err
	}
	fmt.Fprintln(c.log, string(lab))
	if res.spans != nil {
		name := fmt.Sprintf("%s-seed%d", c.workload, c.seed)
		if err := res.spans.write(filepath.Join(c.out, "traces"), name, c.log); err != nil {
			return "", err
		}
	}
	return report(c, res)
}

// report renders the result line: every end-to-end metric untraced, every
// per-layer metric traced. An end-to-end metric a workload failed to
// measure is an error; a per-layer metric for a layer the workload does
// not exercise reads 0.
func report(c *config, r *result) (string, error) {
	if r.attempted > 0 {
		r.metrics["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !c.trace {
			return "", fmt.Errorf("%s: metric %s not measured", c.workload, d.name)
		}
		if math.IsNaN(v) {
			return "", fmt.Errorf("%s: metric %s is NaN", c.workload, d.name)
		}
		if math.IsInf(v, 0) { // a percentile over failed operations
			v = math.Copysign(math.MaxFloat64, v)
		}
		out[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	return string(line), err
}

// guardDefaults refuses to measure anything but the defaults a user gets:
// the environment overrides that force an engine, tier, worker count or
// memory-run mode would silently change the path being measured, and a
// GOMAXPROCS above the CPU count would oversubscribe the host.
func guardDefaults() error {
	for _, v := range []string{"DSM_ENGINE", "DSM_TIER", "DSM_WORKERS", "DSM_MEMRUN"} {
		if _, set := os.LookupEnv(v); set {
			return fmt.Errorf("%s is set; the benchmark measures the default path only (unset it)", v)
		}
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this host", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if hostpool.Budget() > runtime.NumCPU() {
		return fmt.Errorf("hostpool budget %d exceeds the %d CPUs of this host", hostpool.Budget(), runtime.NumCPU())
	}
	return nil
}

// hostLabels records the host settings every result was taken under, so
// numbers from different hosts or settings are never compared unawares.
func hostLabels() map[string]any {
	return map[string]any{
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"hostpool_budget": hostpool.Budget(),
		"go_version":      runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMB is the Go heap's cumulative allocation, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// timeSetup runs a workload's set-up several times and returns the median
// duration; the last repetition's state is the one the run keeps, and undo
// (untimed, may be nil) releases the state of each earlier one. Cheap
// set-ups repeat until about a fifth of a second is spent: a microsecond
// set-up then runs tens of thousands of times, and its median is that of
// a warmed heap, not of a fresh process's first allocations.
func timeSetup(minReps int, fn, undo func() error) (float64, error) {
	var ds []float64
	var spent time.Duration
	for i := 0; i < minReps || spent < 200*time.Millisecond; i++ {
		if i > 0 && undo != nil {
			if err := undo(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		spent += d
		ds = append(ds, d.Seconds())
	}
	return quantile(ds, 0.5), nil
}

// quantile returns the nearest-rank q-quantile of xs: the smallest value
// with at least a share q of xs at or below it (q=0.5 is the median). It
// never interpolates between order statistics, so a percentile of a few
// points of very different cost is one of those points, not a value in
// the gap between two of them. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// pointMedians takes walls recorded pass after pass, k per pass in the
// same order, and returns each of the k points' median over the passes.
// Percentiles over these do not shift with the number of passes that fit
// in a run, as percentiles over all the walls do when points differ in
// cost.
func pointMedians(walls []float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		var xs []float64
		for j := i; j < len(walls); j += k {
			xs = append(xs, walls[j])
		}
		out[i] = quantile(xs, 0.5)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// putShares stores the host_share.* metrics of a profiled pass.
func putShares(r *result, cs *cpuShares) {
	for _, l := range shareLayers {
		r.metrics["host_share."+l] = cs.share(l)
	}
	r.metrics["host_share.gc"] = cs.gcShare()
	if cs.totalNS > 0 {
		r.labels["profile_cpu_s"] = float64(cs.totalNS) / 1e9
		r.labels["profile_labelled_frac"] = float64(cs.labelled) / float64(cs.totalNS)
	}
}

// putLayerTimes stores the time in and the number of each staged layer
// call, divided by div (the passes traced), and exec's host time per
// simulated instruction over instrs.
func putLayerTimes(r *result, tr *tracer, div float64, instrs int64) {
	tot := tr.totals()
	get := func(name string) (float64, float64) {
		if st := tot[name]; st != nil {
			return ms(st.Total) / div, float64(st.Count) / div
		}
		return 0, 0
	}
	r.metrics["obj.compile_ms"], r.metrics["obj.compiles"] = get("obj.Compile")
	r.metrics["link.link_ms"], r.metrics["link.links"] = get("link.Link")
	r.metrics["rtl.load_ms"], _ = get("rtl.LoadObs")
	r.metrics["exec.run_ms"], _ = get("exec.RunLoaded")
	if instrs > 0 {
		r.metrics["exec.ns_per_instr"] = r.metrics["exec.run_ms"] * div * 1e6 / float64(instrs)
	}
}

// putSimulated stores the simulated work of one pass: instructions, page
// placements and memory-system counts (exact, so they repeat from run to
// run), and memsim's profiled host time per access over the passes
// profiled.
func putSimulated(r *result, instrs int64, pages ospage.Stats, mem memsim.ProcStats, cs *cpuShares, passes int) {
	r.metrics["bytecode.instrs"] = float64(instrs)
	r.metrics["ospage.spilled"] = float64(pages.Spilled)
	r.metrics["ospage.placed"] = float64(pages.Placed)
	r.metrics["memsim.loads"] = float64(mem.Loads)
	r.metrics["memsim.stores"] = float64(mem.Stores)
	r.metrics["memsim.l1_miss"] = float64(mem.L1Miss)
	r.metrics["memsim.l2_miss"] = float64(mem.L2Miss)
	r.metrics["memsim.l2_miss_remote"] = float64(mem.L2MissRemote)
	r.metrics["memsim.tlb_miss"] = float64(mem.TLBMiss)
	r.metrics["memsim.inv_sent"] = float64(mem.InvSent)
	r.metrics["memsim.wait_cyc"] = float64(mem.WaitCyc)
	if acc := mem.Loads + mem.Stores; acc > 0 {
		r.metrics["memsim.ns_per_access"] = float64(cs.ns["memsim"]) / float64(acc*int64(passes))
	}
}

// putOverhead stores the tracing overhead: traced wall minus untraced
// wall for the same operations.
func putOverhead(r *result, untraced, traced time.Duration) {
	r.metrics["trace.overhead_s"] = (traced - untraced).Seconds()
	if untraced > 0 {
		r.metrics["trace.overhead_frac"] = float64(traced-untraced) / float64(untraced)
	}
}
