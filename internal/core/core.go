// Package core is the toolchain driver — the public face of the system. It
// strings the stages together the way the paper's build does:
//
//	Compile:  parse → semantic analysis (§3 directives, §6 compile-time
//	          checks) → object file with shadow annotations (§5)
//	Link:     pre-linker (propagation, cloning, §6 link-time checks) →
//	          transformation (§4.1, §7) → code generation
//	Run:      load (page placement §4.2, reshaped pools §4.3) → execute
//	          on the simulated Origin-2000
//
// A typical use:
//
//	tc := core.New()
//	img, err := tc.Build(map[string]string{"main.f": src})
//	res, err := core.Run(img, machine.Scaled(16), core.RunOptions{})
//	fmt.Println(res.Seconds(), res.Total.L2Miss)
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dsmdist/internal/exec"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/obj"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/rtl"
	"dsmdist/internal/xform"
)

// Toolchain holds compilation policy.
type Toolchain struct {
	// Opt is the reshape-optimization level (§7); default O3.
	Opt xform.Options
	// RuntimeChecks enables the §6 runtime argument checks.
	RuntimeChecks bool
	// Rec, when non-nil, receives build metadata (sources, optimization
	// level, build wall time); pass the same recorder to Run via
	// RunOptions.Recorder so one profile covers compile and run.
	Rec *obs.Recorder
	// Cache, when non-nil, memoizes Build results by (sources, options);
	// cache hits return a fresh clone of the compiled image, so they are
	// safe to load and run concurrently. Share one cache across the
	// toolchains of a sweep.
	Cache *BuildCache
}

// New returns a production-default toolchain: all optimizations, runtime
// checks on.
func New() *Toolchain {
	return &Toolchain{Opt: xform.O3(), RuntimeChecks: true}
}

// NewAt returns a toolchain at a specific optimization level.
func NewAt(opt xform.Options) *Toolchain {
	return &Toolchain{Opt: opt, RuntimeChecks: true}
}

// Compile compiles one source file to an object.
func (tc *Toolchain) Compile(filename, src string) (*obj.Object, error) {
	return obj.Compile(filename, src)
}

// Link pre-links and links objects into an executable image.
func (tc *Toolchain) Link(objs ...*obj.Object) (*link.Image, error) {
	return link.Link(objs, link.Config{Opt: tc.Opt, RuntimeChecks: tc.RuntimeChecks})
}

// Build compiles and links a set of named sources (map iteration order is
// normalized by name for determinism). With a Cache attached, identical
// (sources, options) builds compile once and return fresh clones.
func (tc *Toolchain) Build(sources map[string]string) (*link.Image, error) {
	start := time.Now()
	var img *link.Image
	var err error
	if tc.Cache != nil {
		img, err = tc.Cache.Get(tc.cacheKey(sources), func() (*link.Image, error) {
			return tc.build(sources)
		})
	} else {
		img, err = tc.build(sources)
	}
	if err == nil && tc.Rec != nil {
		names := make([]string, 0, len(sources))
		for n := range sources {
			names = append(names, n)
		}
		sort.Strings(names)
		tc.Rec.SetMeta("sources", strings.Join(names, " "))
		tc.Rec.SetMeta("opt", fmt.Sprintf("tile=%v hoist=%v fpdiv=%v",
			tc.Opt.TilePeel, tc.Opt.Hoist, tc.Opt.FPDiv))
		tc.Rec.SetMeta("build", time.Since(start).Round(time.Millisecond).String())
	}
	return img, err
}

// build is the uncached compile-and-link pipeline.
func (tc *Toolchain) build(sources map[string]string) (*link.Image, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	var objs []*obj.Object
	for _, n := range names {
		o, err := tc.Compile(n, sources[n])
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return tc.Link(objs...)
}

// RunOptions configure execution.
type RunOptions struct {
	Policy  ospage.Policy
	Quantum int
	// Recorder, when non-nil, observes the run (see internal/obs); nil
	// keeps the simulation on the untraced fast path.
	Recorder *obs.Recorder
	// RedistSerial selects the legacy serial c$redistribute cost model
	// instead of the scheduled collective (see exec.Options).
	RedistSerial bool
	// MaxQuanta raises the runaway-loop guard (0 keeps the default).
	MaxQuanta int64
	// Tier selects the bytecode execution tier (classic, compiled, auto);
	// simulation results are bit-identical either way (see exec.Tier).
	Tier exec.Tier
}

// Run executes an image on a machine configuration.
func Run(img *link.Image, cfg *machine.Config, opts RunOptions) (*exec.Result, error) {
	return exec.Run(img.Res, cfg, exec.Options{
		Policy: opts.Policy, Quantum: opts.Quantum, Rec: opts.Recorder,
		RedistSerial: opts.RedistSerial, MaxQuanta: opts.MaxQuanta, Tier: opts.Tier})
}

// Array extracts an array's logical contents from a finished run. Unit is
// the (possibly mangled) instance name; for main-program arrays pass the
// program name.
func Array(res *exec.Result, unit, name string) ([]float64, error) {
	st := res.RT.ArrayByName(unit, name)
	if st == nil {
		return nil, fmt.Errorf("core: array %s.%s not found", unit, name)
	}
	return res.RT.Gather(st), nil
}

// ArrayState exposes the runtime state of an array (tests, examples).
func ArrayState(res *exec.Result, unit, name string) *rtl.ArrayState {
	return res.RT.ArrayByName(unit, name)
}
