package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obj"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/rtl"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// expectedJSON holds the simulated outputs of every workload input, pinned
// with -pin. The simulator is deterministic, so any difference is a wrong
// output, whatever the host.
//
//go:embed expected.json
var expectedJSON []byte

// docPin is the pinned summary of one run's ResultDoc; SHA256 covers the
// whole canonical document (per-processor stats, pages, array traffic).
type docPin struct {
	Cycles      int64            `json:"cycles"`
	TimerCycles int64            `json:"timer_cycles"`
	Instrs      int64            `json:"instrs"`
	HwDiv       int64            `json:"hw_div"`
	SoftDiv     int64            `json:"soft_div"`
	Total       memsim.ProcStats `json:"total"`
	SHA256      string           `json:"sha256"`
}

// rowPin is one sweep row without its host wall time.
type rowPin struct {
	Exp     string           `json:"exp"`
	Variant string           `json:"variant"`
	P       int              `json:"p"`
	Cycles  int64            `json:"cycles"`
	Instrs  int64            `json:"instrs"`
	HwDiv   int64            `json:"hw_div"`
	SoftDiv int64            `json:"soft_div"`
	L2Miss  int64            `json:"l2_miss"`
	Remote  int64            `json:"l2_miss_remote"`
	Stats   memsim.ProcStats `json:"stats"`
}

type expected struct {
	// Transpose is keyed "<scale>/<variant>".
	Transpose map[string]docPin `json:"transpose_run"`
	// LUSweep is keyed by scale; rows in sweep order (Table 2, then Fig 4).
	LUSweep map[string][]rowPin `json:"lu_sweep"`
	// DSMD maps every operation of the dsmd-mix space (by
	// mixSpace.opPinKey) to the digest of its jobs' ResultDocs
	// (mixSpace.opDigest).
	DSMD map[string]string `json:"dsmd_mix"`
}

func loadExpected(data []byte) (*expected, error) {
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

func pinDoc(d *core.ResultDoc, docBytes []byte) docPin {
	return docPin{Cycles: d.Cycles, TimerCycles: d.TimerCycles, Instrs: d.Instrs,
		HwDiv: d.HwDiv, SoftDiv: d.SoftDiv, Total: d.Total, SHA256: sha(docBytes)}
}

func pinRow(r experiments.Row) rowPin {
	return rowPin{Exp: r.Exp, Variant: r.Variant, P: r.P, Cycles: r.Cycles, Instrs: r.Instrs,
		HwDiv: r.HwDiv, SoftDiv: r.SoftDiv, L2Miss: r.L2Miss, Remote: r.Remote, Stats: r.Stats}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// resultDoc renders a finished run as dsmrun -json and dsmd do.
func resultDoc(cfg *machine.Config, policy ospage.Policy, res *exec.Result) (*core.ResultDoc, []byte, error) {
	d := core.NewResultDoc(cfg, policy, res)
	b, err := d.Marshal()
	return d, b, err
}

// stagedBuild is core.Toolchain.Build unrolled into its layer calls
// (obj.Compile, then link.Link), each under a span.
func stagedBuild(tr *tracer, op, parent int, name, src string, opt xform.Options, checks bool) (*link.Image, error) {
	id := tr.begin("obj.Compile", op, parent)
	o, err := obj.Compile(name, src)
	tr.end(id, "")
	if err != nil {
		return nil, err
	}
	id = tr.begin("link.Link", op, parent)
	img, err := link.Link([]*obj.Object{o}, link.Config{Opt: opt, RuntimeChecks: checks})
	tr.end(id, "")
	return img, err
}

// stagedRun is core.Run unrolled into its layer calls (rtl.LoadObs, then
// exec.RunLoaded), each under a span; the image is consumed.
func stagedRun(tr *tracer, op, parent int, img *link.Image, cfg *machine.Config, policy ospage.Policy, rec *obs.Recorder) (*exec.Result, error) {
	id := tr.begin("rtl.LoadObs", op, parent)
	rt, err := rtl.LoadObs(img.Res, cfg, policy, rec)
	tr.end(id, "")
	if err != nil {
		return nil, err
	}
	id = tr.begin("exec.RunLoaded", op, parent)
	res, err := exec.RunLoaded(rt, exec.Options{Policy: policy, Rec: rec})
	tr.end(id, "")
	return res, err
}

// checkTransposeArrays compares a finished transpose's arrays with their
// closed forms: b(i,j) = i + j/2 from the serial initialization, and
// a(j,i) = b(i,j) after any number of transposes.
func checkTransposeArrays(res *exec.Result, n int) error {
	a, err := core.Array(res, "transp", "a")
	if err != nil {
		return err
	}
	b, err := core.Array(res, "transp", "b")
	if err != nil {
		return err
	}
	for j := 1; j <= n; j++ {
		for i := 1; i <= n; i++ {
			k := (i - 1) + (j-1)*n // column-major
			if want := float64(i) + float64(j)*0.5; b[k] != want {
				return fmt.Errorf("transpose: b(%d,%d) = %v, want %v", i, j, b[k], want)
			}
			if want := float64(j) + float64(i)*0.5; a[k] != want {
				return fmt.Errorf("transpose: a(%d,%d) = %v, want %v", i, j, a[k], want)
			}
		}
	}
	return nil
}

// checkConvolutionArrays compares a finished convolution's arrays with
// their closed forms: b(i,j) = i/4 + j/8, and a holds the five-point
// average of b in the interior and 0 on the border.
func checkConvolutionArrays(res *exec.Result, n int) error {
	a, err := core.Array(res, "conv", "a")
	if err != nil {
		return err
	}
	b, err := core.Array(res, "conv", "b")
	if err != nil {
		return err
	}
	bv := func(i, j int) float64 { return float64(i)*0.25 + float64(j)*0.125 }
	for j := 1; j <= n; j++ {
		for i := 1; i <= n; i++ {
			k := (i - 1) + (j-1)*n
			if b[k] != bv(i, j) {
				return fmt.Errorf("convolution: b(%d,%d) = %v, want %v", i, j, b[k], bv(i, j))
			}
			want := 0.0
			if i > 1 && i < n && j > 1 && j < n {
				want = (bv(i-1, j) + bv(i, j-1) + bv(i, j) + bv(i, j+1) + bv(i+1, j)) / 5
			}
			if math.Abs(a[k]-want) > 1e-12*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("convolution: a(%d,%d) = %v, want %v", i, j, a[k], want)
			}
		}
	}
	return nil
}

// writePins recomputes every pinned output and writes expected.json.
// Only a change that means to alter simulated results may re-pin.
func writePins(path string) error {
	e := &expected{Transpose: map[string]docPin{}, LUSweep: map[string][]rowPin{}, DSMD: map[string]string{}}
	for _, scale := range []string{"tiny", "full"} {
		ts := transposeSizesFor(scale)
		for _, v := range transposeVariants {
			res, _, err := timedBuildRun(workloads.Transpose(ts.n, ts.iters, v), machine.Scaled(ts.procs))
			if err != nil {
				return err
			}
			d, b, err := resultDoc(res.RT.Cfg, ospage.FirstTouch, res)
			if err != nil {
				return err
			}
			e.Transpose[scale+"/"+v.String()] = pinDoc(d, b)
		}
		rows, err := luSweepOnce(luSizesFor(scale))
		if err != nil {
			return err
		}
		for _, r := range rows {
			e.LUSweep[scale] = append(e.LUSweep[scale], pinRow(r))
		}
	}
	space, err := buildMixSpace()
	if err != nil {
		return err
	}
	refs := map[int]string{}
	var mu sync.Mutex
	err = experiments.ForEach(0, len(space.specs), func(i int) error {
		_, b, err := mixReference(nil, 0, space.specs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", space.specs[i].key(), err)
		}
		mu.Lock()
		refs[i] = sha(b)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	for o := range space.ops {
		e.DSMD[space.opPinKey(o)] = space.opDigest(o, refs)
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
