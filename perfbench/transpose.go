package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// transpose-run: what `dsmrun -p 16` does with the §8.2 transpose, once
// reshaped and once plain — one core.Build + core.Run with default
// RunOptions per variant. A pass is the two runs; the seed picks which
// variant goes first.

var transposeVariants = []workloads.Variant{workloads.Reshaped, workloads.Plain}

type transposeSizes struct{ n, iters, procs int }

func transposeSizesFor(scale string) transposeSizes {
	if scale == "tiny" {
		return transposeSizes{n: 128, iters: 1, procs: 16}
	}
	f := experiments.Full()
	return transposeSizes{n: f.TransN, iters: f.TransIters, procs: 16}
}

// timedBuildRun times core.Build + core.Run with every default.
func timedBuildRun(src string, cfg *machine.Config) (*exec.Result, time.Duration, error) {
	t0 := time.Now()
	img, err := core.New().Build(map[string]string{"transp.f": src})
	if err != nil {
		return nil, time.Since(t0), err
	}
	res, err := core.Run(img, cfg, core.RunOptions{})
	return res, time.Since(t0), err
}

func runTranspose(c *config) (*result, error) {
	ts := transposeSizesFor(c.scale)
	order := append([]workloads.Variant(nil), transposeVariants...)
	if rand.New(rand.NewSource(c.seed)).Intn(2) == 1 {
		order[0], order[1] = order[1], order[0]
	}
	r := newResult()
	var srcs []string
	setup, err := timeSetup(5, func() error {
		srcs = srcs[:0]
		for _, v := range order {
			srcs = append(srcs, workloads.Transpose(ts.n, ts.iters, v))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = setup

	// check verifies one finished run against its pins and the closed
	// forms, returning its document bytes (nil when the run is wrong).
	check := func(v workloads.Variant, res *exec.Result) []byte {
		r.labels["engine_used"], r.labels["tier_used"] = res.EngineUsed.String(), res.TierUsed.String()
		key := c.scale + "/" + v.String()
		d, b, err := resultDoc(res.RT.Cfg, ospage.FirstTouch, res)
		if err != nil {
			r.fail(c, 1, "transpose %s: %v", key, err)
			return nil
		}
		if pin, ok := c.exp.Transpose[key]; !ok {
			r.fail(c, 1, "transpose %s: no pinned output", key)
			return nil
		} else if got := pinDoc(d, b); got != pin {
			r.fail(c, 1, "transpose %s: simulated output %+v, pinned %+v", key, got, pin)
			return nil
		}
		if err := checkTransposeArrays(res, ts.n); err != nil {
			r.fail(c, 1, "%s: %v", key, err)
			return nil
		}
		return b
	}

	// Untraced passes. In a traced run they take half the time and give
	// the reference wall and documents for the traced passes.
	window := c.seconds
	if c.trace {
		window /= 2
	}
	var jobWalls, passWalls []float64
	var instrs int64
	var untraced time.Duration
	docs := map[workloads.Variant][]byte{}
	a0 := allocMB()
	for untraced.Seconds() < window || len(passWalls) == 0 {
		var pass time.Duration
		for i, v := range order {
			r.attempted++
			res, wall, err := timedBuildRun(srcs[i], machine.Scaled(ts.procs))
			pass += wall
			if err != nil {
				r.fail(c, 1, "transpose %s: %v", v, err)
				jobWalls = append(jobWalls, math.Inf(1))
				continue
			}
			jobWalls = append(jobWalls, wall.Seconds())
			instrs += res.Instrs
			docs[v] = check(v, res)
		}
		untraced += pass
		passWalls = append(passWalls, pass.Seconds())
	}
	passes := len(passWalls)
	if !c.trace {
		r.metrics["peak_rss_mb"] = peakRSSMB()
		r.labels["job_samples"], r.labels["pass_walls_s"] = len(jobWalls), passWalls
		pts := pointMedians(jobWalls, len(order))
		r.metrics["run_wall_s"] = quantile(pts, 0.5)
		r.metrics["sweep_wall_s"] = quantile(passWalls, 0.5)
		r.metrics["job_p50_ms"] = quantile(pts, 0.5) * 1000
		r.metrics["job_p90_ms"] = quantile(pts, 0.9) * 1000
		r.metrics["jobs_per_s"] = float64(len(jobWalls)) / untraced.Seconds()
		r.metrics["sim_minstr_per_s"] = float64(instrs) / 1e6 / untraced.Seconds()
		return r, nil
	}
	r.metrics["go.alloc_mb_per_op"] = (allocMB() - a0) / float64(len(jobWalls))

	// Traced passes: the same runs through the staged layer calls core
	// makes, under spans and a CPU profile. Their documents must equal the
	// untraced ones byte for byte.
	tr := newTracer()
	prof := &profiler{workload: c.workload, dir: c.out}
	var traced time.Duration
	var tracedInstrs int64
	var firstPass memsim.ProcStats
	var firstPages ospage.Stats
	var firstInstrs int64
	err = prof.run(func() error {
		for p := 0; p < passes; p++ {
			for i, v := range order {
				op := p*len(order) + i + 1
				r.attempted++
				cfg := machine.Scaled(ts.procs)
				t0 := time.Now()
				root := tr.begin("transpose-run.op", op, 0)
				img, err := stagedBuild(tr, op, root, "transp.f", srcs[i], xform.O3(), true)
				var res *exec.Result
				if err == nil {
					res, err = stagedRun(tr, op, root, img, cfg, ospage.FirstTouch, nil)
				}
				tr.end(root, v.String())
				traced += time.Since(t0)
				if err != nil {
					r.fail(c, 1, "traced transpose %s: %v", v, err)
					continue
				}
				tracedInstrs += res.Instrs
				if p == 0 {
					firstPass.Add(res.Total)
					firstPages.Spilled += res.Pages.Spilled
					firstPages.Placed += res.Pages.Placed
					firstInstrs += res.Instrs
				}
				if b := check(v, res); b != nil && !bytes.Equal(b, docs[v]) {
					r.fail(c, 1, "traced transpose %s: ResultDoc differs from the untraced run", v)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cs, err := prof.shares()
	if err != nil {
		return nil, err
	}
	putShares(r, cs)
	putOverhead(r, untraced, traced)
	putLayerTimes(r, tr, float64(passes), tracedInstrs)
	putSimulated(r, firstInstrs, firstPages, firstPass, cs, passes)
	r.spans = tr
	return r, nil
}
