package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// lu-sweep: `dsmbench -exp table2` followed by `-exp fig4` at the full
// scale, with the processor list trimmed to 1, 4, 16 so several sweeps fit
// one run. A pass is one whole sweep (both calls); the sweep's input does
// not depend on the seed.
//
// The sweep runs with a host budget of one worker, as on a one-CPU host.
// With both cores on point fan-out, two points ran at once and contended
// for the host: pass walls within one run swung between 6.5 and 10.2 s and
// the first sweep of a process ran 1.3-1.5x slower than the rest, so run
// medians spread by a quarter. One point at a time, pass walls stay within
// about a tenth of each other, the first sweep included.

// luBudget is the hostpool budget the sweep runs under.
const luBudget = 1

func luSizesFor(scale string) experiments.Sizes {
	s := experiments.Full()
	s.Procs = []int{1, 4, 16}
	if scale == "tiny" {
		s.LUN = 10
		s.Procs = []int{1, 4}
	}
	return s
}

// luSweepOnce runs the two experiments and returns their rows in order.
func luSweepOnce(s experiments.Sizes) ([]experiments.Row, error) {
	t2, err := experiments.Table2(s)
	if err != nil {
		return nil, err
	}
	f4, err := experiments.Fig4(s)
	if err != nil {
		return nil, err
	}
	return append(t2, f4...), nil
}

func runLUSweep(c *config) (*result, error) {
	prev := hostpool.SetBudget(luBudget)
	defer hostpool.SetBudget(prev)
	r := newResult()
	r.labels["sweep_hostpool_budget"] = luBudget
	// Set-up generates the LU source of every variant the sweep runs; the
	// replay of the traced run builds from them.
	s := luSizesFor(c.scale)
	points := luPoints(s)
	var srcs map[workloads.Variant]string
	setup, err := timeSetup(5, func() error {
		srcs = map[workloads.Variant]string{}
		for _, pt := range points {
			if srcs[pt.variant] == "" {
				srcs[pt.variant] = workloads.LU(s.LUN, s.LUIters, pt.variant)
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = setup
	pins := c.exp.LUSweep[c.scale]

	// sweep runs one pass, under spans when tr is non-nil, and checks
	// every row against its pin.
	sweep := func(tr *tracer, op int) ([]experiments.Row, time.Duration) {
		t0 := time.Now()
		root := tr.begin("lu-sweep.pass", op, 0)
		var rows []experiments.Row
		var err error
		for _, call := range []struct {
			name string
			fn   func(experiments.Sizes) ([]experiments.Row, error)
		}{{"experiments.Table2", experiments.Table2}, {"experiments.Fig4", experiments.Fig4}} {
			id := tr.begin(call.name, op, root)
			var got []experiments.Row
			got, err = call.fn(s)
			tr.end(id, "")
			for _, row := range got {
				tr.add("experiments.point", op, id, time.Duration(row.WallMS*float64(time.Millisecond)))
			}
			rows = append(rows, got...)
			if err != nil {
				break
			}
		}
		tr.end(root, "")
		wall := time.Since(t0)
		r.attempted += len(pins)
		if err != nil {
			r.fail(c, len(pins), "lu-sweep: %v", err)
			return nil, wall
		}
		if len(rows) != len(pins) {
			r.fail(c, len(pins), "lu-sweep: %d rows, %d pinned", len(rows), len(pins))
			return nil, wall
		}
		for i, row := range rows {
			if got := pinRow(row); got != pins[i] {
				r.fail(c, 1, "lu-sweep row %d: simulated output %+v, pinned %+v", i, got, pins[i])
			}
		}
		return rows, wall
	}

	window := c.seconds
	if c.trace {
		window /= 2
	}
	var rowWalls, passWalls []float64
	var instrs int64
	var untraced time.Duration
	a0 := allocMB()
	// A sweep takes over ten seconds, so the next one starts only while it
	// should end less than half a sweep past the window: a run then lasts
	// about the window, not up to a whole sweep more.
	for len(passWalls) == 0 || untraced.Seconds()+quantile(passWalls, 0.5)/2 < window {
		rows, wall := sweep(nil, 0)
		untraced += wall
		passWalls = append(passWalls, wall.Seconds())
		if rows == nil {
			for range pins {
				rowWalls = append(rowWalls, math.Inf(1))
			}
		}
		for _, row := range rows {
			rowWalls = append(rowWalls, row.WallMS/1000)
			instrs += row.Instrs
		}
	}
	passes := len(passWalls)
	if !c.trace {
		r.metrics["peak_rss_mb"] = peakRSSMB()
		r.labels["job_samples"], r.labels["pass_walls_s"] = len(rowWalls), passWalls
		// Each point at its median over the sweeps; run_wall_s is their
		// mean, which does not jump between neighbouring points as the
		// median point does. The rates are one sweep's work over the
		// median sweep wall, so one slow sweep does not move them.
		pts := pointMedians(rowWalls, len(pins))
		sweepWall := quantile(passWalls, 0.5)
		var sum float64
		for _, p := range pts {
			sum += p
		}
		r.metrics["run_wall_s"] = sum / float64(len(pts))
		r.metrics["sweep_wall_s"] = sweepWall
		r.metrics["job_p50_ms"] = quantile(pts, 0.5) * 1000
		r.metrics["job_p90_ms"] = quantile(pts, 0.9) * 1000
		r.metrics["jobs_per_s"] = float64(len(pins)) / sweepWall
		r.metrics["sim_minstr_per_s"] = float64(instrs) / float64(passes) / 1e6 / sweepWall
		eng, tier, err := resolvedDefaults()
		if err != nil {
			return nil, err
		}
		r.labels["engine_used"], r.labels["tier_used"] = eng, tier
		return r, nil
	}
	r.metrics["go.alloc_mb_per_op"] = (allocMB() - a0) / float64(len(rowWalls))

	// Traced passes: the same sweeps under spans and a CPU profile.
	tr := newTracer()
	prof := &profiler{workload: c.workload, dir: c.out}
	var traced time.Duration
	var tracedRows []float64
	var rowSum float64
	hostpool.ResetPeak()
	err = prof.run(func() error {
		for p := 1; p <= passes; p++ {
			rows, wall := sweep(tr, p)
			traced += wall
			for _, row := range rows {
				tracedRows = append(tracedRows, row.WallMS)
				rowSum += row.WallMS
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.metrics["hostpool.peak"] = float64(hostpool.Peak())
	r.metrics["experiments.point_ms_p50"] = quantile(tracedRows, 0.5)
	r.metrics["experiments.point_ms_max"] = quantile(tracedRows, 1)
	r.metrics["experiments.fanout_eff"] = rowSum / (ms(traced) * float64(hostpool.Budget()))
	cs, err := prof.shares()
	if err != nil {
		return nil, err
	}
	putShares(r, cs)
	putOverhead(r, untraced, traced)

	// Replay: one sweep's builds and runs (the serial baseline included)
	// through the staged layer calls, for the per-layer times and the page
	// counts the rows do not carry. Every replayed point must match its
	// pinned row.
	rep, err := luReplay(c, r, tr, s, srcs, points, pins, passes+1)
	if err != nil {
		return nil, err
	}
	putLayerTimes(r, tr, 1, rep.instrs)
	putSimulated(r, rep.instrs, rep.pages, rep.mem, cs, passes)
	r.labels["engine_used"], r.labels["tier_used"] = rep.engines, rep.tiers
	r.spans = tr
	return r, nil
}

// luPoint is one build+run of the sweep: row is its index among the rows,
// or -1 for the Fig 4 serial baseline, which yields no row.
type luPoint struct {
	row     int
	exp     string
	label   string
	variant workloads.Variant
	opt     xform.Options
	policy  ospage.Policy
	procs   int
}

// luPoints lists the sweep's points in the order Table2 and Fig4 run them
// (the figure variants and Table 2 steps as internal/experiments defines
// them; a drift shows as a replay mismatch).
func luPoints(s experiments.Sizes) []luPoint {
	var pts []luPoint
	rows := 0
	add := func(p luPoint) {
		if p.row >= 0 {
			p.row = rows
			rows++
		}
		pts = append(pts, p)
	}
	ft := ospage.FirstTouch
	for _, st := range []struct {
		label string
		v     workloads.Variant
		opt   xform.Options
	}{
		{"reshape, no optimizations", workloads.Reshaped, xform.O0()},
		{"reshape, tile and peel", workloads.Reshaped, xform.O1()},
		{"reshape, tile and peel, hoist", workloads.Reshaped, xform.O2()},
		{"reshape, all optimizations", workloads.Reshaped, xform.O3()},
		{"original without reshaping", workloads.Plain, xform.O3()},
	} {
		add(luPoint{exp: "table2", label: st.label, variant: st.v, opt: st.opt, policy: ft, procs: 1})
	}
	add(luPoint{row: -1, exp: "fig4", label: "serial baseline", variant: workloads.Serial, opt: xform.O3(), policy: ft, procs: 1})
	for _, fv := range []struct {
		label  string
		v      workloads.Variant
		policy ospage.Policy
	}{
		{"first-touch", workloads.Plain, ft},
		{"round-robin", workloads.Plain, ospage.RoundRobin},
		{"regular", workloads.Regular, ft},
		{"reshaped", workloads.Reshaped, ft},
	} {
		for _, p := range s.Procs {
			add(luPoint{exp: "fig4", label: fv.label, variant: fv.v, opt: xform.O3(), policy: fv.policy, procs: p})
		}
	}
	return pts
}

// luMachine is the LU machine of internal/experiments: node memory is the
// data size divided by LUNodeFrac, so the data spills beyond one node.
func luMachine(s experiments.Sizes, p int) *machine.Config {
	cfg := machine.Scaled(p)
	data := int64(2) * 5 * int64(s.LUN) * int64(s.LUN) * int64(s.LUN) * 8
	node := int(float64(data) / s.LUNodeFrac)
	if node < 4*cfg.PageBytes {
		node = 4 * cfg.PageBytes
	}
	cfg.NodeMemBytes = node
	return cfg
}

type luReplayed struct {
	instrs  int64
	mem     memsim.ProcStats
	pages   ospage.Stats
	engines map[string]int
	tiers   map[string]int
}

// luReplay builds each distinct (variant, level) once, as the sweep's
// BuildCache does, and runs every point over the host budget, all through
// the staged layer calls under spans of operation op.
func luReplay(c *config, r *result, tr *tracer, s experiments.Sizes, srcs map[workloads.Variant]string,
	points []luPoint, pins []rowPin, op int) (*luReplayed, error) {
	root := tr.begin("lu-sweep.replay", op, 0)
	defer tr.end(root, "")
	type buildKey struct {
		v   workloads.Variant
		opt xform.Options
	}
	images := map[buildKey]*link.Image{}
	for _, pt := range points {
		k := buildKey{pt.variant, pt.opt}
		if images[k] != nil {
			continue
		}
		img, err := stagedBuild(tr, op, root, "bench.f", srcs[pt.variant], pt.opt, false)
		if err != nil {
			return nil, fmt.Errorf("lu replay build: %w", err)
		}
		images[k] = img
	}
	rep := &luReplayed{engines: map[string]int{}, tiers: map[string]int{}}
	var mu sync.Mutex
	err := experiments.ForEach(0, len(points), func(i int) error {
		pt := points[i]
		res, err := stagedRun(tr, op, root, images[buildKey{pt.variant, pt.opt}].Clone(), luMachine(s, pt.procs), pt.policy, nil)
		if err != nil {
			return fmt.Errorf("lu replay %s %s P=%d: %w", pt.exp, pt.label, pt.procs, err)
		}
		mu.Lock()
		defer mu.Unlock()
		rep.instrs += res.Instrs
		rep.mem.Add(res.Total)
		rep.pages.Spilled += res.Pages.Spilled
		rep.pages.Placed += res.Pages.Placed
		rep.engines[res.EngineUsed.String()]++
		rep.tiers[res.TierUsed.String()]++
		if pt.row < 0 {
			return nil
		}
		got := rowPin{Exp: pt.exp, Variant: pt.label, P: pt.procs, Cycles: measured(res),
			Instrs: res.Instrs, HwDiv: res.HwDiv, SoftDiv: res.SoftDiv,
			L2Miss: res.Total.L2Miss, Remote: res.Total.L2MissRemote, Stats: res.Total}
		r.attempted++
		if pt.row >= len(pins) || got != pins[pt.row] {
			r.fail(c, 1, "lu replay %s %s P=%d: staged run does not match the pinned row", pt.exp, pt.label, pt.procs)
		}
		return nil
	})
	return rep, err
}

// measured is the region-of-interest time the experiments report.
func measured(res *exec.Result) int64 {
	if res.TimerCycles > 0 {
		return res.TimerCycles
	}
	return res.Cycles
}

// resolvedDefaults reports the engine and tier the default options resolve
// to for a multi-processor run on this host, from a tiny LU at P=2.
func resolvedDefaults() (string, string, error) {
	img, err := core.New().Build(map[string]string{"probe.f": workloads.LU(4, 1, workloads.Plain)})
	if err != nil {
		return "", "", err
	}
	res, err := core.Run(img, machine.Scaled(2), core.RunOptions{})
	if err != nil {
		return "", "", err
	}
	return res.EngineUsed.String(), res.TierUsed.String(), nil
}
