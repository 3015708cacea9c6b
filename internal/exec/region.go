package exec

import (
	"fmt"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/rtl"
)

// cycleQuantum bounds how far (in cycles) one processor may run ahead of
// the others inside a region; it must stay small relative to the memsim
// bandwidth-window ring so contention is observed accurately.
const cycleQuantum = 4000

func errRegionBudget(limit int64) error {
	return fmt.Errorf("exec: region exceeded quantum budget of %d (raise with -max-quanta)", limit)
}

// runRegion executes one doacross region to completion and folds its
// threads' operation counters into acc.
//
// Fork: idle processors jump to the master's clock, everyone pays the
// dispatch cost, and one thread per processor runs the region function.
// The scheduler then always advances the runnable thread with the
// smallest clock, so simulated time advances roughly in lockstep and the
// node-bandwidth model sees a fair arrival order. When no thread is
// runnable, the explicit dsm_barrier rendezvous is released. Join is the
// implicit end-of-doacross barrier across all processors.
func runRegion(rt *rtl.Runtime, costs *bytecode.Costs, serial *bytecode.Thread,
	quantum int, maxQuanta int64, acc *Result) error {

	np := rt.Cfg.NProcs
	sys := rt.Sys
	rec := rt.Rec
	rt.ResetDynamic()

	t0 := sys.Clock(0)
	if rec != nil {
		fn := rt.Prog.Fns[serial.ParFn]
		rec.RegionBegin(fn.Name, fn.File, fn.Line, t0, np)
	}
	procs := make([]int, np)
	threads := make([]*bytecode.Thread, np)
	for p := 0; p < np; p++ {
		procs[p] = p
		if sys.Clock(p) < t0 {
			sys.SetClock(p, t0)
		}
		sys.AddCycles(p, int64(rt.Cfg.ForkCyc))

		args := make([]int64, len(serial.ParArgs))
		copy(args, serial.ParArgs)
		sp := rt.StackBase[p]
		if p == 0 {
			sp = serial.SP // above the serial frames
		}
		threads[p] = bytecode.NewThread(p, sys, rt.Prog, rt, costs, serial.ParFn, args, sp, rt.StackEnd[p])
		threads[p].UseCompiled(serial.CompiledTier())
	}

	done := make([]bool, np)
	atBarrier := make([]bool, np)
	remaining := np
	lastSel := -1
	var rounds int64
	for remaining > 0 {
		rounds++
		if rounds > maxQuanta {
			return errRegionBudget(maxQuanta)
		}
		sel := -1
		var selClock int64
		for p := 0; p < np; p++ {
			if done[p] || atBarrier[p] {
				continue
			}
			if c := sys.Clock(p); sel < 0 || c < selClock {
				sel, selClock = p, c
			}
		}
		if sel < 0 {
			// Every live thread has arrived at the explicit barrier.
			var waiting []int
			for p := 0; p < np; p++ {
				if atBarrier[p] {
					waiting = append(waiting, p)
					atBarrier[p] = false
				}
			}
			if len(waiting) == 0 {
				return fmt.Errorf("exec: region scheduler wedged")
			}
			sys.Barrier(waiting)
			continue
		}
		if rec != nil && sel != lastSel {
			rec.QuantumSwitch(sel)
			lastSel = sel
		}
		switch threads[sel].StepCycles(quantum, cycleQuantum) {
		case bytecode.Running:
		case bytecode.Done:
			if threads[sel].Err != nil {
				return fmt.Errorf("processor %d: %w", sel, threads[sel].Err)
			}
			done[sel] = true
			remaining--
		case bytecode.AtBarrier:
			atBarrier[sel] = true
		case bytecode.AtParCall:
			return fmt.Errorf("processor %d: nested doacross regions are not supported", sel)
		}
	}

	var ends []int64
	if rec != nil {
		ends = make([]int64, np)
		for p := 0; p < np; p++ {
			ends[p] = sys.Clock(p)
		}
	}
	sys.Barrier(procs)
	if rec != nil {
		rec.RegionEnd(ends, sys.Clock(0))
	}
	for _, th := range threads {
		acc.HwDiv += th.HwDiv
		acc.SoftDiv += th.SoftDiv
		acc.Instrs += th.Instrs
	}
	return nil
}
