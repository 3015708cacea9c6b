// Package rtl is the runtime library (paper §4): it loads a compiled image
// onto the simulated machine, performs the program-start-up work the paper
// describes — reading the distribution annotations, computing the processor
// grid for the actual processor count ("the same executable [can] run with
// different number of processors", §3.2), making the page-placement OS
// calls for regular distributions, and building the processor-array storage
// for reshaped distributions from per-processor pools (§4.3) — and services
// the runtime calls: dsm_barrier, redistribute (§3.3), the portion
// intrinsics (§3.2.1), and the argument-checking hash table of §6.
package rtl

import (
	"fmt"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/codegen"
	"dsmdist/internal/dist"
	"dsmdist/internal/ir"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// CheckError is a §6 runtime-check failure.
type CheckError struct{ Msg string }

func (e *CheckError) Error() string { return "runtime check: " + e.Msg }

// ArrayState is the runtime instantiation of one distributed (or static)
// array.
type ArrayState struct {
	Plan *codegen.ArrayPlan
	// Base is the data base address (static and regular arrays; 0 for
	// reshaped).
	Base int64
	// DescAddr is the descriptor address (0 when undistributed).
	DescAddr int64

	Grid dist.Grid
	Maps []dist.DimMap

	// PortionBytes is the uniform per-processor portion size for
	// reshaped arrays.
	PortionBytes int64
	Portions     []int64 // base address per linear grid processor
}

// TotalElems multiplies the extents.
func (a *ArrayState) TotalElems() int64 { return elems(a.Plan.Dims) }

func elems(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// Runtime is the loaded program plus runtime state; it implements
// bytecode.Runtime.
type Runtime struct {
	Cfg    *machine.Config
	Sys    *memsim.System
	Pages  *ospage.Manager
	Prog   *bytecode.Program
	Res    *codegen.Result
	Arrays []*ArrayState

	// per-processor stack segments
	StackBase []int64
	StackEnd  []int64

	// byDesc resolves descriptor addresses to arrays (portion
	// intrinsics and checks).
	byDesc map[int64]*ArrayState

	// §6 hash table: actual-argument records keyed by passed address,
	// plus a push log so pops can unwind the newest entries.
	argTable map[int64][]pushedArg
	pushLog  []int64

	// RedistPages counts pages moved by redistribute calls.
	RedistPages int64

	// RedistSerial selects the legacy serial redistribute cost model (a
	// page walk charged to the calling processor only) instead of the
	// scheduled collective — the -redist=serial A/B escape hatch.
	RedistSerial bool

	// Region-of-interest timer (dsm_timer_start/stop). The timer is
	// pinned to the processor that started it (TimerProc), so a stop
	// executed by a different processor reads the starter's clock and
	// cannot produce skewed or negative spans.
	TimerStart   int64
	TimerCycles  int64
	TimerRunning bool
	TimerProc    int

	// Dynamic-scheduling cursor for the region currently executing
	// (schedtype(dynamic) and schedtype(gss)); the executor resets it at
	// each region fork.
	DynCursor int64

	// Rec is the observability sink shared with memsim/ospage/exec (nil
	// when tracing is off).
	Rec *obs.Recorder
}

// ResetDynamic clears the dynamic-scheduling cursor; the executor calls it
// when dispatching a region.
func (rt *Runtime) ResetDynamic() { rt.DynCursor = 0 }

type pushedArg struct {
	info  *codegen.CheckInfo
	arr   *ArrayState
	bytes int64 // resolved portion size for CheckPortion
}

// StackBytes is the per-processor stack segment size.
const StackBytes = 256 << 10

// pool is one processor's reshaped-portion pool (§4.3): the unused tail
// [cur, end) of the latest chunk carved for it.
type pool struct {
	cur, end int64
}

// poolChunk is one pool growth: n bytes at base, reserved for processor p
// and placed on p's node.
type poolChunk struct {
	p       int
	base, n int64
}

// Load materializes the compiled image: allocates static data, builds
// descriptors and portion pools, and places pages for regular
// distributions.
func Load(res *codegen.Result, cfg *machine.Config, policy ospage.Policy) (*Runtime, error) {
	return LoadObs(res, cfg, policy, nil)
}

// LoadObs is Load with an observability sink: the recorder is attached to
// the page manager and memory system before any placement happens, so
// load-time events (explicit distribution placement, pool growth) are
// captured, and the runtime registers every array's address ranges for
// miss attribution.
//
// Loading runs in three phases so the memory system's backing tables are
// allocated once, at their final size: layout reserves every address
// (static symbols, processor stacks, reshaped portions), one Grow sizes
// the tables to brk, and fill writes descriptors and portion tables and
// places pages. Fill places in the order pages were always claimed —
// stacks, then each array in plan order — because a page's first claim
// decides its node.
func LoadObs(res *codegen.Result, cfg *machine.Config, policy ospage.Policy, rec *obs.Recorder) (*Runtime, error) {
	pages := ospage.New(cfg)
	pages.SetPolicy(policy)
	sys, err := memsim.New(cfg, pages)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		pages.SetRecorder(rec)
		sys.SetRecorder(rec)
	}
	rt := &Runtime{
		Cfg: cfg, Sys: sys, Pages: pages, Prog: res.Prog, Res: res,
		Rec:      rec,
		byDesc:   map[int64]*ArrayState{},
		argTable: map[int64][]pushedArg{},
	}

	// Layout: static data symbols, per-processor stacks, then arrays.
	for _, s := range res.Prog.Syms {
		if s.Bytes <= 0 {
			s.Bytes = 8
		}
		s.Addr = sys.Reserve(s.Bytes, s.Align)
	}
	if err := res.Prog.Patch(); err != nil {
		return nil, err
	}
	pb := int64(cfg.PageBytes)
	for p := 0; p < cfg.NProcs; p++ {
		base := sys.Reserve(StackBytes, pb)
		rt.StackBase = append(rt.StackBase, base)
		rt.StackEnd = append(rt.StackEnd, base+StackBytes)
	}
	pools := make([]pool, cfg.NProcs)
	grown := make([][]poolChunk, len(res.Arrays))
	for i, plan := range res.Arrays {
		st, chunks, err := rt.layoutArray(plan, pools)
		if err != nil {
			return nil, err
		}
		grown[i] = chunks
		rt.Arrays = append(rt.Arrays, st)
		if st.DescAddr != 0 {
			rt.byDesc[st.DescAddr] = st
		}
	}

	sys.Grow()

	// Fill: stacks placed locally, then each array.
	for p := range rt.StackBase {
		pages.Place(rt.StackBase[p], rt.StackEnd[p], cfg.NodeOf(p), false)
	}
	for i, st := range rt.Arrays {
		rt.fillArray(st, grown[i])
	}
	if rec != nil {
		for _, st := range rt.Arrays {
			rt.registerArrayObs(rec, st)
		}
	}
	return rt, nil
}

// registerArrayObs (re-)registers one array with the recorder: its address
// ranges for miss attribution plus, for distributed arrays, the
// distribution text and page-ownership map. redistribute calls it again so
// post-redistribute events attribute against the new ownership.
func (rt *Runtime) registerArrayObs(rec *obs.Recorder, st *ArrayState) {
	name := st.Plan.Unit + "." + st.Plan.Name
	rec.RegisterArray(name, st.AddrRanges())
	if st.Plan.Spec != nil {
		rec.SetArrayOwnership(name, st.Plan.Spec.String(), st.PageOwners(rt.Cfg))
	}
}

// PageOwners computes the node the current distribution assigns to each
// virtual page of the array. Regular arrays follow the §4.2 placement rule
// (ascending processor order, so a boundary page shared by several
// portions belongs to its last requester); reshaped arrays own the pool
// pages their portions occupy.
func (st *ArrayState) PageOwners(cfg *machine.Config) map[int64]int {
	if st.Plan.Spec == nil {
		return nil
	}
	pb := int64(cfg.PageBytes)
	owners := map[int64]int{}
	if st.Portions != nil {
		for p, base := range st.Portions {
			node := cfg.NodeOf(p)
			for vp := base / pb; vp*pb < base+st.PortionBytes; vp++ {
				owners[vp] = node
			}
		}
		return owners
	}
	for p := 0; p < st.Grid.Used; p++ {
		node := cfg.NodeOf(p)
		st.ownedRuns(p, func(lo, hi int64) {
			for vp := lo / pb; vp*pb < hi; vp++ {
				owners[vp] = node
			}
		})
	}
	return owners
}

// AttachRecorder connects an observability sink to an already-loaded
// runtime (load-time placement events have passed, but arrays are
// registered for attribution and all further events flow).
func (rt *Runtime) AttachRecorder(rec *obs.Recorder) {
	rt.Rec = rec
	rt.Pages.SetRecorder(rec)
	rt.Sys.SetRecorder(rec)
	if rec != nil {
		for _, st := range rt.Arrays {
			rt.registerArrayObs(rec, st)
		}
	}
}

// AddrRanges returns the byte ranges backing the array: the base range for
// static and regular arrays, one range per portion for reshaped arrays.
func (st *ArrayState) AddrRanges() [][2]int64 {
	if st.Portions != nil {
		out := make([][2]int64, 0, len(st.Portions))
		for _, base := range st.Portions {
			out = append(out, [2]int64{base, base + st.PortionBytes})
		}
		return out
	}
	if st.Base == 0 {
		return nil
	}
	return [][2]int64{{st.Base, st.Base + st.TotalElems()*8}}
}

// layoutArray builds one array's runtime state and assigns its addresses:
// the grid and dimension maps, the descriptor, and for a reshaped array
// its portions, carved from the pools. It returns the pool chunks the
// portions grew; nothing is written or placed until fillArray.
func (rt *Runtime) layoutArray(plan *codegen.ArrayPlan, pools []pool) (*ArrayState, []poolChunk, error) {
	st := &ArrayState{Plan: plan}
	if plan.DataSym >= 0 {
		st.Base = rt.Prog.Syms[plan.DataSym].Addr + plan.DataOffset
	}
	if plan.Spec == nil {
		return st, nil, nil
	}

	grid, err := dist.NewGrid(*plan.Spec, rt.Cfg.NProcs)
	if err != nil {
		return nil, nil, fmt.Errorf("rtl: %s.%s: %w", plan.Unit, plan.Name, err)
	}
	st.Grid = grid
	intDims := make([]int, len(plan.Dims))
	for i, d := range plan.Dims {
		intDims[i] = int(d)
	}
	st.Maps, err = grid.Maps(intDims)
	if err != nil {
		return nil, nil, err
	}
	st.DescAddr = rt.Prog.Syms[plan.DescSym].Addr
	if !plan.Spec.Reshape {
		return st, nil, nil
	}
	return st, rt.allocPortions(st, pools), nil
}

// fillArray writes a laid-out array into simulated memory and places its
// pages: the descriptor, then for a reshaped array the pool chunks it grew
// and its portion table, for a regular one the §4.2 placement.
func (rt *Runtime) fillArray(st *ArrayState, grown []poolChunk) {
	if st.Plan.Spec == nil {
		return
	}
	rt.writeDescriptor(st)
	if !st.Plan.Spec.Reshape {
		rt.placeRegular(st, false)
		return
	}
	for _, c := range grown {
		node := rt.Cfg.NodeOf(c.p)
		rt.Pages.Place(c.base, c.base+c.n, node, false)
		if rt.Rec != nil {
			rt.Rec.PoolAlloc(c.p, node, c.n)
		}
	}
	tbl := st.DescAddr + codegen.DescTableOff(len(st.Maps))
	for p, addr := range st.Portions {
		rt.Sys.Poke(tbl+int64(p)*8, uint64(addr))
	}
}

// writeDescriptor fills the N/P/B/K/ML fields for every dimension.
func (rt *Runtime) writeDescriptor(st *ArrayState) {
	for d, m := range st.Maps {
		base := st.DescAddr + int64(d*ir.DescFields*8)
		k := int64(1)
		if m.Kind == dist.BlockCyclic {
			k = int64(m.Chunk)
		}
		b := int64(m.B)
		if b == 0 {
			b = int64(m.N)
		}
		rt.Sys.Poke(base+int64(ir.FieldN)*8, uint64(m.N))
		rt.Sys.Poke(base+int64(ir.FieldP)*8, uint64(m.P))
		rt.Sys.Poke(base+int64(ir.FieldB)*8, uint64(b))
		rt.Sys.Poke(base+int64(ir.FieldK)*8, uint64(k))
		rt.Sys.Poke(base+int64(ir.FieldML)*8, uint64(m.MaxPortionLen()))
	}
}

// allocPortions lays out the processor-array representation of a reshaped
// array (§4.3, Figure 3): each linear grid processor's portion is carved
// from that processor's local pool — so portions need no padding to page
// boundaries. It returns the pool chunks reserved on the way, in order.
func (rt *Runtime) allocPortions(st *ArrayState, pools []pool) []poolChunk {
	per := int64(8)
	for _, m := range st.Maps {
		per *= int64(m.MaxPortionLen())
	}
	st.PortionBytes = per
	st.Portions = make([]int64, st.Grid.Used)
	var grown []poolChunk
	for p := 0; p < st.Grid.Used; p++ {
		st.Portions[p] = rt.poolAlloc(&pools[p], p, per, &grown)
	}
	return grown
}

// poolAlloc bump-allocates from processor p's local pool, growing it by a
// reserved page-multiple chunk (at least 16 pages) when it runs out; each
// growth is appended to grown for fillArray to place on p's node.
func (rt *Runtime) poolAlloc(pl *pool, p int, n int64, grown *[]poolChunk) int64 {
	if pl.cur+n > pl.end {
		pb := int64(rt.Cfg.PageBytes)
		chunk := (n + pb - 1) / pb * pb
		if chunk < 16*pb {
			chunk = 16 * pb
		}
		base := rt.Sys.Reserve(chunk, pb)
		*grown = append(*grown, poolChunk{p: p, base: base, n: chunk})
		pl.cur, pl.end = base, base+chunk
	}
	a := pl.cur
	pl.cur += n
	return a
}

// ownedRuns invokes fn for every maximal contiguous byte run of the array
// owned by linear grid processor p, in ascending address order.
func (st *ArrayState) ownedRuns(p int, fn func(lo, hi int64)) {
	coord := st.Grid.Coord(p)
	// Leading contiguity: dimensions before the first distributed one
	// are fully owned, giving runLen elements per run.
	runLen := int64(1)
	first := len(st.Maps)
	for d, m := range st.Maps {
		if m.Distributed() && m.P > 1 {
			first = d
			break
		}
		runLen *= int64(m.N)
	}
	if first == len(st.Maps) {
		if p == 0 {
			fn(st.Base, st.Base+runLen*8)
		}
		return
	}
	// The first distributed dimension extends runs when its owned
	// ranges are contiguous.
	fm := st.Maps[first]
	fRanges := fm.OwnedRanges(coord[first])

	// Enumerate index combinations of the dimensions after `first` that
	// p owns; each combination plus one owned range of `first` is a
	// contiguous run of runLen-element columns.
	var walk func(d int, offset, stride int64)
	walk = func(d int, offset, stride int64) {
		if d >= len(st.Maps) {
			for _, r := range fRanges {
				lo := st.Base + (offset+int64(r.Lo)*runLen)*8
				hi := lo + int64(r.Hi-r.Lo)*runLen*8
				fn(lo, hi)
			}
			return
		}
		m := st.Maps[d]
		if !m.Distributed() || m.P == 1 {
			for i := 0; i < m.N; i++ {
				walk(d+1, offset+int64(i)*stride, stride*int64(m.N))
			}
			return
		}
		for _, r := range m.OwnedRanges(coord[d]) {
			for i := r.Lo; i < r.Hi; i++ {
				walk(d+1, offset+int64(i)*stride, stride*int64(m.N))
			}
		}
	}
	walk(first+1, 0, runLen*int64(fm.N))
}

// placeRegular performs the §4.2 page placement for a regular
// distribution: each processor's owned runs are placed on its node, in
// ascending processor order so that a boundary page shared by several
// portions lands with the highest-numbered (i.e. last-requesting) owner,
// matching the paper's observed behaviour (§8.3). With migrate, existing
// mappings move (the redistribute path) and caches/TLBs are invalidated.
func (rt *Runtime) placeRegular(st *ArrayState, migrate bool) int {
	moved := 0
	pb := int64(rt.Cfg.PageBytes)
	for p := 0; p < st.Grid.Used; p++ {
		node := rt.Cfg.NodeOf(p)
		st.ownedRuns(p, func(lo, hi int64) {
			if migrate {
				// Invalidate caches and TLBs for pages that move.
				for vp := lo / pb; vp*pb < hi; vp++ {
					cur := rt.Pages.NodeOf(vp * pb)
					if cur >= 0 && cur != node {
						rt.Sys.MigratePage(vp)
						moved++
					}
				}
				rt.Pages.Place(lo, hi, node, true)
				return
			}
			rt.Pages.Place(lo, hi, node, false)
		})
	}
	return moved
}

// Traffic attributes L2 misses to one array's storage: its static range or
// its reshaped portions. The analysis mirrors what the paper does with the
// R10000 counters (§8): find which data structure a placement problem lives
// in.
func (rt *Runtime) Traffic(st *ArrayState) int64 {
	if st.Portions != nil {
		var n int64
		for _, base := range st.Portions {
			n += rt.Sys.PageMisses(base, base+st.PortionBytes)
		}
		return n
	}
	if st.Base == 0 {
		return 0
	}
	return rt.Sys.PageMisses(st.Base, st.Base+st.TotalElems()*8)
}

// ArrayByName finds an array state (tests, result extraction).
func (rt *Runtime) ArrayByName(unit, name string) *ArrayState {
	for _, a := range rt.Arrays {
		if a.Plan.Unit == unit && a.Plan.Name == name {
			return a
		}
	}
	return nil
}

// Gather copies the array's logical contents out of the simulation in
// column-major order, reassembling reshaped portions.
func (rt *Runtime) Gather(st *ArrayState) []float64 {
	n := st.TotalElems()
	out := make([]float64, n)
	if st.Plan.Spec == nil || !st.Plan.Spec.Reshape {
		for i := int64(0); i < n; i++ {
			out[i] = rt.Sys.PeekFloat(st.Base + i*8)
		}
		return out
	}
	// Reshaped: walk every element, computing its portion address.
	idx := make([]int, len(st.Maps))
	for i := int64(0); i < n; i++ {
		addr := rt.ElemAddr(st, idx)
		out[i] = rt.Sys.PeekFloat(addr)
		for d := 0; d < len(idx); d++ {
			idx[d]++
			if idx[d] < st.Maps[d].N {
				break
			}
			idx[d] = 0
		}
	}
	return out
}

// ElemAddr computes the simulated address of one element (zero-based
// subscripts) of any array.
func (rt *Runtime) ElemAddr(st *ArrayState, idx []int) int64 {
	if st.Plan.Spec == nil || !st.Plan.Spec.Reshape {
		off := int64(0)
		stride := int64(1)
		for d := range idx {
			off += int64(idx[d]) * stride
			stride *= st.Plan.Dims[d]
		}
		return st.Base + off*8
	}
	coord := make([]int, len(idx))
	off := int64(0)
	stride := int64(1)
	for d := range idx {
		m := st.Maps[d]
		coord[d] = m.Owner(idx[d])
		off += int64(m.Offset(idx[d])) * stride
		stride *= int64(m.MaxPortionLen())
	}
	p := st.Grid.Linear(coord)
	return st.Portions[p] + off*8
}

// Scatter writes logical contents into the simulated array (test setup).
func (rt *Runtime) Scatter(st *ArrayState, data []float64) {
	idx := make([]int, len(st.Maps))
	if st.Plan.Spec == nil || !st.Plan.Spec.Reshape {
		for i, v := range data {
			rt.Sys.PokeFloat(st.Base+int64(i)*8, v)
		}
		return
	}
	for _, v := range data {
		rt.Sys.PokeFloat(rt.ElemAddr(st, idx), v)
		for d := 0; d < len(idx); d++ {
			idx[d]++
			if idx[d] < st.Maps[d].N {
				break
			}
			idx[d] = 0
		}
	}
}
