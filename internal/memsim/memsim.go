// Package memsim simulates the Origin-2000 memory system the paper's
// evaluation depends on (paper §2): per-processor two-way L1 and L2 caches,
// a 64-entry TLB, directory-based invalidation cache coherence maintained by
// the node hubs, NUMA latencies that grow with hypercube hop distance, and
// finite per-node memory bandwidth. Every effect quoted in §8 — local vs
// remote misses, cache-line and page-level false sharing, TLB-miss time,
// node bandwidth bottlenecks, and aggregate-cache superlinearity — emerges
// from this model rather than being scripted.
//
// Each logical processor has its own cycle clock; the executor interleaves
// processors in cycle-bounded quanta so the clocks stay loosely
// synchronized, and a windowed per-node bandwidth model (a node services a
// bounded number of cache lines per time window, independent of host
// scheduling order) turns concentrated page placements into queuing delay,
// as on the real machine.
//
// Caches are virtually indexed and tagged. The simulated OS always succeeds
// at page coloring for non-spilled pages (ospage), which on the real machine
// makes physical indexing behave like virtual indexing for contiguous
// virtual ranges; see DESIGN.md.
package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// MaxProcs is the largest processor count the directory sharer masks
// support.
const MaxProcs = 128

// ProcStats are the per-processor hardware-counter-style statistics (the
// paper reads the R10000 event counters; §8, [ZLT+96]). The JSON field
// names are a stable machine-readable interface (dsmbench -json); renaming
// one is a breaking change.
type ProcStats struct {
	Loads         int64 `json:"loads"`
	Stores        int64 `json:"stores"`
	L1Miss        int64 `json:"l1_miss"`
	L2Miss        int64 `json:"l2_miss"`
	L2MissLocal   int64 `json:"l2_miss_local"`
	L2MissRemote  int64 `json:"l2_miss_remote"`
	TLBMiss       int64 `json:"tlb_miss"`
	Upgrades      int64 `json:"upgrades"` // writes that had to invalidate other sharers
	InvSent       int64 `json:"inv_sent"`
	InvRecv       int64 `json:"inv_recv"`
	Interventions int64 `json:"interventions"` // misses serviced from another processor's cache
	Writebacks    int64 `json:"writebacks"`
	WaitCyc       int64 `json:"wait_cyc"` // cycles lost to node-memory queuing
	TLBCyc        int64 `json:"tlb_cyc"`  // cycles spent in TLB refill
	MemCyc        int64 `json:"mem_cyc"`  // cycles spent waiting on cache misses
}

// Add accumulates o into s.
func (s *ProcStats) Add(o ProcStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Miss += o.L1Miss
	s.L2Miss += o.L2Miss
	s.L2MissLocal += o.L2MissLocal
	s.L2MissRemote += o.L2MissRemote
	s.TLBMiss += o.TLBMiss
	s.Upgrades += o.Upgrades
	s.InvSent += o.InvSent
	s.InvRecv += o.InvRecv
	s.Interventions += o.Interventions
	s.Writebacks += o.Writebacks
	s.WaitCyc += o.WaitCyc
	s.TLBCyc += o.TLBCyc
	s.MemCyc += o.MemCyc
}

type dirEntry struct {
	mask0, mask1 uint64
	owner        int32 // processor holding the line Modified, or -1
}

func (d *dirEntry) has(p int) bool {
	if p < 64 {
		return d.mask0&(1<<uint(p)) != 0
	}
	return d.mask1&(1<<uint(p-64)) != 0
}

func (d *dirEntry) set(p int) {
	if p < 64 {
		d.mask0 |= 1 << uint(p)
	} else {
		d.mask1 |= 1 << uint(p-64)
	}
}

func (d *dirEntry) clear(p int) {
	if p < 64 {
		d.mask0 &^= 1 << uint(p)
	} else {
		d.mask1 &^= 1 << uint(p-64)
	}
}

func (d *dirEntry) othersThan(p int) bool {
	m0, m1 := d.mask0, d.mask1
	if p < 64 {
		m0 &^= 1 << uint(p)
	} else {
		m1 &^= 1 << uint(p-64)
	}
	return m0 != 0 || m1 != 0
}

type cache struct {
	// tags holds sets*assoc line tags (full line address, -1 invalid)
	// plus one trailing sentinel entry that stays -1 forever. The L0 memo
	// points empty entries at the sentinel so its guard is a single
	// always-in-bounds load-and-compare with no separate validity test.
	tags  []int64
	excl  []bool // line held exclusively (L2) / writable (L1)
	lru   []int8 // way last used, per set (assoc<=2 friendly round-robin)
	sets  int
	assoc int
	sent  int32 // index of the sentinel tags entry (== sets*assoc)
	shift uint
	mask  int64
}

func newCache(bytes, lineSize, assoc int) *cache {
	sets := bytes / (lineSize * assoc)
	if sets < 1 {
		sets = 1
	}
	c := &cache{
		tags:  make([]int64, sets*assoc+1),
		excl:  make([]bool, sets*assoc+1),
		lru:   make([]int8, sets),
		sets:  sets,
		assoc: assoc,
		sent:  int32(sets * assoc),
		shift: uint(bits.TrailingZeros(uint(lineSize))),
		mask:  int64(sets - 1),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// lookup returns the slot index of line (full line address) or -1.
func (c *cache) lookup(line int64) int {
	base := int(line&c.mask) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			c.lru[line&c.mask] = int8(w)
			return base + w
		}
	}
	return -1
}

// insert fills the line, returning the victim line address (or -1), its
// slot, and whether the victim was held exclusive.
func (c *cache) insert(line int64) (victim int64, slot int, victimExcl bool) {
	set := int(line & c.mask)
	base := set * c.assoc
	// Prefer an invalid way.
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == -1 {
			c.tags[base+w] = line
			c.excl[base+w] = false
			c.lru[set] = int8(w)
			return -1, base + w, false
		}
	}
	// Evict the not-most-recently-used way.
	w := int(c.lru[set]) + 1
	if w >= c.assoc {
		w = 0
	}
	victim = c.tags[base+w]
	victimExcl = c.excl[base+w]
	c.tags[base+w] = line
	c.excl[base+w] = false
	c.lru[set] = int8(w)
	return victim, base + w, victimExcl
}

// invalidate removes the line if present, reporting whether it was there.
func (c *cache) invalidate(line int64) bool {
	if s := c.lookup(line); s >= 0 {
		c.tags[s] = -1
		c.excl[s] = false
		return true
	}
	return false
}

// tlb models a FIFO-replacement TLB. Membership lives in slot, a flat
// table indexed by virtual page holding the entry's fifo index + 1 (0 =
// not present); virtual page counts are small (memory size / page size),
// so the table costs a few hundred KB per processor and turns the hot
// hit test into a single indexed load. The table grows on demand as the
// simulated heap grows.
type tlb struct {
	slot []uint16 // vpage -> fifo index + 1; 0 = absent
	fifo []int64
	pos  int
	// last memoizes the most recently accessed page so the common
	// same-page streak skips even the table load. Invariant: last != 0
	// implies last is resident (cleared at both deletion sites), so the
	// memo answer always matches what the table would say. Virtual page 0
	// is never mapped (null guard), so 0 doubles as "empty".
	last int64
	// noMemo disables the memo (System.SetL0 test hook).
	noMemo bool
}

func newTLB(n int) *tlb {
	if n+1 > int(^uint16(0)) {
		panic("memsim: TLB too large for uint16 fifo indices")
	}
	return &tlb{slot: make([]uint16, 1024), fifo: make([]int64, n)}
}

// access returns true on hit, inserting on miss (FIFO replacement). Virtual
// page 0 is never mapped (null guard), so a zero fifo slot means empty.
func (t *tlb) access(vpage int64) bool {
	if vpage == t.last && !t.noMemo {
		return true
	}
	if vpage < int64(len(t.slot)) && t.slot[vpage] != 0 {
		t.last = vpage
		return true
	}
	if old := t.fifo[t.pos]; old != 0 {
		t.slot[old] = 0 // resident pages are always inside the table
		if old == t.last {
			t.last = 0
		}
	}
	if vpage >= int64(len(t.slot)) {
		grown := make([]uint16, vpage+vpage/4+1)
		copy(grown, t.slot)
		t.slot = grown
	}
	t.fifo[t.pos] = vpage
	t.slot[vpage] = uint16(t.pos) + 1
	t.last = vpage
	t.pos++
	if t.pos == len(t.fifo) {
		t.pos = 0
	}
	return false
}

func (t *tlb) shootdown(vpage int64) {
	if vpage < int64(len(t.slot)) {
		if i := t.slot[vpage]; i != 0 {
			t.slot[vpage] = 0
			t.fifo[i-1] = 0
			if vpage == t.last {
				t.last = 0
			}
		}
	}
}

type proc struct {
	clock int64
	l1    *cache
	l2    *cache
	tlb   *tlb
	node  int
	stats ProcStats

	// The "L0" memo: a small direct-mapped table of recently hit or
	// filled L1 slots, indexed by the low bits of the line number. A
	// repeat access to a memoized line revalidates the entry with a
	// single tag compare — l1.tags[l0Slot[m]] == line — and skips the
	// full Access walk. The compare alone proves the hit: a slot only
	// ever holds lines of its own set, so a matching tag means the line
	// is resident at that slot, and since sets partition slots, the line
	// the entry was written for shares the set, making the cached way
	// valid too. Empty entries point at the cache's sentinel tag (-1),
	// which no real line address equals. Invalidations and evictions
	// overwrite tags, so stale entries self-detect. The memo is purely a
	// host-side shortcut — see the bit-identical contract on LoadWord
	// and TestL0FastPathBitIdentical. Multiple entries matter because
	// hot loop bodies interleave accesses to several unrelated lines
	// (descriptor, source, destination); a single entry ping-pongs and
	// never hits.
	l0Slot [l0Ways]int32
	l0Way  [l0Ways]int8
	// l1Hit is the per-proc copy of Config.L1HitCyc, and noMemo the
	// per-proc SetL0 state; both keep the inlined LoadWord/StoreWord
	// fast path free of System-level indirections. With noMemo set the
	// memo is never written, so every entry stays on the sentinel and
	// the fast path never matches.
	l1Hit  int64
	noMemo bool
}

// l0Ways sizes the per-processor L0 memo table (direct-mapped on the low
// bits of the L1 line number); see proc.l0Slot.
const (
	l0Ways = 8
	l0Mask = int64(l0Ways - 1)
)

// System is the shared memory system for one simulated run.
type System struct {
	Cfg   *machine.Config
	Pages *ospage.Manager

	mem   []uint64 // backing store, 8-byte words
	brk   int64    // bytes allocated
	procs []*proc

	dir     []dirEntry
	l2Shift uint
	l1Per2  int // L1 lines per L2 line

	// pageMiss counts L2 misses per virtual page (array-traffic
	// attribution, in the spirit of the paper's hardware-counter
	// analysis).
	pageMiss []int64

	// Node-memory bandwidth model: each node can service a bounded
	// number of cache lines per time window. Windows make the model
	// independent of thread scheduling order — a request at simulated
	// time t sees the same queue no matter when it is executed by the
	// host.
	bw       []nodeBW
	bwWindow int64 // window length in cycles
	bwCap    int32 // lines serviceable per window

	// rec, when non-nil, receives observability events. Every hook is
	// nil-guarded and placed off the arithmetic paths, so a run without
	// a recorder is cycle-for-cycle identical.
	rec *obs.Recorder
}

// SetL0 enables or disables the host-side access fast paths (the per-
// processor L0 line memo and the TLB last-page memo). They are on by
// default; disabling them must not change any simulated cycle or counter —
// the toggle exists so tests can prove that.
func (s *System) SetL0(enabled bool) {
	for _, pr := range s.procs {
		pr.noMemo = !enabled
		for i := range pr.l0Slot {
			pr.l0Slot[i] = pr.l1.sent
		}
		pr.tlb.noMemo = !enabled
	}
}

// SetRecorder attaches (or detaches, with nil) the observability sink.
func (s *System) SetRecorder(r *obs.Recorder) { s.rec = r }

// bwRing is the number of windows tracked per node; requests pushed more
// than bwRing windows into the future accumulate wait in bulk.
const bwRing = 64

type nodeBW struct {
	epoch [bwRing]int64
	used  [bwRing]int32
}

// reserve books one cache-line service on the node at time t, returning the
// queuing delay.
func (s *System) reserve(node int, t int64) int64 {
	if s.bwCap <= 0 {
		return 0
	}
	b := &s.bw[node]
	w := t / s.bwWindow
	for k := 0; k < bwRing; k++ {
		idx := (w + int64(k)) % bwRing
		if b.epoch[idx] != w+int64(k) {
			b.epoch[idx] = w + int64(k)
			b.used[idx] = 0
		}
		if b.used[idx] < s.bwCap {
			b.used[idx]++
			if k == 0 {
				return 0
			}
			return (w+int64(k))*s.bwWindow - t
		}
	}
	// Saturated far beyond the ring: charge a full ring of delay.
	return int64(bwRing) * s.bwWindow
}

// New builds the memory system for the machine configuration, with pages
// managed by pm.
func New(cfg *machine.Config, pm *ospage.Manager) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NProcs > MaxProcs {
		return nil, fmt.Errorf("memsim: %d processors exceeds MaxProcs %d", cfg.NProcs, MaxProcs)
	}
	s := &System{
		Cfg:      cfg,
		Pages:    pm,
		l2Shift:  uint(bits.TrailingZeros(uint(cfg.L2LineSize))),
		l1Per2:   cfg.L2LineSize / cfg.L1LineSize,
		bw:       make([]nodeBW, cfg.NNodes()),
		bwWindow: 512,
		brk:      int64(cfg.PageBytes), // first page kept unmapped as a null guard
	}
	if cfg.MemServiceCyc > 0 {
		s.bwCap = int32(s.bwWindow / int64(cfg.MemServiceCyc))
		if s.bwCap < 1 {
			s.bwCap = 1
		}
	}
	if s.l1Per2 < 1 {
		s.l1Per2 = 1
	}
	s.procs = make([]*proc, cfg.NProcs)
	for p := range s.procs {
		s.procs[p] = &proc{
			l1:    newCache(cfg.L1Bytes, cfg.L1LineSize, cfg.L1Assoc),
			l2:    newCache(cfg.L2Bytes, cfg.L2LineSize, cfg.L2Assoc),
			tlb:   newTLB(cfg.TLBEntries),
			node:  cfg.NodeOf(p),
			l1Hit: int64(cfg.L1HitCyc),
		}
		for i := range s.procs[p].l0Slot {
			s.procs[p].l0Slot[i] = s.procs[p].l1.sent
		}
	}
	return s, nil
}

// Alloc reserves n bytes of virtual address space aligned to align (which
// must be a power of two, at least 8), grows the backing tables to cover
// it and returns the base address. The space is zero-filled and unplaced;
// pages materialize on first touch or explicit placement. Alloc is Reserve
// followed by Grow; a loader that knows its whole layout up front reserves
// everything first and grows once.
func (s *System) Alloc(n int64, align int64) int64 {
	base := s.Reserve(n, align)
	s.Grow()
	return base
}

// Reserve advances brk by n bytes aligned to align (a power of two, at
// least 8) and returns the aligned base. It touches no backing table:
// until the next Grow the reserved space must not be read, written or
// simulated.
func (s *System) Reserve(n int64, align int64) int64 {
	if align < 8 {
		align = 8
	}
	base := (s.brk + align - 1) &^ (align - 1)
	s.brk = base + n
	return base
}

// Grow sizes the backing store, the directory and the page-miss table to
// cover brk, with one exact-size allocation each for whatever they lack.
// New backing words and page-miss counters are zero; new directory entries
// have no owner.
func (s *System) Grow() {
	if need := (s.brk + 7) >> 3; int64(len(s.mem)) < need {
		mem := make([]uint64, need)
		copy(mem, s.mem)
		s.mem = mem
	}
	if need := (s.brk >> s.l2Shift) + 1; int64(len(s.dir)) < need {
		dir := make([]dirEntry, need)
		n := copy(dir, s.dir)
		for i := range dir[n:] {
			dir[n+i].owner = -1
		}
		s.dir = dir
	}
	if need := (s.brk >> s.Pages.PageShift()) + 1; int64(len(s.pageMiss)) < need {
		pm := make([]int64, need)
		copy(pm, s.pageMiss)
		s.pageMiss = pm
	}
}

// BackingBytes returns the bytes held by the tables Grow sizes: the
// backing store, the directory and the page-miss table.
func (s *System) BackingBytes() int64 {
	return int64(cap(s.mem))*8 + int64(cap(s.dir))*int64(unsafe.Sizeof(dirEntry{})) + int64(cap(s.pageMiss))*8
}

// PageMisses returns the total L2 misses charged to pages overlapping the
// byte range [lo, hi).
func (s *System) PageMisses(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	first := lo >> s.Pages.PageShift()
	last := (hi - 1) >> s.Pages.PageShift()
	var n int64
	for vp := first; vp <= last && vp < int64(len(s.pageMiss)); vp++ {
		n += s.pageMiss[vp]
	}
	return n
}

// Brk returns the current top of the allocated address space.
func (s *System) Brk() int64 { return s.brk }

// Clock returns processor p's cycle clock.
func (s *System) Clock(p int) int64 { return s.procs[p].clock }

// SetClock overrides processor p's clock (barrier release).
func (s *System) SetClock(p int, c int64) { s.procs[p].clock = c }

// AddCycles charges instruction-execution cycles to processor p.
func (s *System) AddCycles(p int, n int64) { s.procs[p].clock += n }

// Stats returns processor p's counters.
func (s *System) Stats(p int) ProcStats { return s.procs[p].stats }

// TotalStats sums counters over all processors.
func (s *System) TotalStats() ProcStats {
	var t ProcStats
	for _, pr := range s.procs {
		t.Add(pr.stats)
	}
	return t
}

// MaxClock returns the maximum clock over the given processors.
func (s *System) MaxClock(procs []int) int64 {
	m := int64(0)
	for _, p := range procs {
		if c := s.procs[p].clock; c > m {
			m = c
		}
	}
	return m
}

// Barrier synchronizes the given processors: all clocks advance to the
// maximum plus the barrier cost model.
func (s *System) Barrier(procs []int) {
	m := s.MaxClock(procs)
	cost := int64(s.Cfg.BarrierBaseCyc + s.Cfg.BarrierPerProc*len(procs))
	if s.rec != nil {
		for _, p := range procs {
			s.rec.BarrierWait(p, s.procs[p].clock, m+cost-s.procs[p].clock)
		}
	}
	for _, p := range procs {
		s.procs[p].clock = m + cost
	}
}

// invalidateOthers removes the L2 line (and contained L1 lines) from every
// sharer except keep, charging coherence latency to the requester.
func (s *System) invalidateOthers(req int, d *dirEntry, line int64, keep int) int64 {
	var extra int64
	n := 0
	for p := 0; p < len(s.procs); p++ {
		if p == keep || !d.has(p) {
			continue
		}
		pr := s.procs[p]
		pr.l2.invalidate(line)
		base := line * int64(s.l1Per2)
		for k := 0; k < s.l1Per2; k++ {
			pr.l1.invalidate(base + int64(k))
		}
		pr.stats.InvRecv++
		d.clear(p)
		n++
	}
	if n > 0 {
		s.procs[req].stats.InvSent += int64(n)
		s.procs[req].stats.Upgrades++
		extra = int64(s.Cfg.CoherenceCyc) + int64(8*(n-1))
		if s.rec != nil {
			s.rec.Invalidations(n)
		}
	}
	if d.owner >= 0 && int(d.owner) != keep {
		d.owner = -1
	}
	return extra
}

// evictL2 handles replacement of an L2 line from processor p's cache:
// directory bookkeeping, inclusion invalidation of the L1 sublines, and a
// writeback count when the line was exclusive.
func (s *System) evictL2(p int, victim int64, wasExcl bool) {
	pr := s.procs[p]
	d := &s.dir[victim]
	d.clear(p)
	if d.owner == int32(p) {
		d.owner = -1
	}
	base := victim * int64(s.l1Per2)
	for k := 0; k < s.l1Per2; k++ {
		pr.l1.invalidate(base + int64(k))
	}
	if wasExcl {
		pr.stats.Writebacks++
	}
}

// Access simulates one 8-byte load or store by processor p at virtual
// address addr, advancing p's clock by the modeled latency. It does not
// touch the backing store; LoadWord/StoreWord wrap it with data movement.
func (s *System) Access(p int, addr int64, write bool) {
	pr := s.procs[p]
	cfg := s.Cfg
	l1line := addr >> pr.l1.shift
	if write {
		pr.stats.Stores++
	} else {
		pr.stats.Loads++
	}
	if slot := pr.l1.lookup(l1line); slot >= 0 {
		if !pr.noMemo {
			i := l1line & l0Mask
			pr.l0Slot[i] = int32(slot)
			pr.l0Way[i] = int8(slot - int(l1line&pr.l1.mask)*pr.l1.assoc)
		}
		pr.clock += int64(cfg.L1HitCyc)
		if !write {
			return
		}
		if pr.l1.excl[slot] {
			return
		}
		// Write to a shared line: upgrade through the directory.
		l2line := addr >> s.l2Shift
		d := &s.dir[l2line]
		var lat int64
		if d.othersThan(p) {
			lat = s.invalidateOthers(p, d, l2line, p)
		}
		d.owner = int32(p)
		pr.l1.excl[slot] = true
		if l2s := pr.l2.lookup(l2line); l2s >= 0 {
			pr.l2.excl[l2s] = true
		}
		pr.clock += lat
		pr.stats.MemCyc += lat
		return
	}

	pr.stats.L1Miss++
	if s.rec != nil {
		s.rec.L1Miss(p)
	}
	lat := int64(cfg.L2HitCyc)

	// Address translation happens on the refill path.
	vpage := s.Pages.VPage(addr)
	if !pr.tlb.access(vpage) {
		pr.stats.TLBMiss++
		lat += int64(cfg.TLBMissCyc)
		pr.stats.TLBCyc += int64(cfg.TLBMissCyc)
		if s.rec != nil {
			s.rec.TLBMiss(p, pr.node, addr, int64(cfg.TLBMissCyc), pr.clock)
		}
	}

	l2line := addr >> s.l2Shift
	d := &s.dir[l2line]
	slot := pr.l2.lookup(l2line)
	if slot < 0 {
		// L2 miss: fetch from home memory or intervening cache.
		pr.stats.L2Miss++
		if vp := addr >> s.Pages.PageShift(); vp < int64(len(s.pageMiss)) {
			s.pageMiss[vp]++
		}
		home := s.Pages.Touch(addr, pr.node)
		if d.owner >= 0 && int(d.owner) != p {
			// Dirty in another cache: cache-to-cache intervention.
			pr.stats.Interventions++
			if s.rec != nil {
				s.rec.Intervention()
				s.rec.L2Miss(p, pr.node, home, addr,
					int64(cfg.RemoteLatency(pr.node, s.procs[d.owner].node)+cfg.CoherenceCyc), pr.clock)
			}
			lat += int64(cfg.RemoteLatency(pr.node, s.procs[d.owner].node) + cfg.CoherenceCyc)
			d.owner = -1
			if home == pr.node {
				pr.stats.L2MissLocal++
			} else {
				pr.stats.L2MissRemote++
			}
		} else {
			base := int64(cfg.RemoteLatency(pr.node, home))
			// Node memory bandwidth: queue behind other requests in
			// the same time window.
			if wait := s.reserve(home, pr.clock); wait > 0 {
				lat += wait
				pr.stats.WaitCyc += wait
				if s.rec != nil {
					s.rec.BWWait(p, home, wait)
				}
			}
			lat += base
			if s.rec != nil {
				s.rec.L2Miss(p, pr.node, home, addr, base, pr.clock)
			}
			if home == pr.node {
				pr.stats.L2MissLocal++
			} else {
				pr.stats.L2MissRemote++
			}
		}
		victim, vs, vexcl := pr.l2.insert(l2line)
		if victim >= 0 {
			s.evictL2(p, victim, vexcl)
		}
		slot = vs
		d.set(p)
	}

	if write && !pr.l2.excl[slot] {
		if d.othersThan(p) {
			lat += s.invalidateOthers(p, d, l2line, p)
		}
		d.owner = int32(p)
		pr.l2.excl[slot] = true
	}

	// Fill L1 (inclusion holds: L2 line present). L1 victims need no
	// directory work; L2 still holds them.
	_, s1, _ := pr.l1.insert(l1line)
	pr.l1.excl[s1] = pr.l2.excl[slot]
	if !pr.noMemo {
		i := l1line & l0Mask
		pr.l0Slot[i] = int32(s1)
		pr.l0Way[i] = int8(s1 - int(l1line&pr.l1.mask)*pr.l1.assoc)
	}

	pr.clock += lat
	pr.stats.MemCyc += lat
}

// LoadWord simulates a load and returns the 8-byte word at addr.
//
// The guard is the L0 fast path: a repeat access to the processor's most
// recently used L1 line skips the Access walk entirely. The tag compare
// revalidates the memo (any invalidation or eviction rewrites the tag),
// and the path performs exactly the state updates the general L1-hit path
// in Access would: the stats counter, the LRU touch the lookup would make,
// and the L1-hit charge. Bit-identity with the slow path is asserted by
// TestL0FastPathBitIdentical.
func (s *System) LoadWord(p int, addr int64) uint64 {
	pr := s.procs[p]
	l1line := addr >> pr.l1.shift
	m := l1line & l0Mask
	if pr.l1.tags[pr.l0Slot[m]] == l1line {
		pr.stats.Loads++
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
		return s.mem[addr>>3]
	}
	return s.loadWordSlow(p, addr)
}

func (s *System) loadWordSlow(p int, addr int64) uint64 {
	// Issue the host-side data load before the simulation walk: Access
	// never reads or writes the backing store, and the walk's own work
	// (tags, directory, TLB) then overlaps the host cache miss that a
	// simulated miss almost always implies.
	v := s.mem[addr>>3]
	s.Access(p, addr, false)
	return v
}

// StoreWord simulates a store of the 8-byte word at addr. The L0 fast
// path (see LoadWord) applies only when the line is already writable; a
// shared-line write needs the directory and takes the full Access walk.
func (s *System) StoreWord(p int, addr int64, v uint64) {
	pr := s.procs[p]
	l1line := addr >> pr.l1.shift
	m := l1line & l0Mask
	if slot := pr.l0Slot[m]; pr.l1.tags[slot] == l1line && pr.l1.excl[slot] {
		pr.stats.Stores++
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
		s.mem[addr>>3] = v
		return
	}
	s.storeWordSlow(p, addr, v)
}

func (s *System) storeWordSlow(p int, addr int64, v uint64) {
	// As in LoadWord, touch the backing store before the walk so the host
	// write miss overlaps the simulation work (Access never touches mem).
	s.mem[addr>>3] = v
	s.Access(p, addr, true)
}

// LoadFloat and StoreFloat move float64 values through the simulated
// hierarchy.
func (s *System) LoadFloat(p int, addr int64) float64 {
	return math.Float64frombits(s.LoadWord(p, addr))
}

func (s *System) StoreFloat(p int, addr int64, v float64) {
	s.StoreWord(p, addr, math.Float64bits(v))
}

// Peek reads the backing store without simulating an access (result
// extraction, debugging).
func (s *System) Peek(addr int64) uint64 { return s.mem[addr>>3] }

// Poke writes the backing store without simulation (program loading).
func (s *System) Poke(addr int64, v uint64) { s.mem[addr>>3] = v }

// PeekFloat and PokeFloat are the float64 versions of Peek/Poke.
func (s *System) PeekFloat(addr int64) float64 { return math.Float64frombits(s.Peek(addr)) }

func (s *System) PokeFloat(addr int64, v float64) { s.Poke(addr, math.Float64bits(v)) }

// MigratePage performs the coherence side of a page migration or
// redistribution: every cached line of the page is invalidated everywhere
// and TLB entries are shot down. The caller charges the data-copy cost.
func (s *System) MigratePage(vpage int64) {
	pb := int64(s.Cfg.PageBytes)
	lo := vpage * pb >> s.l2Shift
	hi := ((vpage+1)*pb - 1) >> s.l2Shift
	for line := lo; line <= hi && line < int64(len(s.dir)); line++ {
		d := &s.dir[line]
		for p := 0; p < len(s.procs); p++ {
			if !d.has(p) {
				continue
			}
			pr := s.procs[p]
			pr.l2.invalidate(line)
			base := line * int64(s.l1Per2)
			for k := 0; k < s.l1Per2; k++ {
				pr.l1.invalidate(base + int64(k))
			}
			d.clear(p)
		}
		d.owner = -1
	}
	for _, pr := range s.procs {
		pr.tlb.shootdown(vpage)
	}
}

// BulkTransfer models a DMA-style streaming copy of `bytes` bytes from
// srcNode's memory to dstNode's memory, driven by processor p (the one
// programming the engine). Unlike a demand miss, the stream pays the
// interconnect latency between the nodes once as startup, then books one
// cache-line service slot per L2 line on the source node's bandwidth window
// — and, when the destination differs, on the destination's window too — so
// redistribution traffic contends with demand misses through the same
// windowed bandwidth model. Queuing delays accumulate in p's WaitCyc. p's
// clock advances to the completion time and the total cycle cost is
// returned.
func (s *System) BulkTransfer(p, srcNode, dstNode int, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	pr := s.procs[p]
	start := pr.clock
	t := start + int64(s.Cfg.RemoteLatency(srcNode, dstNode))
	lines := (bytes + int64(s.Cfg.L2LineSize) - 1) / int64(s.Cfg.L2LineSize)
	svc := int64(s.Cfg.MemServiceCyc)
	if svc < 1 {
		svc = 1
	}
	var waited int64
	for i := int64(0); i < lines; i++ {
		wait := s.reserve(srcNode, t)
		if dstNode != srcNode {
			if w := s.reserve(dstNode, t+wait); w > 0 {
				wait += w
			}
		}
		waited += wait
		t += wait + svc
	}
	pr.stats.WaitCyc += waited
	pr.clock = t
	return t - start
}
