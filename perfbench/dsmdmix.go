package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dsmdist/internal/advisor"
	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/service"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// dsmd-mix: an in-process dsmd (service.New over an on-disk Store, its
// Handler on a loopback listener) driven by two service.Clients in a
// closed loop. Every operation a client sends has the shape of one of
// dsmd's callers in this repository:
//
//   - run: `dsmrun -remote` (cmd/dsmrun runRemote): one Run of one
//     source, machine "scaled", the -p and -policy flags, runtime checks
//     and the level at their defaults (on, O3).
//   - bench: `dsmbench -remote` (internal/experiments remoteSweep): one
//     NoWait batch, defaults {machine, O3, checks off}, holding the
//     serial baseline at P=1 then every figure variant × P, followed
//     element by element with WaitJob.
//   - advise: `dsmadvise -remote` (cmd/dsmadvise remoteVerifyBatch): one
//     waiting batch, defaults {machine, checks off}, holding the
//     advisor's own verification points (top 6 candidates × P).
//
// The seed fixes the list of rounds; in each round both clients send an
// operation at once and the round ends when both have their replies.

// mixSpec is one job of the mix, as the service resolves it: the level is
// O3 for every caller the mix copies.
type mixSpec struct {
	kernel string // transp | conv1 | conv2 | lu (selects the closed-form check)
	n      int
	file   string
	src    string
	procs  int
	policy ospage.Policy
	checks bool // §6 runtime checks: on in dsmrun, off in sweeps and the advisor
}

func (m mixSpec) key() string {
	return fmt.Sprintf("%s n=%d %s#%s P=%d %s checks=%v", m.kernel, m.n, m.file, sha([]byte(m.src))[:16], m.procs, m.policy, m.checks)
}

// buildKey identifies the compile a spec needs.
func (m mixSpec) buildKey() string {
	return fmt.Sprintf("%s#%s checks=%v", m.file, sha([]byte(m.src))[:16], m.checks)
}

// mixOp is one operation a client sends: kind run, bench or advise, and
// its jobs (bench: the serial baseline first).
type mixOp struct {
	kind  string
	specs []int
}

// mixKernels are the generators of the mix's programs by kernel name.
var mixKernels = map[string]func(n int, v workloads.Variant) string{
	"transp": func(n int, v workloads.Variant) string { return workloads.Transpose(n, 1, v) },
	"conv1":  func(n int, v workloads.Variant) string { return workloads.Convolution(n, 1, 1, v) },
	"conv2":  func(n int, v workloads.Variant) string { return workloads.Convolution(n, 1, 2, v) },
	"lu":     func(n int, v workloads.Variant) string { return workloads.LU(n, 1, v) },
}

// mixSizes are the problem sizes per kernel: small, so each simulation
// takes tens of milliseconds and the service path carries the work.
var mixSizes = map[string][]int{
	"transp": sizeRange(104, 168, 1),
	"conv1":  sizeRange(72, 136, 1),
	"conv2":  sizeRange(72, 136, 1),
	"lu":     sizeRange(8, 14, 1),
}

// runStride thins the sizes of run operations: each sends one job, so
// fewer sizes already give many more operations than a run sends.
const runStride = 4

func sizeRange(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// Which kernels each caller sends: dsmbench -remote runs the figure
// sweeps (fig5 transpose, fig6/7 one- and two-level convolution; table2
// and fig4 refuse -remote), the advisor is asked about the transpose and
// the convolutions (it takes about 0.1 s per LU program, which would make
// set-up several times longer), and dsmrun runs any program. Sizes vary
// within a narrow band, so operations of a kind cost about the same.
// Sweeps and the advisor run at P = 1, 4, 16 (dsmbench -quick's processor
// list and dsmadvise's default), dsmrun at any of them.
var (
	benchKernels  = []string{"transp", "conv1", "conv2"}
	adviseKernels = []string{"transp", "conv1", "conv2"}
	runKernels    = []string{"transp", "conv1", "conv2", "lu"}
	mixProcs      = []int{1, 4, 16}
)

// mixSpace is every operation the mix draws from and the jobs they send.
type mixSpace struct {
	specs []mixSpec
	ops   []mixOp
}

// buildMixSpace generates every source and operation, in a fixed order.
// It is several times larger than what one run sends, so a run never
// runs out of new operations, even on a faster host.
func buildMixSpace() (*mixSpace, error) {
	m := &mixSpace{}
	index := map[string]int{}
	add := func(sp mixSpec) int {
		k := sp.key()
		if i, ok := index[k]; ok {
			return i
		}
		index[k] = len(m.specs)
		m.specs = append(m.specs, sp)
		return len(m.specs) - 1
	}
	ft, rr := ospage.FirstTouch, ospage.RoundRobin
	for _, k := range runKernels {
		for i, n := range mixSizes[k] {
			if i%runStride != 0 && k != "lu" {
				continue
			}
			for _, v := range []workloads.Variant{workloads.Plain, workloads.Regular, workloads.Reshaped} {
				src := mixKernels[k](n, v)
				for _, p := range mixProcs {
					for _, pol := range []ospage.Policy{ft, rr} {
						i := add(mixSpec{k, n, k + ".f", src, p, pol, true})
						m.ops = append(m.ops, mixOp{"run", []int{i}})
					}
				}
			}
		}
	}
	// internal/experiments' figure variants, in its order (figureVariants
	// is unexported, so they are listed again here).
	figure := []struct {
		v      workloads.Variant
		policy ospage.Policy
	}{{workloads.Plain, ft}, {workloads.Plain, rr}, {workloads.Regular, ft}, {workloads.Reshaped, ft}}
	for _, k := range benchKernels {
		for _, n := range mixSizes[k] {
			op := mixOp{kind: "bench"}
			op.specs = append(op.specs, add(mixSpec{k, n, "bench.f", mixKernels[k](n, workloads.Serial), 1, ft, false}))
			for _, f := range figure {
				src := mixKernels[k](n, f.v)
				for _, p := range mixProcs {
					op.specs = append(op.specs, add(mixSpec{k, n, "bench.f", src, p, f.policy, false}))
				}
			}
			m.ops = append(m.ops, op)
		}
	}
	for _, k := range adviseKernels {
		for _, n := range mixSizes[k] {
			pts, err := advisePoints(mixKernels[k](n, workloads.Plain), mixProcs)
			if err != nil {
				return nil, fmt.Errorf("advise %s n=%d: %w", k, n, err)
			}
			op := mixOp{kind: "advise"}
			for _, pt := range pts {
				src, ok := pt.Sources["main.f"]
				if len(pt.Sources) != 1 || !ok {
					return nil, fmt.Errorf("advise %s n=%d: unexpected verification sources", k, n)
				}
				op.specs = append(op.specs, add(mixSpec{k, n, "main.f", src, pt.Procs, pt.Policy, false}))
			}
			m.ops = append(m.ops, op)
		}
	}
	return m, nil
}

// advisePoints returns the verification points dsmadvise -p procs sends
// for a one-file program main.f: the advisor is run with a VerifyBatch
// hook that records the points instead of simulating them.
func advisePoints(src string, procs []int) ([]advisor.VerifyPoint, error) {
	var pts []advisor.VerifyPoint
	_, err := advisor.Advise(map[string]string{"main.f": src}, advisor.Options{
		Procs: procs,
		VerifyBatch: func(p []advisor.VerifyPoint) ([]int64, error) {
			pts = p
			return make([]int64, len(p)), nil
		},
	})
	return pts, err
}

// mixRound is one closed-loop step: the operations of client A and
// client B, sent at once. a == b is a coalesced round.
type mixRound struct{ a, b int }

// Shares of the mix. Nothing in the repository records how often each
// caller talks to dsmd, so these are chosen, not measured: operations by
// kind (two runs to one bench to one advise); how often an operation
// repeats the one sent repeatLag operations of its kind before (3 in 10: a
// user rerunning a command on a warm daemon, so its jobs are store hits);
// how often both clients send the same new operation at once (3 rounds in
// 20: two users running the same command, so their jobs coalesce).
var (
	kindDeck     = []string{"run", "run", "bench", "advise"}
	repeatDeck   = []bool{true, true, true, false, false, false, false, false, false, false}
	coalesceDeck = append([]bool{true, true, true}, make([]bool, 17)...)
)

const repeatLag = 4

// deck deals a fixed multiset of items in blocks, each block in a seeded
// order, so every prefix of the deal holds each item in its share and runs
// with different seeds send the same mix in a different order.
type deck[T any] struct {
	rng  *rand.Rand
	set  []T
	hand []T
}

func (d *deck[T]) next() T {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.set...)
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	x := d.hand[0]
	d.hand = d.hand[1:]
	return x
}

// stratum groups operations of like cost: kind, kernel and processor
// counts.
func (m *mixSpace) stratum(o int) string {
	op := m.ops[o]
	var procs []int
	for _, sp := range op.specs {
		procs = append(procs, m.specs[sp].procs)
	}
	return fmt.Sprintf("%s/%s/%v", op.kind, m.specs[op.specs[0]].kernel, procs)
}

// mixRounds draws n rounds from the seed. "New" means never sent before:
// each kind's new operations cycle through its strata in a seeded order,
// each stratum's operations in a seeded order, so every prefix of the mix
// weighs the strata alike. A repeat resends the operation of its kind
// sent repeatLag new operations earlier (or the first, early on).
func mixRounds(seed int64, space *mixSpace, n int) []mixRound {
	rng := rand.New(rand.NewSource(seed))
	strata := map[string]map[string][]int{} // kind -> stratum -> ops
	for i, op := range space.ops {
		if strata[op.kind] == nil {
			strata[op.kind] = map[string][]int{}
		}
		st := space.stratum(i)
		strata[op.kind][st] = append(strata[op.kind][st], i)
	}
	fresh := map[string][]int{}
	for _, k := range sortedKeys(strata) {
		keys := sortedKeys(strata[k])
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, st := range keys {
			ops := strata[k][st]
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		}
		for i := 0; ; i++ {
			dealt := false
			for _, st := range keys {
				if i < len(strata[k][st]) {
					fresh[k] = append(fresh[k], strata[k][st][i])
					dealt = true
				}
			}
			if !dealt {
				break
			}
		}
	}
	// Every kind has its own repeat deck, and coalesced rounds their own
	// kind deck, so the share of jobs that hit or coalesce does not
	// depend on which kind a repeat or coalesced round happens to fall to
	// (an advise operation sends 18 jobs, a run one).
	kinds := &deck[string]{rng: rng, set: kindDeck}
	coalesceKinds := &deck[string]{rng: rng, set: kindDeck}
	repeats := map[string]*deck[bool]{}
	for _, k := range kindDeck {
		if repeats[k] == nil {
			repeats[k] = &deck[bool]{rng: rng, set: repeatDeck}
		}
	}
	coalesce := &deck[bool]{rng: rng, set: coalesceDeck}
	issued := map[string][]int{}
	repeat := func(k string) int {
		return issued[k][max(0, len(issued[k])-repeatLag)]
	}
	newOp := func(k string) int {
		if len(fresh[k]) == 0 {
			return repeat(k)
		}
		x := fresh[k][0]
		fresh[k] = fresh[k][1:]
		issued[k] = append(issued[k], x)
		return x
	}
	draw := func() int {
		k := kinds.next()
		if repeats[k].next() && len(issued[k]) > 0 {
			return repeat(k)
		}
		return newOp(k)
	}
	rounds := make([]mixRound, n)
	for i := range rounds {
		if coalesce.next() {
			z := newOp(coalesceKinds.next())
			rounds[i] = mixRound{z, z}
		} else {
			rounds[i] = mixRound{draw(), draw()}
		}
	}
	return rounds
}

// mixServer is the in-process dsmd and its two clients.
type mixServer struct {
	dir     string
	srv     *service.Server
	hs      *httptest.Server
	clients [2]*service.Client
}

func startServer(root string) (*mixServer, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "dsmd-store-")
	if err != nil {
		return nil, err
	}
	st, err := service.OpenStore(dir, service.DefaultStoreBytes)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	m := &mixServer{dir: dir, srv: service.New(service.Options{Store: st})}
	m.hs = httptest.NewServer(m.srv.Handler())
	for i := range m.clients {
		m.clients[i] = service.NewClient(m.hs.URL)
		if err := m.clients[i].Health(); err != nil {
			m.stop()
			return nil, err
		}
	}
	return m, nil
}

func (m *mixServer) stop() error {
	m.hs.Close()
	err := m.srv.Drain()
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	return err
}

// submission is one job sent: its outcome is hit, coalesced, simulated,
// refused or failed.
type submission struct {
	op      int // index into mixSpace.ops
	spec    int
	batch   bool
	outcome string
	lat     time.Duration
	doc     []byte
	err     error
}

func outcomeOf(v *service.JobView, err error) string {
	switch {
	case err != nil && strings.Contains(err.Error(), " 429 "):
		return "refused"
	case err != nil:
		return "failed"
	case v.Cached:
		return "hit"
	case v.Coalesced:
		return "coalesced"
	}
	return "simulated"
}

// mixPass is what one pass of rounds produced.
type mixPass struct {
	subs    []submission
	opWalls []float64 // bench and advise operations, first send to last reply, seconds
	rounds  int
	wall    time.Duration
}

// mixSender sends the mix's operations as their callers do and records
// every job's submission.
type mixSender struct {
	space *mixSpace
	tr    *tracer
	mu    sync.Mutex
	pass  *mixPass
}

func (m *mixSender) record(s submission, t0 time.Time, op, parent int) {
	m.mu.Lock()
	m.pass.subs = append(m.pass.subs, s)
	m.mu.Unlock()
	m.tr.record("dsmd.submit", op, parent, t0, t0.Add(s.lat), s.outcome)
}

func (m *mixSender) opWall(d time.Duration) {
	m.mu.Lock()
	m.pass.opWalls = append(m.pass.opWalls, d.Seconds())
	m.mu.Unlock()
}

func (m *mixSender) request(sp int) service.JobRequest {
	s := m.space.specs[sp]
	return service.JobRequest{Sources: map[string]string{s.file: s.src}, Procs: s.procs, Policy: s.policy.String()}
}

// send runs operation o on client c under spans of operation id op.
func (m *mixSender) send(c *service.Client, o int, op, parent int) {
	mo := m.space.ops[o]
	id := m.tr.begin("dsmd."+mo.kind, op, parent)
	defer m.tr.end(id, "")
	off := false
	t0 := time.Now()
	switch mo.kind {
	case "run": // dsmrun -remote
		req := m.request(mo.specs[0])
		req.Machine = "scaled"
		v, err := c.Run(&req)
		s := submission{op: o, spec: mo.specs[0], lat: time.Since(t0), outcome: outcomeOf(v, err), err: err}
		if err == nil {
			s.doc = v.Result
		}
		m.record(s, t0, op, id)
	case "bench": // dsmbench -remote: NoWait batch, then WaitJob per element
		br := &service.BatchRequest{
			Defaults: service.JobRequest{Machine: "scaled", Opt: "O3", RuntimeChecks: &off},
			NoWait:   true,
		}
		for i, sp := range mo.specs {
			req := m.request(sp)
			if i == 0 { // the serial baseline leaves the policy at its default
				req.Policy = ""
			}
			br.Jobs = append(br.Jobs, req)
		}
		views, err := c.RunBatch(br)
		admitted := time.Since(t0)
		for i, sp := range mo.specs {
			s := submission{op: o, spec: sp, batch: true, lat: admitted, err: err}
			if err != nil {
				s.outcome = outcomeOf(nil, err)
				m.record(s, t0, op, id)
				continue
			}
			v := &views[i]
			s.outcome = outcomeOf(v, nil)
			if v.State != service.StateDone {
				fv, err := c.WaitJob(v.ID)
				s.lat = time.Since(t0)
				if err != nil {
					s.err, s.outcome = err, "failed"
					m.record(s, t0, op, id)
					continue
				}
				v = fv
			}
			m.finish(&s, v)
			m.record(s, t0, op, id)
		}
		m.opWall(time.Since(t0))
	case "advise": // dsmadvise -remote: one waiting batch
		br := &service.BatchRequest{Defaults: service.JobRequest{Machine: "scaled", RuntimeChecks: &off}}
		for _, sp := range mo.specs {
			br.Jobs = append(br.Jobs, m.request(sp))
		}
		views, err := c.RunBatch(br)
		lat := time.Since(t0)
		for i, sp := range mo.specs {
			s := submission{op: o, spec: sp, batch: true, lat: lat, err: err}
			if err != nil {
				s.outcome = outcomeOf(nil, err)
			} else {
				s.outcome = outcomeOf(&views[i], nil)
				m.finish(&s, &views[i])
			}
			m.record(s, t0, op, id)
		}
		m.opWall(lat)
	}
}

// finish takes a finished job's document, or marks the job failed.
func (m *mixSender) finish(s *submission, v *service.JobView) {
	if v.State != service.StateDone {
		s.err = fmt.Errorf("job %s: %s", v.State, v.Error)
		s.outcome = "failed"
		return
	}
	s.doc = v.Result
}

// runMix runs rounds until more returns false, under spans when tr is
// non-nil.
func runMix(srv *mixServer, space *mixSpace, rounds []mixRound, tr *tracer, more func(i int, elapsed time.Duration) bool) *mixPass {
	m := &mixSender{space: space, tr: tr, pass: &mixPass{}}
	start := time.Now()
	for i, rd := range rounds {
		if !more(i, time.Since(start)) {
			break
		}
		op := i + 1
		root := tr.begin("dsmd.round", op, 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.send(srv.clients[0], rd.a, op, root)
		}()
		go func() {
			defer wg.Done()
			m.send(srv.clients[1], rd.b, op, root)
		}()
		wg.Wait()
		label := "distinct"
		if rd.a == rd.b {
			label = "same"
		}
		tr.end(root, label)
		m.pass.rounds++
	}
	m.pass.wall = time.Since(start)
	return m.pass
}

func runDSMDMix(c *config) (*result, error) {
	r := newResult()
	storeRoot := filepath.Join(c.out, "tmp")
	var space *mixSpace
	var rounds []mixRound
	var srv *mixServer
	setup, err := timeSetup(5, func() error {
		var err error
		if space, err = buildMixSpace(); err != nil {
			return err
		}
		rounds = mixRounds(c.seed, space, 20000)
		srv, err = startServer(storeRoot)
		return err
	}, func() error { return srv.stop() })
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = setup

	window := c.seconds
	if c.trace {
		window /= 2
	}
	a0 := allocMB()
	untraced := runMix(srv, space, rounds, nil, func(i int, el time.Duration) bool {
		return i == 0 || el.Seconds() < window
	})
	rss := peakRSSMB()
	alloc := allocMB() - a0
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if !c.trace {
		putMixEndToEnd(r, untraced, rss)
		checkMix(c, r, nil, space, untraced.subs)
		return r, nil
	}
	r.metrics["go.alloc_mb_per_op"] = alloc / float64(len(untraced.subs))

	// Traced pass: a fresh server and store, the same rounds, under spans
	// and a CPU profile. The server starts inside the profile so its
	// goroutines inherit the workload label.
	tr := newTracer()
	prof := &profiler{workload: c.workload, dir: c.out}
	var before, after service.Stats
	var traced *mixPass
	err = prof.run(func() error {
		var err error
		if srv, err = startServer(storeRoot); err != nil {
			return err
		}
		before = srv.srv.ServerStats()
		hostpool.ResetPeak()
		traced = runMix(srv, space, rounds, tr, func(i int, _ time.Duration) bool { return i < untraced.rounds })
		after = srv.srv.ServerStats()
		return srv.stop()
	})
	if err != nil {
		return nil, err
	}
	cs, err := prof.shares()
	if err != nil {
		return nil, err
	}
	putShares(r, cs)
	putOverhead(r, untraced.wall, traced.wall)
	putServiceStats(r, traced.subs, before, after)
	// The service draws a host worker per job it runs beside another;
	// lu-sweep runs its points one at a time, so this is where the
	// hostpool's grants show.
	r.metrics["hostpool.peak"] = float64(hostpool.Peak())

	// Simulated work of the traced pass, from the documents of the
	// submissions that simulated.
	var mem memsim.ProcStats
	var pages ospage.Stats
	var instrs int64
	for _, s := range traced.subs {
		if s.outcome != "simulated" {
			continue
		}
		var d core.ResultDoc
		if err := json.Unmarshal(s.doc, &d); err != nil {
			continue // checkMix reports the bad document
		}
		mem.Add(d.Total)
		instrs += d.Instrs
		pages.Spilled += d.Pages.Spilled
		pages.Placed += d.Pages.Placed
	}
	putSimulated(r, instrs, pages, mem, cs, 1)

	// The references rebuild and rerun every distinct spec through the
	// staged layer calls, as the service does, which gives the layer times.
	refInstrs := checkMix(c, r, tr, space, append(untraced.subs, traced.subs...))
	putLayerTimes(r, tr, 1, refInstrs)
	r.spans = tr
	return r, nil
}

// latencies returns the submissions' latencies in seconds; a refused or
// failed submission counts as missing every limit (+Inf).
func latencies(subs []submission, keep func(submission) bool) []float64 {
	var out []float64
	for _, s := range subs {
		if !keep(s) {
			continue
		}
		if s.err != nil {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, s.lat.Seconds())
		}
	}
	return out
}

func putMixEndToEnd(r *result, pass *mixPass, rss float64) {
	all := latencies(pass.subs, func(submission) bool { return true })
	r.metrics["job_p50_ms"] = quantile(all, 0.5) * 1000
	r.metrics["job_p90_ms"] = quantile(all, 0.9) * 1000
	var done int
	var instrs int64
	for _, s := range pass.subs {
		if s.err == nil {
			done++
		}
		if s.outcome == "simulated" {
			var d struct {
				Instrs int64 `json:"instrs"`
			}
			if json.Unmarshal(s.doc, &d) == nil {
				instrs += d.Instrs
			}
		}
	}
	r.metrics["jobs_per_s"] = float64(done) / pass.wall.Seconds()
	r.metrics["sim_minstr_per_s"] = float64(instrs) / 1e6 / pass.wall.Seconds()
	runs := latencies(pass.subs, func(s submission) bool { return !s.batch && s.outcome == "simulated" })
	r.metrics["run_wall_s"] = quantile(runs, 0.5)
	r.metrics["sweep_wall_s"] = quantile(pass.opWalls, 0.5)
	r.metrics["peak_rss_mb"] = rss
	r.labels["job_samples"], r.labels["run_samples"], r.labels["op_samples"] = len(all), len(runs), len(pass.opWalls)
}

func putServiceStats(r *result, subs []submission, before, after service.Stats) {
	p50 := func(outcome string) float64 {
		return quantile(latencies(subs, func(s submission) bool { return s.outcome == outcome }), 0.5) * 1000
	}
	r.metrics["service.hit_ms_p50"] = p50("hit")
	r.metrics["service.coalesced_ms_p50"] = p50("coalesced")
	r.metrics["service.simulated_ms_p50"] = p50("simulated")
	var hits, refused int
	for _, s := range subs {
		switch s.outcome {
		case "hit":
			hits++
		case "refused":
			refused++
		}
	}
	if len(subs) > 0 {
		r.metrics["service.store_hit_ratio"] = float64(hits) / float64(len(subs))
	}
	bh, bm := after.BuildHits-before.BuildHits, after.BuildMisses-before.BuildMisses
	if bh+bm > 0 {
		r.metrics["service.build_hit_ratio"] = float64(bh) / float64(bh+bm)
	}
	r.metrics["service.simulations"] = float64(after.Simulations - before.Simulations)
	r.metrics["service.refused"] = float64(refused)
	if after.Store != nil && before.Store != nil {
		r.metrics["service.store_evictions"] = float64(after.Store.Evictions - before.Store.Evictions)
	}
}

// checkMix computes, outside the timed window, a local reference for
// every job of every operation sent (staged core.Build + core.Run +
// NewResultDoc with the recorder the service attaches), checks each
// operation's references against its pin and, for transposes and
// convolutions, their arrays against the closed forms, then requires
// every remote document to equal its reference byte for byte. Specs
// sharing a compile are built once, as the service does. A submission
// fails at most once, whatever the number of reasons.
func checkMix(c *config, r *result, tr *tracer, space *mixSpace, subs []submission) (refInstrs int64) {
	r.attempted += len(subs)
	var mu sync.Mutex
	failed := map[int]bool{} // submission indices
	fail := func(idx []int, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, i := range idx {
			if !failed[i] {
				failed[i] = true
				n++
			}
		}
		if n > 0 {
			r.fail(c, n, format, args...)
		}
	}
	bySpec := map[int][]int{} // spec -> its submissions that returned a document
	sent := map[int][]int{}   // operation -> its submissions
	for i, s := range subs {
		sent[s.op] = append(sent[s.op], i)
		if s.err != nil {
			fail([]int{i}, "dsmd %s: %s: %v", space.specs[s.spec].key(), s.outcome, s.err)
			continue
		}
		bySpec[s.spec] = append(bySpec[s.spec], i)
	}
	groups := map[string][]int{}
	seen := map[int]bool{}
	for o := range sent {
		for _, sp := range space.ops[o].specs {
			if !seen[sp] {
				seen[sp] = true
				k := space.specs[sp].buildKey()
				groups[k] = append(groups[k], sp)
			}
		}
	}
	keys := sortedKeys(groups)
	refs := map[int]string{} // spec -> sha256 of its reference document
	engines := map[string]int{}
	var instrs int64
	op := 1 << 20 // reference spans get their own operation ids
	experiments.ForEach(0, len(keys), func(g int) error {
		specs := groups[keys[g]]
		sort.Ints(specs)
		img, err := mixBuild(tr, op+g, space.specs[specs[0]])
		if err != nil {
			for _, sp := range specs {
				fail(bySpec[sp], "dsmd %s: reference build: %v", space.specs[sp].key(), err)
			}
			return nil
		}
		for _, sp := range specs {
			key := space.specs[sp].key()
			res, ref, err := mixRun(tr, op+g, img.Clone(), space.specs[sp])
			if err != nil {
				fail(bySpec[sp], "dsmd %s: reference run: %v", key, err)
				continue
			}
			mu.Lock()
			refs[sp] = sha(ref)
			engines[res.EngineUsed.String()+"/"+res.TierUsed.String()]++
			instrs += res.Instrs
			mu.Unlock()
			if err := checkMixArrays(space.specs[sp], res); err != nil {
				fail(bySpec[sp], "dsmd %s: %v", key, err)
			}
			for _, i := range bySpec[sp] {
				if !bytes.Equal(subs[i].doc, ref) {
					fail([]int{i}, "dsmd %s: remote ResultDoc (%s) differs from the local run", key, subs[i].outcome)
				}
			}
		}
		return nil
	})
	for o, idx := range sent {
		if pin, ok := c.exp.DSMD[space.opPinKey(o)]; !ok || pin != space.opDigest(o, refs) {
			fail(idx, "dsmd %s: reference documents differ from the pinned ones", space.opKey(o))
		}
	}
	r.labels["engine_tier_used"] = engines
	r.labels["distinct_specs"] = len(seen)
	return instrs
}

// opKey names an operation by its kind and first job, which no other
// operation of the kind shares.
func (m *mixSpace) opKey(o int) string {
	return m.ops[o].kind + " " + m.specs[m.ops[o].specs[0]].key()
}

// opPinKey is the operation's key in expected.json: a hash of opKey, so
// the file stays small.
func (m *mixSpace) opPinKey(o int) string { return sha([]byte(m.opKey(o)))[:16] }

// opDigest is the sha256 over the reference document hashes of the
// operation's jobs, in order; a job without a reference makes it differ
// from any pin.
func (m *mixSpace) opDigest(o int, refs map[int]string) string {
	var b strings.Builder
	for _, sp := range m.ops[o].specs {
		b.WriteString(refs[sp])
		b.WriteByte('\n')
	}
	return sha([]byte(b.String()))
}

func checkMixArrays(sp mixSpec, res *exec.Result) error {
	switch sp.kernel {
	case "transp":
		return checkTransposeArrays(res, sp.n)
	case "conv1", "conv2":
		return checkConvolutionArrays(res, sp.n)
	}
	return nil
}

// mixBuild compiles a spec as the service does.
func mixBuild(tr *tracer, op int, sp mixSpec) (*link.Image, error) {
	return stagedBuild(tr, op, 0, sp.file, sp.src, xform.O3(), sp.checks)
}

// mixRun runs a spec as the service does, with a series recorder
// attached, and returns its canonical ResultDoc bytes.
func mixRun(tr *tracer, op int, img *link.Image, sp mixSpec) (*exec.Result, []byte, error) {
	cfg := machine.Scaled(sp.procs)
	rec := obs.NewRecorder(cfg)
	rec.EnableSeries(0, nil)
	res, err := stagedRun(tr, op, 0, img, cfg, sp.policy, rec)
	if err != nil {
		return nil, nil, err
	}
	_, b, err := resultDoc(cfg, sp.policy, res)
	return res, b, err
}

// mixReference is one spec's local reference run.
func mixReference(tr *tracer, op int, sp mixSpec) (*exec.Result, []byte, error) {
	img, err := mixBuild(tr, op, sp)
	if err != nil {
		return nil, nil, err
	}
	return mixRun(tr, op, img, sp)
}
