package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls into the program (spans inside the program do not exist
// yet). Spans of one operation share Op; Parent is the enclosing span's ID
// (0 for a root). Start and End are offsets from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// StartUnknown marks a span whose duration alone was measured.
	StartUnknown bool `json:"start_unknown,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code at the cost of a nil
// check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id with an optional outcome label.
func (t *tracer) end(id int, label string) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Label = label
}

// record adds a finished span with known start and end times.
func (t *tracer) record(name string, op, parent int, start, end time.Time, label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Label: label, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// add records a span whose duration is known but whose start is not
// (a sweep point's Row.WallMS): it is placed to end with its parent.
func (t *tracer) add(name string, op, parent int, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.spans[parent-1].End
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: end - int64(dur), End: end, StartUnknown: true})
}

// spanTotals are the per-name aggregates of a trace.
type spanTotals struct {
	Count  int
	Total  time.Duration
	Self   time.Duration
	Labels map[string]int
}

// totals aggregates spans by name. A span's self time is its duration
// minus the part of it covered by its children (overlapping children are
// merged, so concurrent children are not double-subtracted). Spans with
// an unknown start are not subtracted from their parent.
func (t *tracer) totals() map[string]*spanTotals {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && !s.StartUnknown {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanTotals{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{Labels: map[string]int{}}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(children[s.ID], s.Start, s.End))
		if s.Label != "" {
			st.Labels[s.Label]++
		}
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as JSON lines under dir and prints the per-name
// summary to w.
func (t *tracer) write(dir, name string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d written to %s\n", len(t.spans), path)
	fmt.Fprintf(w, "%-28s %6s %12s %12s  %s\n", "span", "count", "total_ms", "self_ms", "labels")
	for _, n := range names {
		st := tot[n]
		fmt.Fprintf(w, "%-28s %6d %12.3f %12.3f  %v\n", n, st.Count, ms(st.Total), ms(st.Self), st.Labels)
	}
	return nil
}

// profiler collects CPU profiles of the traced passes, labelled with the
// workload name through pprof.Do, as files under dir.
type profiler struct {
	workload string
	dir      string
	files    []string
}

// run executes fn under a CPU profile.
func (p *profiler) run(fn func() error) error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(p.dir, fmt.Sprintf("%s-%d.cpu.pb.gz", p.workload, len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	pprof.Do(context.Background(), pprof.Labels("workload", p.workload), func(context.Context) {
		err = fn()
	})
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	p.files = append(p.files, path)
	return err
}

// shares reduces the collected profiles to per-layer CPU time.
func (p *profiler) shares() (*cpuShares, error) {
	cs := &cpuShares{ns: map[string]int64{}}
	for _, path := range p.files {
		if err := cs.addProfile(path); err != nil {
			return nil, err
		}
	}
	return cs, nil
}
