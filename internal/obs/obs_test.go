package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dsmdist/internal/machine"
)

func testRecorder(nprocs int) *Recorder {
	return NewRecorder(machine.Tiny(nprocs))
}

// TestNilRecorderHooksAreNoOps is the contract that lets every producer
// publish unconditionally through a possibly-nil recorder.
func TestNilRecorderHooksAreNoOps(t *testing.T) {
	var r *Recorder
	r.L1Miss(0)
	r.L2Miss(0, 0, 1, 4096, 110, 10)
	r.TLBMiss(0, 0, 4096, 60, 10)
	r.Invalidations(3)
	r.Intervention()
	r.BWWait(0, 0, 24)
	r.BarrierWait(0, 100, 40)
	r.PagePlaced(1, 0, PlaceFirstTouch, false)
	r.PageMigrated(1, 0, 1)
	r.Redistribute("a", 4, 0, 0, 100)
	r.PoolAlloc(0, 0, 4096)
	r.ArgCheck(true)
	r.RegionBegin("r", "f", 1, 0, 4)
	r.RegionEnd([]int64{1, 2, 3, 4}, 5)
	r.QuantumSwitch(1)
	r.RegisterArray("a", [][2]int64{{0, 64}})
	r.SetMeta("k", "v")
	r.Finish(100)
}

func TestCountsAndKindNames(t *testing.T) {
	r := testRecorder(4)
	r.L1Miss(0)
	r.L1Miss(1)
	r.Invalidations(5)
	r.Intervention()
	if got := r.Count(KL1Miss); got != 2 {
		t.Errorf("KL1Miss = %d, want 2", got)
	}
	if got := r.Count(KInvalidation); got != 5 {
		t.Errorf("KInvalidation = %d, want 5", got)
	}
	m := r.Counts()
	if m["l1-miss"] != 2 || m["intervention"] != 1 {
		t.Errorf("Counts() = %v", m)
	}
	if _, ok := m["l2-miss-local"]; ok {
		t.Errorf("Counts() includes zero entry: %v", m)
	}
	// Every kind must have a distinct printable name.
	seen := map[string]bool{}
	for k := Kind(0); k < nKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestArrayAttribution(t *testing.T) {
	r := testRecorder(4) // tiny: 256-byte pages, 2 procs/node
	r.RegisterArray("main.a", [][2]int64{{4096, 8192}})
	r.RegisterArray("main.b", [][2]int64{{16384, 16896}, {20480, 20992}})

	r.L2Miss(0, 0, 0, 4096, 70, 100)   // a, local
	r.L2Miss(2, 1, 0, 5000, 110, 200)  // a, remote
	r.L2Miss(0, 0, 1, 20480, 110, 300) // b (second portion), remote
	r.L2Miss(0, 0, 0, 12288, 70, 400)  // between arrays: unattributed
	r.TLBMiss(2, 1, 4097, 60, 500)

	a := r.ArrayHeat("main.a")
	if a == nil {
		t.Fatal("main.a not registered")
	}
	local, remote := a.Misses()
	if local != 1 || remote != 1 {
		t.Errorf("main.a misses = (%d local, %d remote), want (1, 1)", local, remote)
	}
	if a.Nodes[0].LocalMiss != 1 || a.Nodes[1].RemoteMiss != 1 || a.Nodes[0].ServedRemote != 1 {
		t.Errorf("main.a heat = %+v", a.Nodes)
	}
	if a.Nodes[1].TLBMiss != 1 {
		t.Errorf("main.a TLB heat = %+v", a.Nodes)
	}
	b := r.ArrayHeat("main.b")
	if _, remote := b.Misses(); remote != 1 {
		t.Errorf("main.b remote misses = %d, want 1 (portion ranges)", remote)
	}

	// Page heat for the remote miss on a's page.
	ph := r.Page(5000 / 256)
	if ph == nil || ph.Remote != 1 || ph.Home != 0 || ph.RemoteByNode[1] != 1 {
		t.Errorf("page heat = %+v", ph)
	}
}

func TestRegionAccounting(t *testing.T) {
	r := testRecorder(4)

	// Serial activity before the region lands in "(serial)".
	r.L2Miss(0, 0, 0, 0, 70, 500)

	r.RegionBegin("work$r0", "main.f", 12, 1000, 4)
	r.L2Miss(0, 0, 1, 0, 110, 1100)
	r.TLBMiss(0, 0, 0, 60, 1200)
	r.BarrierWait(2, 1900, 100)
	r.RegionEnd([]int64{2000, 1990, 1980, 2000}, 2000)

	// Serial activity after the region goes back to "(serial)".
	r.L2Miss(0, 0, 0, 0, 70, 2100)
	r.Finish(2500)

	rg := r.Region("work$r0")
	if rg == nil {
		t.Fatal("region not recorded")
	}
	if rg.Invocations != 1 || rg.Procs != 4 || rg.File != "main.f" || rg.Line != 12 {
		t.Errorf("region identity = %+v", rg)
	}
	// (2000-1000) cycles × 4 procs of aggregate time.
	if rg.Cycles != 4000 {
		t.Errorf("region cycles = %d, want 4000", rg.Cycles)
	}
	if rg.RemoteMissCyc != 110 || rg.TLBCyc != 60 || rg.BarrierCyc != 100 {
		t.Errorf("region breakdown = %+v", rg)
	}
	if c := rg.ComputeCyc(); c != 4000-110-60-100 {
		t.Errorf("ComputeCyc = %d", c)
	}

	ser := r.Region(SerialRegion)
	if ser.LocalMiss != 2 {
		t.Errorf("serial local misses = %d, want 2 (one each side of the region)", ser.LocalMiss)
	}
	// Serial segments: [0,1000) + [2000,2500) on one processor.
	if ser.Cycles != 1500 {
		t.Errorf("serial cycles = %d, want 1500", ser.Cycles)
	}
	if got := r.TotalCycles(); got != 5500 {
		t.Errorf("TotalCycles = %d, want 5500", got)
	}

	// Re-entering the same region accumulates rather than duplicating.
	r.RegionBegin("work$r0", "main.f", 12, 3000, 4)
	r.RegionEnd([]int64{3100, 3100, 3100, 3100}, 3100)
	if rg.Invocations != 2 || rg.Cycles != 4400 {
		t.Errorf("second invocation: %+v", rg)
	}
	if len(r.Regions()) != 2 {
		t.Errorf("regions = %d, want 2 (serial + work$r0)", len(r.Regions()))
	}
}

func TestTraceBufferBounded(t *testing.T) {
	r := testRecorder(2)
	r.EnableTrace(8)
	for i := 0; i < 50; i++ {
		r.PagePlaced(int64(i), 0, PlaceFirstTouch, false)
	}
	if n := len(r.TraceEvents()); n != 8 {
		t.Errorf("trace kept %d events, want the 8-event cap", n)
	}
	if d := r.TraceDropped(); d != 42 {
		t.Errorf("dropped = %d, want 42", d)
	}
}

// TestWriteTraceStructure validates the Chrome trace_event envelope that
// chrome://tracing and Perfetto load.
func TestWriteTraceStructure(t *testing.T) {
	r := testRecorder(4)
	r.EnableTrace(0)
	r.RegionBegin("work$r0", "main.f", 3, 0, 4)
	r.BarrierWait(1, 900, 100)
	r.RegionEnd([]int64{1000, 1000, 1000, 1000}, 1000)
	r.PagePlaced(7, 1, PlaceRoundRobin, false)
	r.Finish(1200)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	validPh := map[string]bool{"X": true, "i": true, "C": true, "M": true}
	var spans, instants int
	for i, e := range tf.TraceEvents {
		if e.Name == "" {
			t.Errorf("event %d has no name", i)
		}
		if !validPh[e.Ph] {
			t.Errorf("event %d has unexpected phase %q", i, e.Ph)
		}
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Errorf("event %d missing ts/pid/tid: %+v", i, e)
		}
		if e.Ph == "X" {
			spans++
			if e.Dur < 0 {
				t.Errorf("span %d has negative dur", i)
			}
		}
		if e.Ph == "i" {
			instants++
		}
	}
	if spans == 0 {
		t.Error("no span (ph=X) events for the region")
	}
	if instants == 0 {
		t.Error("no instant (ph=i) event for the page placement")
	}
}

func TestSummarizeWriters(t *testing.T) {
	r := testRecorder(4)
	r.RegisterArray("main.a", [][2]int64{{4096, 8192}})
	r.RegionBegin("work$r0", "main.f", 3, 0, 4)
	r.L2Miss(0, 0, 1, 4200, 110, 100)
	r.RegionEnd([]int64{900, 900, 900, 900}, 1000)
	r.SetMeta("sources", "main.f")
	r.Finish(1100)

	s := r.Summarize(5)
	if s.Procs != 4 || len(s.Regions) != 2 || len(s.Arrays) != 1 {
		t.Fatalf("summary shape: procs=%d regions=%d arrays=%d",
			s.Procs, len(s.Regions), len(s.Arrays))
	}

	var jsonBuf bytes.Buffer
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("summary JSON invalid: %v", err)
	}
	if back.Meta["sources"] != "main.f" {
		t.Errorf("meta lost in JSON: %+v", back.Meta)
	}

	var csvBuf bytes.Buffer
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 { // header + serial + region
		t.Errorf("CSV lines = %d, want 3:\n%s", len(lines), csvBuf.String())
	}

	var txtBuf bytes.Buffer
	if err := s.WriteText(&txtBuf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"work$r0", "main.a", "per-region breakdown"} {
		if !strings.Contains(txtBuf.String(), want) {
			t.Errorf("text profile missing %q", want)
		}
	}
}
