package rtl

import (
	"runtime"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
)

// loadBenchSrc is the P=16 load the allocation bound and BenchmarkLoad
// measure: the reshaped transpose, whose 16 stacks and 32 portions make
// the address space 4.46 MB on the scaled machine.
var loadBenchSrc = workloads.Transpose(128, 1, workloads.Reshaped)

// TestLoadAllocBound checks that one load allocates little beyond the
// memory system's final backing tables: sizing them once, exactly, keeps
// the Go heap bytes allocated by LoadObs under 1.5x the tables' bytes.
// A second growth of the tables, or a regrowth per reservation, breaks
// the bound.
func TestLoadAllocBound(t *testing.T) {
	img := buildImage(t, "transp", loadBenchSrc)
	cfg := machine.Scaled(16)
	res := cloneRes(img)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := LoadObs(res, cfg, ospage.FirstTouch, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	tables := rt.Sys.BackingBytes()
	if limit := tables * 3 / 2; alloc > limit {
		t.Fatalf("LoadObs allocated %d bytes, over 1.5x the %d bytes of its backing tables (limit %d)", alloc, tables, limit)
	}
	t.Logf("LoadObs allocated %d bytes for %d bytes of backing tables (%.2fx)", alloc, tables, float64(alloc)/float64(tables))
}

// loadSink keeps BenchmarkLoad's result live.
var loadSink *Runtime

// BenchmarkLoad measures one P=16 load of the reshaped transpose on the
// scaled machine, program clone excluded.
func BenchmarkLoad(b *testing.B) {
	img := buildImage(b, "transp", loadBenchSrc)
	cfg := machine.Scaled(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res := cloneRes(img)
		b.StartTimer()
		rt, err := LoadObs(res, cfg, ospage.FirstTouch, nil)
		if err != nil {
			b.Fatal(err)
		}
		loadSink = rt
	}
}
