package rtl

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dsmdist/internal/codegen"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/obj"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// buildImage compiles and links one source at -O3.
func buildImage(t testing.TB, name, src string) *codegen.Result {
	t.Helper()
	o, err := obj.Compile(name+".f", src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	img, err := link.Link([]*obj.Object{o}, link.Config{Opt: xform.O3()})
	if err != nil {
		t.Fatalf("%s: link: %v", name, err)
	}
	return img.Res
}

// cloneRes returns res with a fresh copy of its program, which loading
// patches in place.
func cloneRes(res *codegen.Result) *codegen.Result {
	c := *res
	c.Prog = res.Prog.Clone()
	return &c
}

// layoutCase is one image the layout golden pins.
type layoutCase struct {
	name string
	src  string
	// luNodes shrinks node memory to the LU data size / 1.44 (the
	// lu-sweep shape), so load-time placement spills and the order of
	// page claims decides more nodes.
	luNodes bool
}

const layoutLUN = 12

var layoutCases = []layoutCase{
	{name: "transpose-plain", src: workloads.Transpose(128, 1, workloads.Plain)},
	{name: "transpose-reshaped", src: workloads.Transpose(128, 1, workloads.Reshaped)},
	{name: "conv1-reshaped", src: workloads.Convolution(64, 1, 1, workloads.Reshaped)},
	{name: "conv2-reshaped", src: workloads.Convolution(64, 1, 2, workloads.Reshaped)},
	{name: "lu-regular", src: workloads.LU(layoutLUN, 1, workloads.Regular), luNodes: true},
	{name: "lu-reshaped", src: workloads.LU(layoutLUN, 1, workloads.Reshaped), luNodes: true},
}

// layoutMachine is the scaled machine, with node memory shrunk for the LU
// cases the way the experiment harness does.
func layoutMachine(c layoutCase, p int) *machine.Config {
	cfg := machine.Scaled(p)
	if c.luNodes {
		data := 2 * 5 * layoutLUN * layoutLUN * layoutLUN * 8
		cfg.NodeMemBytes = int(float64(data) / 1.44)
	}
	return cfg
}

// layoutDump loads every case at P=1,4,16 and renders the simulated
// address space: brk, symbol addresses, stack bases, portion addresses,
// pages per node, the node of every placed page (as runs) and the
// load-time event counts.
func layoutDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, c := range layoutCases {
		img := buildImage(t, c.name, c.src)
		for _, p := range []int{1, 4, 16} {
			cfg := layoutMachine(c, p)
			rec := obs.NewRecorder(cfg)
			rt, err := LoadObs(cloneRes(img), cfg, ospage.FirstTouch, rec)
			if err != nil {
				t.Fatalf("%s p=%d: load: %v", c.name, p, err)
			}
			fmt.Fprintf(&b, "case %s p=%d\n", c.name, p)
			fmt.Fprintf(&b, "brk %d\n", rt.Sys.Brk())
			for _, s := range rt.Prog.Syms {
				fmt.Fprintf(&b, "sym %s %d %d\n", s.Name, s.Addr, s.Bytes)
			}
			for q, base := range rt.StackBase {
				fmt.Fprintf(&b, "stack %d %d\n", q, base)
			}
			for _, st := range rt.Arrays {
				if st.Portions == nil {
					continue
				}
				fmt.Fprintf(&b, "portions %s.%s %d", st.Plan.Unit, st.Plan.Name, st.PortionBytes)
				for _, a := range st.Portions {
					fmt.Fprintf(&b, " %d", a)
				}
				b.WriteString("\n")
			}
			ps := rt.Pages.Stats()
			fmt.Fprintf(&b, "pages_per_node %v placed %d spilled %d\n", ps.PerNode, ps.Placed, ps.Spilled)
			b.WriteString("page_nodes")
			writeNodeRuns(&b, rt)
			b.WriteString("\n")
			fmt.Fprintf(&b, "events place %d spill %d pool_alloc %d pool_bytes %d\n",
				rec.Count(obs.KPagePlace), rec.Count(obs.KPageSpill), rec.Count(obs.KPoolAlloc), rec.PoolBytes())
		}
	}
	return b.String()
}

// writeNodeRuns appends " lo-hi:node" for every maximal run of virtual
// pages below brk that share a home node (-1 for unmapped).
func writeNodeRuns(b *strings.Builder, rt *Runtime) {
	pb := int64(rt.Cfg.PageBytes)
	last := (rt.Sys.Brk() - 1) / pb
	start, node := int64(0), rt.Pages.NodeOf(0)
	for vp := int64(1); vp <= last+1; vp++ {
		n := -2
		if vp <= last {
			n = rt.Pages.NodeOf(vp * pb)
		}
		if n != node {
			fmt.Fprintf(b, " %d-%d:%d", start, vp-1, node)
			start, node = vp, n
		}
	}
}

// TestLayoutGolden pins the loader's address layout and load-time page
// placement byte for byte: a loader change that moves any address, or
// claims any page in a different order, fails here. The golden file is
// layoutDump's output; an intended layout change rewrites it from there.
func TestLayoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/layout_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := layoutDump(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("layout differs at line %d:\n got: %.300s\nwant: %.300s", i+1, g, w)
		}
	}
}
