package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsmdist/internal/exec"
)

// The tier fuzz harness: seeded random programs (genProgram: doacross
// nests, distribution specs, schedule types, barriers, redistributes),
// each run under the classic interpreter and the block-compiled tier and
// compared bit-for-bit. The compiled tier's contract is exact classic
// semantics — identical charged cycles, stats, operation counters, region
// breakdowns, and final array contents — so any divergence is a
// compiler/trampoline bug by definition. The tiers must also agree on
// quantum break points, or the region scheduler's arrival order shifts
// (see the StepCycles dispatch semantics contract).
func TestTierFuzzClassicVsCompiled(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	procs := []int{1, 4, 16, 96}
	if testing.Short() {
		seeds = seeds[:3]
		procs = []int{1, 4, 16}
	}
	for _, seed := range seeds {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range procs {
			c, csum, carr := fuzzRun(t, src, np, exec.TierClassic)
			k, ksum, karr := fuzzRun(t, src, np, exec.TierCompiled)
			label := fmt.Sprintf("seed=%d P=%d", seed, np)
			if c.Cycles != k.Cycles {
				t.Errorf("%s: cycles %d vs %d\n%s", label, c.Cycles, k.Cycles, src)
				continue
			}
			if !reflect.DeepEqual(c.Stats, k.Stats) || c.Total != k.Total {
				t.Errorf("%s: proc stats diverge\n%s", label, src)
			}
			if c.HwDiv != k.HwDiv || c.SoftDiv != k.SoftDiv || c.Instrs != k.Instrs {
				t.Errorf("%s: op counters diverge (hw %d/%d soft %d/%d instrs %d/%d)\n%s",
					label, c.HwDiv, k.HwDiv, c.SoftDiv, k.SoftDiv, c.Instrs, k.Instrs, src)
			}
			if !bytes.Equal(csum, ksum) {
				t.Errorf("%s: region breakdowns diverge\n%s", label, src)
			}
			if !reflect.DeepEqual(carr, karr) {
				t.Errorf("%s: final array contents diverge\n%s", label, src)
			}
		}
	}
}
