package exec

import (
	"fmt"
	"os"
)

// Tier selects which bytecode execution tier interprets the program on
// the host: the classic switch-dispatch interpreter or the block-compiled
// fused-closure tier (internal/bytecode compile.go/compiled.go).
//
// Both tiers are bit-identical in simulated behavior — every charged
// cycle, stat counter, trap message, and quantum break point is the same;
// only host wall time differs.
type Tier int

const (
	// TierAuto resolves to the compiled tier (it is a strict win once a
	// program runs more than a handful of quanta). The DSM_TIER
	// environment variable (classic|compiled|auto) overrides Auto — but
	// never an explicit Options.Tier — so CI can force a tier across an
	// existing test suite.
	TierAuto Tier = iota
	TierClassic
	TierCompiled
)

// ParseTier parses a -tier flag value.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "auto", "":
		return TierAuto, nil
	case "classic":
		return TierClassic, nil
	case "compiled":
		return TierCompiled, nil
	}
	return TierAuto, fmt.Errorf("unknown tier %q (accepted: classic, compiled, auto)", s)
}

func (t Tier) String() string {
	switch t {
	case TierClassic:
		return "classic"
	case TierCompiled:
		return "compiled"
	}
	return "auto"
}

// Resolve applies the DSM_TIER override and the auto rule, yielding the
// tier a run with this setting actually executes on. Callers that record
// host-performance measurements (bench_test's BENCH_sweeps.json) use it
// to note the tier the numbers were taken under.
func (t Tier) Resolve() Tier { return resolveTier(t) }

// resolveTier applies the DSM_TIER override and the auto rule.
func resolveTier(t Tier) Tier {
	if t == TierAuto {
		if env := os.Getenv("DSM_TIER"); env != "" {
			if pt, err := ParseTier(env); err == nil {
				t = pt
			}
		}
	}
	if t == TierAuto {
		t = TierCompiled
	}
	return t
}
