package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// The series contract: every cycle-sampled snapshot row is a pure
// function of the recorder event stream, so repeated runs of one program
// must emit byte-identical rows — not just the end-of-run totals the tier
// fuzz compares.

// seriesRun executes src with cycle sampling on and returns the marshaled
// rows.
func seriesRun(t *testing.T, src string, np int) []json.RawMessage {
	t.Helper()
	tc := New()
	tc.RuntimeChecks = false
	image, err := tc.Build(map[string]string{"fz.f": src})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, src)
	}
	cfg := machine.Tiny(np)
	rec := obs.NewRecorder(cfg)
	rec.EnableSeries(20000, nil)
	if _, err := Run(image, cfg, RunOptions{Policy: ospage.FirstTouch, Recorder: rec}); err != nil {
		t.Fatalf("P=%d: %v\n%s", np, err, src)
	}
	return rec.SeriesRows()
}

// TestSeriesFuzzDeterministic runs random programs twice and demands the
// full series — row count, order, and every byte of every row — agree.
func TestSeriesFuzzDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range []int{4, 16} {
			label := fmt.Sprintf("seed=%d P=%d", seed, np)
			a := seriesRun(t, src, np)
			b := seriesRun(t, src, np)
			if len(a) == 0 {
				t.Errorf("%s: no series rows emitted\n%s", label, src)
				continue
			}
			if len(a) != len(b) {
				t.Errorf("%s: repeat run emitted %d rows, first run %d\n%s", label, len(b), len(a), src)
				continue
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Errorf("%s: row %d not reproducible\nfirst:  %s\nrepeat: %s", label, i, a[i], b[i])
					break
				}
			}
		}
	}
}
