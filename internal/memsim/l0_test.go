package memsim

import (
	"math/rand"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/ospage"
)

// TestL0FastPathBitIdentical drives two identical systems with the same
// access stream — one with the L0 last-line/last-page memos disabled — and
// requires every loaded value, every cycle clock, and every statistics
// counter to match. The memo is a pure host-side short-circuit; any
// divergence here means it changed the simulated machine.
func TestL0FastPathBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := machine.Tiny(4)
		fast, err := New(cfg, ospage.New(cfg))
		if err != nil {
			t.Fatal(err)
		}
		slow, err := New(cfg, ospage.New(cfg))
		if err != nil {
			t.Fatal(err)
		}
		slow.SetL0(false)

		// Footprint larger than L2 and than the TLB reach, so the stream
		// exercises cache evictions, TLB FIFO evictions, and the memo
		// invalidation paths — with enough locality to hit the memo often.
		words := int64(cfg.L2Bytes) / 4
		fb := fast.Alloc(words*8, int64(cfg.PageBytes))
		sb := slow.Alloc(words*8, int64(cfg.PageBytes))

		rng := rand.New(rand.NewSource(seed))
		off, p := int64(0), 0
		for i := 0; i < 8000; i++ {
			switch rng.Intn(8) {
			case 0: // jump to a random word (new line, maybe new page)
				off = int64(rng.Intn(int(words))) * 8
			case 1: // switch processor
				p = rng.Intn(4)
			default: // walk within the current neighbourhood
				off = (off + int64(rng.Intn(4))*8) % (words * 8)
			}
			if rng.Intn(3) == 0 {
				v := rng.Uint64()
				fast.StoreWord(p, fb+off, v)
				slow.StoreWord(p, sb+off, v)
			} else {
				fv := fast.LoadWord(p, fb+off)
				sv := slow.LoadWord(p, sb+off)
				if fv != sv {
					t.Fatalf("seed %d op %d: load %#x fast=%#x slow=%#x",
						seed, i, off, fv, sv)
				}
			}
		}

		for q := 0; q < 4; q++ {
			if fc, sc := fast.Clock(q), slow.Clock(q); fc != sc {
				t.Errorf("seed %d proc %d: clock fast=%d slow=%d", seed, q, fc, sc)
			}
			if fs, ss := fast.Stats(q), slow.Stats(q); fs != ss {
				t.Errorf("seed %d proc %d: stats diverge\n fast %+v\n slow %+v",
					seed, q, fs, ss)
			}
		}
	}
}

// BenchmarkLoadWord measures the word-at-a-time path: the L0-memo hit
// (every access to the same resident line) and the L2-miss fill (striding
// by L2 lines through a footprint several times the L2).
func BenchmarkLoadWord(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		cfg := machine.Tiny(1)
		s, err := New(cfg, ospage.New(cfg))
		if err != nil {
			b.Fatal(err)
		}
		base := s.Alloc(int64(cfg.PageBytes), int64(cfg.PageBytes))
		s.LoadWord(0, base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LoadWord(0, base)
		}
	})
	b.Run("miss", func(b *testing.B) {
		cfg := machine.Tiny(1)
		s, err := New(cfg, ospage.New(cfg))
		if err != nil {
			b.Fatal(err)
		}
		span := int64(cfg.L2Bytes) * 8
		base := s.Alloc(span, int64(cfg.PageBytes))
		step := int64(cfg.L2LineSize)
		off := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LoadWord(0, base+off)
			off += step
			if off >= span {
				off = 0
			}
		}
	})
}
