package wss

import (
	"math"
	"math/rand"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

func ladderFor(t *testing.T, shifts ...uint) *policy.Ladder {
	t.Helper()
	classes := addr.MustShiftClasses(shifts...)
	cfg := policy.DefaultLadderConfig(1000, classes)
	return policy.NewLadder(cfg)
}

// mustSampled attaches a sampler over the last T references to pol.
func mustSampled(t *testing.T, pol policy.MultiSize, T int, every uint64) *Sampled {
	t.Helper()
	s, err := NewSampled(pol, T, every)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSampledTwoClass checks the instantaneous size against hand
// accounting on a two-class hierarchy: before promotion, one 4KB block
// per touched block; after, one 32KB chunk.
func TestSampledTwoClass(t *testing.T) {
	pol := ladderFor(t, addr.BlockShift, addr.ChunkShift)
	s := mustSampled(t, pol, 1000, 4)
	// Touch three distinct blocks of chunk 0: below the half-or-more
	// threshold (4 of 8), so all stay small.
	for i := 0; i < 3; i++ {
		pol.Assign(addr.VA(i * addr.BlockSize))
		s.Step(addr.VA(i * addr.BlockSize))
	}
	if got := s.Current(); got != 3*addr.BlockSize {
		t.Fatalf("pre-promotion size = %d, want %d", got, 3*addr.BlockSize)
	}
	// Fourth block promotes the chunk; the working set becomes one 32KB
	// page.
	pol.Assign(addr.VA(3 * addr.BlockSize))
	s.Step(addr.VA(3 * addr.BlockSize))
	if got := s.Current(); got != addr.ChunkSize {
		t.Fatalf("post-promotion size = %d, want %d", got, addr.ChunkSize)
	}
	if s.Samples() != 1 {
		t.Fatalf("samples = %d, want 1 (period 4, 4 steps)", s.Samples())
	}
	// The single sample saw the post-promotion state.
	if got := s.Result().AvgBytes; got != float64(addr.ChunkSize) {
		t.Fatalf("avg = %v, want %v", got, float64(addr.ChunkSize))
	}
}

// TestSampledCountsUpperRegionOnce drives a three-class hierarchy until
// a class-2 region is mapped and checks its size is counted once even
// though several of its chunks are active.
func TestSampledCountsUpperRegionOnce(t *testing.T) {
	pol := ladderFor(t, addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	s := mustSampled(t, pol, 1000, 0)
	// 256KB = 8 chunks of 8 blocks. Touch every block of every chunk:
	// each chunk promotes to class 1, and once half the chunks are
	// mapped, the class-2 region promotes.
	for c := 0; c < 8; c++ {
		for b := 0; b < 8; b++ {
			va := addr.VA(c*addr.ChunkSize + b*addr.BlockSize)
			pol.Assign(va)
			s.Step(va)
		}
	}
	if !pol.MappedAt(2, 0) {
		t.Fatal("class-2 region 0 should be mapped")
	}
	if got := s.Current(); got != uint64(addr.Size256K) {
		t.Fatalf("size = %d, want one 256KB region = %d", got, uint64(addr.Size256K))
	}
	if s.Steps() != 64 {
		t.Fatalf("steps = %d, want 64", s.Steps())
	}
}

// TestSampledMixedClasses pins the dedupe walk with simultaneously
// active small blocks, a class-1 chunk, and a class-2 region.
func TestSampledMixedClasses(t *testing.T) {
	pol := ladderFor(t, addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	s := mustSampled(t, pol, 1000, 0)
	step := func(va addr.VA) { pol.Assign(va); s.Step(va) }
	// Region 1 (0x40000..0x80000): fill completely -> class 2.
	for c := 8; c < 16; c++ {
		for b := 0; b < 8; b++ {
			step(addr.VA(c*addr.ChunkSize + b*addr.BlockSize))
		}
	}
	// Chunk 0 of region 0: fill -> class 1 (region 0 has only 1 of 8
	// chunks mapped, stays unpromoted).
	for b := 0; b < 8; b++ {
		step(addr.VA(b * addr.BlockSize))
	}
	// Two lone blocks in chunk 2 (region 0): stay class 0.
	step(addr.VA(2 * addr.ChunkSize))
	step(addr.VA(2*addr.ChunkSize + addr.BlockSize))

	want := uint64(addr.Size256K) + uint64(addr.ChunkSize) + 2*addr.BlockSize
	if got := s.Current(); got != want {
		t.Fatalf("size = %d, want %d (256KB + 32KB + 2 blocks)", got, want)
	}
}

// TestSampledDefaultPeriod checks the zero-value period and that the
// average accumulates over samples.
func TestSampledDefaultPeriod(t *testing.T) {
	pol := ladderFor(t, addr.BlockShift, addr.ChunkShift)
	s := mustSampled(t, pol, 1000, 0)
	for i := 0; i < 2*DefaultSampleEvery; i++ {
		pol.Assign(0) // one block forever
		s.Step(0)
	}
	if s.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", s.Samples())
	}
	if got := s.Result().AvgBytes; got != float64(addr.BlockSize) {
		t.Fatalf("avg = %v, want one block", got)
	}
}

// shadowWSS is the brute-force working set the sampler estimates: the
// distinct blocks among the last T references, each active chunk
// charged at its top mapped class's region size (each region once) or,
// unmapped, at 4KB per active block.
func shadowWSS(window []addr.VA, pol policy.MultiSize) uint64 {
	classes := pol.SizeClasses()
	blocks := map[addr.PN]bool{}
	for _, va := range window {
		blocks[addr.Block(va)] = true
	}
	type region struct {
		k int
		r addr.PN
	}
	regions := map[region]bool{}
	var bytes uint64
	for b := range blocks { // an integer sum: iteration order does not matter
		c := classes.Up(b, 0, 1)
		if k := pol.TopMappedClass(c); k == 0 {
			bytes += addr.BlockSize
		} else if reg := (region{k, classes.Up(c, 1, k)}); !regions[reg] {
			regions[reg] = true
			bytes += uint64(classes.Size(k))
		}
	}
	return bytes
}

// TestSampledMatchesShadowWindow drives every multi-size policy through
// the sampler, sharing the policy's window where it has one of length T
// and stepping its own otherwise, and checks every sample against a
// brute-force recompute from a shadow copy of the last T references,
// and the average against the shadow samples' average.
func TestSampledMatchesShadowWindow(t *testing.T) {
	const T, every = 97, 7
	classes3 := addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	region := policy.NewRegion([]addr.PN{0, 1, 2, 9})
	for _, tc := range []struct {
		name   string
		pol    policy.MultiSize
		shared bool
	}{
		{"twosize shared", policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)), true},
		{"twosize own", policy.NewTwoSize(policy.DefaultTwoSizeConfig(2 * T)), false},
		{"region", region, false},
		{"cumulative", policy.NewNapot(policy.NapotConfig{
			Classes:    addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift),
			Thresholds: []int{4},
		}), false},
		{"ladder3 shared", policy.NewLadder(policy.DefaultLadderConfig(T, classes3)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSampled(t, tc.pol, T, every)
			if s.own == tc.shared {
				t.Fatalf("sampler steps its own window: %v, want %v", s.own, !tc.shared)
			}
			rng := rand.New(rand.NewSource(7))
			var window []addr.VA
			var acc float64
			var samples, promos, demos int
			for i := 0; i < 20000; i++ {
				// A hot set of chunks that drifts every 2000 references,
				// dense enough to promote and then left to demote.
				hot := addr.VA(i/2000) * 2 * addr.ChunkSize
				va := hot + addr.VA(rng.Intn(24*addr.BlocksPerChunk))*addr.BlockSize
				if rng.Intn(4) == 0 {
					va = addr.VA(rng.Intn(1 << 22))
				}
				switch tc.pol.Assign(va).Event {
				case policy.EventPromote:
					promos++
				case policy.EventDemote:
					demos++
				}
				s.Step(va)
				if window = append(window, va); len(window) > T {
					window = window[1:]
				}
				if s.Steps()%every != 0 {
					continue
				}
				want := shadowWSS(window, tc.pol)
				if got := s.Current(); got != want {
					t.Fatalf("step %d: sampled %d bytes, shadow window %d", i+1, got, want)
				}
				acc += float64(want)
				samples++
			}
			if uint64(samples) != s.Samples() {
				t.Fatalf("sampler took %d samples, want %d", s.Samples(), samples)
			}
			if got, want := s.Result().AvgBytes, acc/float64(samples); got != want {
				t.Fatalf("average %v, shadow average %v", got, want)
			}
			t.Logf("%d promotions, %d demotions", promos, demos)
		})
	}
}

// TestNewSampledRejects checks the windows NewSampled cannot build are
// errors, not panics.
func TestNewSampledRejects(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(100))
	bad := []int{0, -1}
	if tooLong := uint64(math.MaxUint32) + 1; uint64(math.MaxInt) >= tooLong {
		bad = append(bad, int(tooLong))
	}
	for _, T := range bad {
		if _, err := NewSampled(pol, T, 0); err == nil {
			t.Errorf("NewSampled(T=%d) succeeded, want an error", T)
		}
	}
}
