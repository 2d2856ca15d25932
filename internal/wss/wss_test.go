package wss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// naiveAvgWSS recomputes s(T, ps) for a static page size by brute force:
// after each reference, scan the last T references and sum distinct pages.
func naiveAvgWSS(refs []addr.VA, T uint64, shift uint) float64 {
	var acc uint64
	for t := range refs {
		start := 0
		if uint64(t+1) > T {
			start = t + 1 - int(T)
		}
		pages := map[addr.PN]bool{}
		for _, va := range refs[start : t+1] {
			pages[addr.Page(va, shift)] = true
		}
		acc += uint64(len(pages)) * (1 << shift)
	}
	return float64(acc) / float64(len(refs))
}

func TestStaticMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	refs := make([]addr.VA, 2000)
	for i := range refs {
		// Mix of hot locality and scattered tail.
		if rng.Intn(3) == 0 {
			refs[i] = addr.VA(rng.Intn(1 << 18))
		} else {
			refs[i] = addr.VA(rng.Intn(1 << 14))
		}
	}
	for _, T := range []uint64{1, 10, 100, 500, 5000} {
		shifts := []uint{addr.Shift4K, addr.Shift8K, addr.Shift32K}
		s := NewStatic(T, 0, shifts...)
		for _, va := range refs {
			s.Step(va)
		}
		got := s.Finish()
		if s.Steps() != uint64(len(refs)) {
			t.Fatalf("Steps = %d", s.Steps())
		}
		for i, shift := range shifts {
			want := naiveAvgWSS(refs, T, shift)
			if math.Abs(got[i].AvgBytes-want) > 1e-6 {
				t.Fatalf("T=%d shift=%d: got %v want %v", T, shift, got[i].AvgBytes, want)
			}
		}
	}
}

func TestStaticSchemeNames(t *testing.T) {
	s := NewStatic(10, 0, addr.Shift4K, addr.Shift32K)
	s.Step(0)
	res := s.Finish()
	if res[0].Scheme != "4KB" || res[1].Scheme != "32KB" {
		t.Fatalf("schemes: %v %v", res[0].Scheme, res[1].Scheme)
	}
}

func TestStaticSinglePageConstantStream(t *testing.T) {
	// One page referenced k times: in the working set at every step, so
	// average WSS = page size exactly.
	s := NewStatic(100, 0, addr.Shift4K)
	for i := 0; i < 1000; i++ {
		s.Step(addr.VA(0x123))
	}
	got := s.Finish()[0].AvgBytes
	if got != float64(addr.BlockSize) {
		t.Fatalf("avg = %v, want %v", got, addr.BlockSize)
	}
}

func TestStaticEmptyStream(t *testing.T) {
	s := NewStatic(10, 0, addr.Shift4K)
	if got := s.Finish()[0].AvgBytes; got != 0 {
		t.Fatalf("empty stream avg = %v", got)
	}
}

func TestStaticPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero T", func() { NewStatic(0, 0, addr.Shift4K) })
	mustPanic("no shifts", func() { NewStatic(10, 0) })
	mustPanic("step after finish", func() {
		s := NewStatic(10, 0, addr.Shift4K)
		s.Finish()
		s.Step(0)
	})
	mustPanic("double finish", func() {
		s := NewStatic(10, 0, addr.Shift4K)
		s.Finish()
		s.Finish()
	})
}

func TestNormalized(t *testing.T) {
	base := Result{Scheme: "4KB", AvgBytes: 100}
	r := Result{Scheme: "32KB", AvgBytes: 167}
	if got := r.Normalized(base); got != 1.67 {
		t.Fatalf("normalized = %v", got)
	}
	if got := r.Normalized(Result{}); got != 0 {
		t.Fatalf("normalized vs zero base = %v", got)
	}
}

// naiveTwoSizeWSS recomputes the two-page-scheme WSS after each reference
// by brute force, replaying the policy's chunk mapping.
func naiveTwoSizeWSS(refs []addr.VA, cfg policy.TwoSizeConfig) float64 {
	pol := policy.NewTwoSize(cfg)
	var acc uint64
	for t, va := range refs {
		pol.Assign(va)
		// Window contents by brute force.
		start := 0
		if t+1 > cfg.T {
			start = t + 1 - cfg.T
		}
		blocks := map[addr.PN]bool{}
		for _, v := range refs[start : t+1] {
			blocks[addr.Block(v)] = true
		}
		chunkBlocks := map[addr.PN]int{}
		for b := range blocks {
			chunkBlocks[addr.ChunkOfBlock(b)]++
		}
		var w uint64
		for c, n := range chunkBlocks {
			if pol.IsLarge(c) {
				w += addr.ChunkSize
			} else {
				w += uint64(n) * addr.BlockSize
			}
		}
		acc += w
	}
	return float64(acc) / float64(len(refs))
}

func TestTwoSizeMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, T := range []int{5, 50, 300} {
			rng := rand.New(rand.NewSource(seed))
			refs := make([]addr.VA, 1500)
			for i := range refs {
				switch rng.Intn(3) {
				case 0: // dense chunk traffic → promotions
					refs[i] = addr.VA(rng.Intn(4 * addr.ChunkSize))
				case 1: // sparse singles
					refs[i] = addr.VA(uint64(10+rng.Intn(50))<<addr.ChunkShift) +
						addr.VA(rng.Intn(addr.BlockSize))
				default: // medium density
					refs[i] = addr.VA(100<<addr.ChunkShift) +
						addr.VA(rng.Intn(3*addr.BlockSize))
				}
			}
			cfg := policy.DefaultTwoSizeConfig(T)
			pol := policy.NewTwoSize(cfg)
			ts := NewTwoSize(pol)
			for _, va := range refs {
				ts.Observe(pol.Assign(va))
			}
			got := ts.Result().AvgBytes
			want := naiveTwoSizeWSS(refs, cfg)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("seed=%d T=%d: got %v want %v", seed, T, got, want)
			}
			if ts.Steps() != uint64(len(refs)) {
				t.Fatalf("Steps = %d", ts.Steps())
			}
		}
	}
}

func TestTwoSizeCurrent(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(100))
	ts := NewTwoSize(pol)
	// One block in a small chunk.
	ts.Observe(pol.Assign(addr.VA(0)))
	if got := ts.Current(); got != addr.BlockSize {
		t.Fatalf("current = %d, want one block", got)
	}
	// Promote the chunk by touching 4 blocks.
	for i := 1; i < 4; i++ {
		ts.Observe(pol.Assign(addr.VA(i * addr.BlockSize)))
	}
	if got := ts.Current(); got != addr.ChunkSize {
		t.Fatalf("current after promotion = %d, want one chunk", got)
	}
}

func TestTwoSizeResultName(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(10))
	ts := NewTwoSize(pol)
	if ts.Result().Scheme != "4KB/32KB" {
		t.Fatalf("scheme = %q", ts.Result().Scheme)
	}
	if ts.Result().AvgBytes != 0 {
		t.Fatal("empty average should be 0")
	}
}

func TestTwoSizeRejectsSecondCalculator(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(10))
	NewTwoSize(pol)
	defer func() {
		if recover() == nil {
			t.Fatal("second calculator should panic")
		}
	}()
	NewTwoSize(pol)
}

// Paper Section 3.4: the two-page working set is at most 2x the 4KB
// working set (promotion needs >= half the chunk active), and at least
// as large (large pages can only add internal fragmentation).
func TestTwoSizeBoundedByDoubling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	T := 200
	refs := make([]addr.VA, 4000)
	for i := range refs {
		refs[i] = addr.VA(rng.Intn(1 << 19))
	}
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	ts := NewTwoSize(pol)
	for step, va := range refs {
		ts.Observe(pol.Assign(va))
		w4 := uint64(pol.Window().ActiveBlocks()) * addr.BlockSize
		cur := ts.Current()
		if cur < w4 || cur > 2*w4 {
			t.Fatalf("step %d: two-size WSS %d outside [%d, %d]", step, cur, w4, 2*w4)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		512:             "512B",
		2048:            "2.0KB",
		1 << 20:         "1.00MB",
		2.5 * (1 << 20): "2.50MB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: for any stream, larger page sizes never shrink the average
// working-set size in bytes (each small page is contained in a large
// one), and WSS is bounded above by footprint x size ratio.
func TestMonotoneInPageSizeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewStatic(64, 0, addr.Shift4K, addr.Shift8K, addr.Shift16K, addr.Shift32K)
		for _, r := range raw {
			s.Step(addr.VA(r) << 7) // spread over a 8MB region
		}
		res := s.Finish()
		for i := 1; i < len(res); i++ {
			if res[i].AvgBytes+1e-9 < res[i-1].AvgBytes {
				return false
			}
			// Doubling the page size at most doubles the byte size.
			if res[i].AvgBytes > 2*res[i-1].AvgBytes+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
