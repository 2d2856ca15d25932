package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"twopage/internal/addr"
)

// ladderStream is a phased reference stream for ladders up to 2MB: each
// phase concentrates on a random span of 64KB to 4MB inside 16MB, so
// regions at every class fill and promote, then go cold and demote,
// with one reference in ten scattered over 64MB.
func ladderStream(n int, seed int64) []addr.VA {
	rng := rand.New(rand.NewSource(seed))
	spans := []uint64{64 << 10, 512 << 10, 2 << 20, 4 << 20}
	out := make([]addr.VA, n)
	var base, span uint64
	for i := range out {
		if i%4096 == 0 {
			span = spans[rng.Intn(len(spans))]
			base = uint64(rng.Int63n(16<<20)) &^ (addr.BlockSize - 1)
		}
		if rng.Intn(10) == 0 {
			out[i] = addr.VA(rng.Int63n(64 << 20))
			continue
		}
		out[i] = addr.VA(base + uint64(rng.Int63n(int64(span))))
	}
	return out
}

// TestLadderRandomized checks the N-class ladder against its own mapped
// state after every reference, for three- and four-class hierarchies
// with demotion on and off. Assign reuses the transition loop's probes
// when it resolves the page and probes again only below a transition;
// the two-class tworef oracle never reaches that second case. Each step
// must return the page of the largest class k >= 1 whose region
// MappedAt reports mapped, or else the 4KB block; a promotion must
// leave its region mapped and a demotion unmapped; and RefsByClass must
// sum to Refs.
func TestLadderRandomized(t *testing.T) {
	for _, classes := range []addr.SizeClasses{
		addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K),
		addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K, addr.Shift2M),
	} {
		for _, demote := range []bool{true, false} {
			// No ladder vetoes a promotion: "deny=false" names that.
			name := fmt.Sprintf("%s/demote=%v/deny=false", classes, demote)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultLadderConfig(1024, classes)
				cfg.Demote = demote
				checkLadder(t, NewLadder(cfg), cfg, ladderStream(1<<17, int64(classes.N())))
			})
		}
	}
}

func checkLadder(t *testing.T, l *Ladder, cfg LadderConfig, stream []addr.VA) {
	t.Helper()
	n := cfg.Classes.N()
	var reprobed int // transitions resolved below their level
	for i, va := range stream {
		res := l.Assign(va)
		want := Page{Number: addr.Block(va), Shift: addr.BlockShift}
		for k := n - 1; k >= 1; k-- {
			if r := cfg.Classes.Page(va, k); l.MappedAt(k, r) {
				want = Page{Number: r, Shift: cfg.Classes.Shift(k)}
				break
			}
		}
		if res.Page != want {
			t.Fatalf("ref %d (va %#x): page %v, want %v (result %+v)", i, uint64(va), res.Page, want, res)
		}
		switch res.Event {
		case EventPromote:
			if !l.MappedAt(int(res.Level), res.Chunk) {
				t.Fatalf("ref %d: promoted class-%d region %#x is not mapped", i, res.Level, uint64(res.Chunk))
			}
		case EventDemote:
			if !cfg.Demote {
				t.Fatalf("ref %d: demotion with Demote off", i)
			}
			if l.MappedAt(int(res.Level), res.Chunk) {
				t.Fatalf("ref %d: demoted class-%d region %#x is still mapped", i, res.Level, uint64(res.Chunk))
			}
		}
		if res.Event != EventNone && res.Level >= 2 && res.Page.Shift < cfg.Classes.Shift(int(res.Level)) {
			reprobed++
		}
	}
	st := l.Stats()
	var sum uint64
	for _, c := range st.RefsByClass {
		sum += c
	}
	if sum != st.Refs || st.Refs != uint64(len(stream)) {
		t.Fatalf("RefsByClass sums to %d, Refs = %d, stream = %d", sum, st.Refs, len(stream))
	}
	// The stream must exercise what the checks are for.
	for k := 1; k < n; k++ {
		if st.Promotions[k] == 0 {
			t.Errorf("no class-%d promotions: %+v", k, st)
		}
		if cfg.Demote && st.Demotions[k] == 0 {
			t.Errorf("no class-%d demotions: %+v", k, st)
		}
	}
	if cfg.Demote && reprobed == 0 {
		t.Error("no transition at class 2 or above resolved to a smaller page")
	}
}
