package tworef_test

import (
	"fmt"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/tworef"
)

// xorshift is the test's deterministic reference-stream generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// addrStream generates a deterministic mixture of dense scans (which
// drive promotions), a warm medium region, and sparse background noise
// (which drives window expiry and demotions).
func addrStream(n int, seed uint64) []addr.VA {
	rng := xorshift(seed)
	vas := make([]addr.VA, n)
	var scan uint64
	for i := range vas {
		switch rng.next() % 10 {
		case 0, 1, 2, 3, 4: // dense scan: walks chunk after chunk
			scan += addr.BlockSize / 4
			vas[i] = addr.VA(scan % (1 << 22))
		case 5, 6, 7: // warm 2MB region
			vas[i] = addr.VA(1<<24 + rng.next()%(1<<21))
		default: // sparse 64MB background
			vas[i] = addr.VA(rng.next() % (1 << 26))
		}
	}
	return vas
}

// TestPolicyDifferential pins the N-size ladder behind the TwoSize shim
// against the pre-generalization policy, event for event: every Assign
// must return an identical Result (page, event, chunk, level) and the
// final counters must agree, across window/threshold/demotion/shift
// variants.
func TestPolicyDifferential(t *testing.T) {
	cases := []struct {
		name string
		cfg  policy.TwoSizeConfig
	}{
		{"paper default", policy.TwoSizeConfig{T: 2000, Threshold: 4, Demote: true, LargeShift: addr.Shift32K}},
		{"no demotion", policy.TwoSizeConfig{T: 2000, Threshold: 4, Demote: false, LargeShift: addr.Shift32K}},
		{"16KB large pages", policy.TwoSizeConfig{T: 1500, Threshold: 2, Demote: true, LargeShift: 14}},
		{"64KB large pages", policy.TwoSizeConfig{T: 3000, Threshold: 8, Demote: true, LargeShift: 16}},
		{"promote on first touch", policy.TwoSizeConfig{T: 2000, Threshold: 1, Demote: true, LargeShift: addr.Shift32K}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := policy.NewTwoSize(tc.cfg)
			ref := tworef.NewTwoSize(tc.cfg)
			for i, va := range addrStream(200_000, 0x5DEECE66D) {
				got, want := live.Assign(va), ref.Assign(va)
				if got != want {
					t.Fatalf("step %d va %#x: live %+v, ref %+v", i, uint64(va), got, want)
				}
			}
			ls, rs := live.Stats(), ref.Stats()
			if ls.Refs != rs.Refs || ls.LargeRefs != rs.LargeRefs || ls.SmallRefs != rs.SmallRefs ||
				ls.Promotions != rs.Promotions || ls.Demotions != rs.Demotions ||
				ls.LargeChunks != rs.LargeChunks {
				t.Fatalf("final stats diverge:\nlive %+v\nref  %+v", ls, rs)
			}
			for c := addr.PN(0); c < 1<<(26-tc.cfg.LargeShift); c++ {
				if live.IsLarge(c) != ref.IsLarge(c) {
					t.Fatalf("chunk %d largeness diverges", c)
				}
			}
		})
	}
}

// TestTLBDifferential pins the per-class TLB rewrite against the legacy
// two-size implementation: identical hit/miss decisions on every access,
// identical invalidation counts, and identical final statistics, across
// index schemes, associativities, replacement policies and non-default
// shift pairs.
func TestTLBDifferential(t *testing.T) {
	cases := []struct {
		name string
		live tlb.Config
		ref  tworef.Config
	}{
		{"16-entry FA",
			tlb.Config{Entries: 16, Ways: 16},
			tworef.Config{Entries: 16, Ways: 16}},
		{"16-entry 2-way exact",
			tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact},
			tworef.Config{Entries: 16, Ways: 2, Index: tworef.IndexExact}},
		{"32-entry 2-way large-index",
			tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexLarge},
			tworef.Config{Entries: 32, Ways: 2, Index: tworef.IndexLarge}},
		{"16-entry 4-way small-index",
			tlb.Config{Entries: 16, Ways: 4, Index: tlb.IndexSmall},
			tworef.Config{Entries: 16, Ways: 4, Index: tworef.IndexSmall}},
		{"FIFO replacement",
			tlb.Config{Entries: 16, Ways: 2, Repl: tlb.FIFO},
			tworef.Config{Entries: 16, Ways: 2, Repl: tworef.FIFO}},
		{"random replacement, same seed",
			tlb.Config{Entries: 16, Ways: 2, Repl: tlb.Random, Seed: 7},
			tworef.Config{Entries: 16, Ways: 2, Repl: tworef.Random, Seed: 7}},
		{"8KB/64KB shifts",
			tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact, Shifts: []uint{13, 16}},
			tworef.Config{Entries: 16, Ways: 2, Index: tworef.IndexExact, SmallShift: 13, LargeShift: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, err := tlb.New(tc.live)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tworef.New(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			largeShift := tc.ref.LargeShift
			if largeShift == 0 {
				largeShift = addr.Shift32K
			}
			pol := tworef.NewTwoSize(policy.TwoSizeConfig{
				T: 2000, Threshold: 4, Demote: true, LargeShift: largeShift,
			})
			bpc := addr.PN(1) << (largeShift - addr.BlockShift)
			for i, va := range addrStream(200_000, 0xB5297A4D) {
				res := pol.Assign(va)
				switch res.Event {
				case policy.EventPromote:
					first := res.Chunk * bpc
					for b := addr.PN(0); b < bpc; b++ {
						p := policy.Page{Number: first + b, Shift: addr.BlockShift}
						if gi, ri := live.Invalidate(p), ref.Invalidate(p); gi != ri {
							t.Fatalf("step %d: invalidate %+v: live %d, ref %d", i, p, gi, ri)
						}
					}
				case policy.EventDemote:
					p := policy.Page{Number: res.Chunk, Shift: largeShift}
					if gi, ri := live.Invalidate(p), ref.Invalidate(p); gi != ri {
						t.Fatalf("step %d: invalidate %+v: live %d, ref %d", i, p, gi, ri)
					}
				}
				if got, want := live.Access(va, res.Page), ref.Access(va, res.Page); got != want {
					t.Fatalf("step %d va %#x page %+v: live hit=%t, ref hit=%t",
						i, uint64(va), res.Page, got, want)
				}
				if i%50_000 == 49_999 {
					live.Flush()
					ref.Flush()
				}
			}
			ls, rs := live.Stats(), ref.Stats()
			diff := map[string][2]uint64{
				"accesses":      {ls.Accesses, rs.Accesses},
				"smallHits":     {ls.HitsByClass[0], rs.SmallHits},
				"largeHits":     {ls.HitsByClass[1], rs.LargeHits},
				"smallMisses":   {ls.MissesByClass[0], rs.SmallMisses},
				"largeMisses":   {ls.MissesByClass[1], rs.LargeMisses},
				"invalidations": {ls.Invalidations, rs.Invalidations},
				"reprobes":      {ls.Reprobes(), rs.Reprobes()},
			}
			for name, v := range diff {
				if v[0] != v[1] {
					t.Errorf("%s: live %d, ref %d", name, v[0], v[1])
				}
			}
		})
	}
}

// TestPageTableDifferential drives the span-arena NTable (behind the
// two-size Table shim) and the legacy dense-chunk table through one
// mirrored pseudorandom operation mix, comparing every walk, every
// error outcome, and the final statistics.
func TestPageTableDifferential(t *testing.T) {
	live := pagetable.New()
	ref := tworef.NewTable()
	rng := xorshift(0x2545F4914F6CDD1D)
	const chunks = 64
	var frame addr.PN
	newFrame := func() addr.PN { frame++; return frame }
	for i := 0; i < 150_000; i++ {
		op := rng.next() % 16
		c := addr.PN(rng.next() % chunks)
		b := c*addr.BlocksPerChunk + addr.PN(rng.next()%addr.BlocksPerChunk)
		va := addr.VA(uint64(b)<<addr.BlockShift | rng.next()%addr.BlockSize)
		switch {
		case op < 5: // map small
			f := newFrame()
			ge, re := live.MapSmall(b, f), ref.MapSmall(b, f)
			if (ge == nil) != (re == nil) {
				t.Fatalf("op %d MapSmall(%d): live err %v, ref err %v", i, b, ge, re)
			}
		case op < 7: // map large
			f := newFrame()
			ge, re := live.MapLarge(c, f), ref.MapLarge(c, f)
			if (ge == nil) != (re == nil) {
				t.Fatalf("op %d MapLarge(%d): live err %v, ref err %v", i, c, ge, re)
			}
		case op < 9: // unmap
			if g, r := live.Unmap(va), ref.Unmap(va); g != r {
				t.Fatalf("op %d Unmap(%#x): live %t, ref %t", i, uint64(va), g, r)
			}
		case op < 14: // lookup
			gp, gw := live.Lookup(va)
			rp, rw := ref.Lookup(va)
			if gp.Frame != rp.Frame || gp.Valid != rp.Valid || gp.Large != rp.Large {
				t.Fatalf("op %d Lookup(%#x): live PTE %+v, ref PTE %+v", i, uint64(va), gp, rp)
			}
			if gw.Found != rw.Found || gw.Levels != rw.Levels ||
				gw.Cycles != rw.Cycles || gw.Large != rw.Large {
				t.Fatalf("op %d Lookup(%#x): live walk %+v, ref walk %+v", i, uint64(va), gw, rw)
			}
		case op < 15: // promote
			f := newFrame()
			gf, gc, ge := live.Promote(c, f)
			rf, rc, re := ref.Promote(c, f)
			if (ge == nil) != (re == nil) || gc != rc {
				t.Fatalf("op %d Promote(%d): live (%d, %v), ref (%d, %v)", i, c, gc, ge, rc, re)
			}
			if fmt.Sprint(gf) != fmt.Sprint(rf) {
				t.Fatalf("op %d Promote(%d): freed lists diverge: live %v, ref %v", i, c, gf, rf)
			}
		default: // demote
			var frames [addr.BlocksPerChunk]addr.PN
			for j := range frames {
				frames[j] = newFrame()
			}
			gf, ge := live.Demote(c, frames)
			rf, re := ref.Demote(c, frames)
			if (ge == nil) != (re == nil) || gf != rf {
				t.Fatalf("op %d Demote(%d): live (%d, %v), ref (%d, %v)", i, c, gf, ge, rf, re)
			}
		}
		if g, r := live.MappedChunks(), ref.MappedChunks(); g != r {
			t.Fatalf("op %d: mapped chunks diverge: live %d, ref %d", i, g, r)
		}
	}
	gs, rs := live.Stats(), ref.Stats()
	if gs.Lookups != rs.Lookups || gs.Misses != rs.Misses ||
		gs.Promotions != rs.Promotions || gs.Demotions != rs.Demotions ||
		gs.CopiedBytes != rs.CopiedBytes {
		t.Fatalf("final stats diverge:\nlive %+v\nref  %+v", gs, rs)
	}
}
