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
			diffPolicies(t, tc.cfg, addrStream(200_000, 0x5DEECE66D), 1<<(26-tc.cfg.LargeShift))
		})
	}
}

// FuzzPolicyDifferential drives the live policy and the oracle with
// fuzzed configurations over short block streams: T in [1,4096],
// LargeShift in [13,16] and Threshold in [1, blocks per chunk], each
// in-range value standing for itself, and each stream byte naming one
// block of the first four chunks.
func FuzzPolicyDifferential(f *testing.F) {
	scan := make([]byte, 64) // every block of four 32KB chunks, twice
	for i := range scan {
		scan[i] = byte(i * 5 % 32)
	}
	for _, c := range []struct {
		T      uint16
		thr    uint8
		demote bool
		shift  uint8
	}{ // TestPolicyDifferential's configurations
		{2000, 4, true, 15}, {2000, 4, false, 15}, {1500, 2, true, 14}, {3000, 8, true, 16}, {2000, 1, true, 15},
	} {
		f.Add(c.T, c.thr, c.demote, c.shift, scan)
	}
	// The threshold's boundary: chunks holding 3, 4 and 5 of 8 blocks.
	f.Add(uint16(4096), uint8(4), true, uint8(15), []byte{0, 1, 2, 8, 9, 10, 11, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, T uint16, thr uint8, demote bool, shift uint8, blocks []byte) {
		ls := 13 + uint(shift-13)%4
		bpc := 1 << (ls - addr.BlockShift)
		cfg := policy.TwoSizeConfig{T: int(T-1)%4096 + 1, Threshold: int(thr-1)%bpc + 1, Demote: demote, LargeShift: ls}
		stream := make([]addr.VA, len(blocks))
		for i, b := range blocks {
			stream[i] = addr.VA(int(b)%(4*bpc)) << addr.BlockShift
		}
		diffPolicies(t, cfg, stream, 4)
	})
}

// diffPolicies drives the live policy and the oracle under cfg through
// stream, failing on the first Result that differs, on differing final
// counters, or on a chunk below chunks whose largeness differs.
func diffPolicies(t *testing.T, cfg policy.TwoSizeConfig, stream []addr.VA, chunks addr.PN) {
	t.Helper()
	live := policy.NewTwoSize(cfg)
	ref := tworef.NewTwoSize(cfg)
	for i, va := range stream {
		if got, want := live.Assign(va), ref.Assign(va); got != want {
			t.Fatalf("%+v step %d va %#x: live %+v, ref %+v", cfg, i, uint64(va), got, want)
		}
	}
	ls, rs := live.Stats(), ref.Stats()
	if ls.Refs != rs.Refs || ls.LargeRefs != rs.LargeRefs || ls.SmallRefs != rs.SmallRefs ||
		ls.Promotions != rs.Promotions || ls.Demotions != rs.Demotions ||
		ls.LargeChunks != rs.LargeChunks {
		t.Fatalf("%+v final stats diverge:\nlive %+v\nref  %+v", cfg, ls, rs)
	}
	for c := addr.PN(0); c < chunks; c++ {
		if live.IsLarge(c) != ref.IsLarge(c) {
			t.Fatalf("%+v chunk %d largeness diverges", cfg, c)
		}
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
		{"64-entry FA",
			tlb.Config{Entries: 64, Ways: 64},
			tworef.Config{Entries: 64, Ways: 64}},
		{"16-entry FA FIFO",
			tlb.Config{Entries: 16, Ways: 16, Repl: tlb.FIFO},
			tworef.Config{Entries: 16, Ways: 16, Repl: tworef.FIFO}},
		{"16-entry FA random, same seed",
			tlb.Config{Entries: 16, Ways: 16, Repl: tlb.Random, Seed: 7},
			tworef.Config{Entries: 16, Ways: 16, Repl: tworef.Random, Seed: 7}},
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

// TestPageTableDifferential drives the span-arena NTable over the
// 4KB/32KB hierarchy and the legacy dense-chunk table through one
// mirrored pseudorandom operation mix, comparing every walk, every
// error outcome, and the final statistics.
func TestPageTableDifferential(t *testing.T) {
	live := pagetable.NewNTable(addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift))
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
			ge, re := live.Map(0, b, f), ref.MapSmall(b, f)
			if (ge == nil) != (re == nil) {
				t.Fatalf("op %d MapSmall(%d): live err %v, ref err %v", i, b, ge, re)
			}
		case op < 7: // map large
			f := newFrame()
			ge, re := live.Map(1, c, f), ref.MapLarge(c, f)
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
			gf, gb, ge := live.Promote(1, c, f)
			rf, rc, re := ref.Promote(c, f)
			if (ge == nil) != (re == nil) || gb != uint64(rc)*addr.BlockSize {
				t.Fatalf("op %d Promote(%d): live (%d bytes, %v), ref (%d blocks, %v)", i, c, gb, ge, rc, re)
			}
			var frames []addr.PN
			for _, fr := range gf {
				if fr.Class != 0 {
					t.Fatalf("op %d Promote(%d): freed a class-%d mapping", i, c, fr.Class)
				}
				frames = append(frames, fr.Frame)
			}
			if fmt.Sprint(frames) != fmt.Sprint(rf) {
				t.Fatalf("op %d Promote(%d): freed lists diverge: live %v, ref %v", i, c, frames, rf)
			}
		default: // demote
			var frames [addr.BlocksPerChunk]addr.PN
			for j := range frames {
				frames[j] = newFrame()
			}
			gf, ge := live.Demote(1, c, frames[:])
			rf, re := ref.Demote(c, frames)
			if (ge == nil) != (re == nil) || gf != rf {
				t.Fatalf("op %d Demote(%d): live (%d, %v), ref (%d, %v)", i, c, gf, ge, rf, re)
			}
		}
		if g, r := live.MappedRegions(), ref.MappedChunks(); g != r {
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
