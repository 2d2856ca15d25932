package pagetable

import (
	"testing"
	"testing/quick"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// TestHashedLookupCycles pins the hashed handler's price: 10 fixed
// cycles, 6 per probe and 5 per chain link, on hits at either size and
// on misses, under both probe orders. One bucket makes every chain the
// whole table, in insertion order: small blocks 0 and 1, the large
// chunk 5, small block 100.
func TestHashedLookupCycles(t *testing.T) {
	small := func(b addr.PN) policy.Page { return policy.Page{Number: b, Shift: addr.BlockShift} }
	cases := []struct {
		name          string
		order         ProbeOrder
		va            addr.VA
		found         bool
		probes, links int
		cycles        float64
	}{
		{"small hit", SmallFirst, small(1).Base(), true, 1, 2, 26},
		{"small hit", LargeFirst, small(1).Base(), true, 2, 6, 52},
		{"large hit", SmallFirst, 5<<addr.ChunkShift + 0x1234, true, 2, 7, 57},
		{"large hit", LargeFirst, 5<<addr.ChunkShift + 0x1234, true, 1, 3, 31},
		{"miss", SmallFirst, 20 << addr.ChunkShift, false, 2, 8, 62},
		{"miss", LargeFirst, 20 << addr.ChunkShift, false, 2, 8, 62},
	}
	for _, tc := range cases {
		h, err := NewHashed(1, tc.order)
		if err != nil {
			t.Fatal(err)
		}
		h.Insert(small(0), 1)
		h.Insert(small(1), 2)
		h.Insert(policy.Page{Number: 5, Shift: addr.ChunkShift}, 3)
		h.Insert(small(100), 4)
		_, w := h.Lookup(tc.va)
		if w.Found != tc.found || w.Probes != tc.probes || w.ChainSteps != tc.links {
			t.Errorf("%s, %v: walk %+v, want found=%v after %d probes and %d links",
				tc.name, tc.order, w, tc.found, tc.probes, tc.links)
		}
		if want := 10 + 6*float64(w.Probes) + 5*float64(w.ChainSteps); w.Cycles != want || w.Cycles != tc.cycles {
			t.Errorf("%s, %v: %v cycles, want 10 + 6·%d + 5·%d = %v (table: %v)",
				tc.name, tc.order, w.Cycles, w.Probes, w.ChainSteps, want, tc.cycles)
		}
	}
}

func TestHashedTableValidation(t *testing.T) {
	if _, err := NewHashed(0, SmallFirst); err == nil {
		t.Fatal("zero buckets should fail")
	}
	if _, err := NewHashed(12, SmallFirst); err == nil {
		t.Fatal("non-power-of-two buckets should fail")
	}
	if SmallFirst.String() != "small-first" || LargeFirst.String() != "large-first" {
		t.Fatal("probe order names")
	}
}

func TestHashedInsertLookupRemove(t *testing.T) {
	h, err := NewHashed(64, SmallFirst)
	if err != nil {
		t.Fatal(err)
	}
	small := policy.Page{Number: addr.Block(0x5123), Shift: addr.BlockShift}
	large := policy.Page{Number: addr.Chunk(0x80000), Shift: addr.ChunkShift}
	h.Insert(small, 10)
	h.Insert(large, 20)

	pte, w := h.Lookup(0x5123)
	if !w.Found || w.Large || pte.Frame != 10 {
		t.Fatalf("small lookup: pte=%+v walk=%+v", pte, w)
	}
	if w.Probes != 1 {
		t.Fatalf("small-first order should find small pages on probe 1, got %d", w.Probes)
	}
	pte, w = h.Lookup(0x80000 + 0x1234)
	if !w.Found || !w.Large || pte.Frame != 20 {
		t.Fatalf("large lookup: pte=%+v walk=%+v", pte, w)
	}
	if w.Probes != 2 {
		t.Fatalf("small-first order needs 2 probes for large pages, got %d", w.Probes)
	}
	// Miss: both probes, charged anyway.
	_, w = h.Lookup(0xdead0000)
	if w.Found || w.Probes != 2 {
		t.Fatalf("miss walk: %+v", w)
	}
	if st := h.Stats(); st.Lookups != 3 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if !h.Remove(small) {
		t.Fatal("remove should succeed")
	}
	if h.Remove(small) {
		t.Fatal("double remove should fail")
	}
	if _, w := h.Lookup(0x5123); w.Found {
		t.Fatal("removed mapping still found")
	}
}

func TestHashedProbeOrderFavoursLargePages(t *testing.T) {
	hs, _ := NewHashed(64, SmallFirst)
	hl, _ := NewHashed(64, LargeFirst)
	large := policy.Page{Number: 2, Shift: addr.ChunkShift}
	hs.Insert(large, 1)
	hl.Insert(large, 1)
	va := addr.VA(2 << addr.ChunkShift)
	_, ws := hs.Lookup(va)
	_, wl := hl.Lookup(va)
	if wl.Cycles >= ws.Cycles {
		t.Fatalf("large-first (%v cycles) should beat small-first (%v) on large pages",
			wl.Cycles, ws.Cycles)
	}
	if wl.Probes != 1 || ws.Probes != 2 {
		t.Fatalf("probes: large-first %d, small-first %d", wl.Probes, ws.Probes)
	}
}

func TestHashedInsertReplaces(t *testing.T) {
	h, _ := NewHashed(16, SmallFirst)
	p := policy.Page{Number: 7, Shift: addr.BlockShift}
	h.Insert(p, 1)
	h.Insert(p, 2)
	pte, w := h.Lookup(addr.VA(7 << addr.BlockShift))
	if !w.Found || pte.Frame != 2 {
		t.Fatalf("replacement failed: %+v", pte)
	}
	if _, entries := h.Load(); entries != 1 {
		t.Fatalf("entries = %d after replace", entries)
	}
}

func TestHashedLoadDistribution(t *testing.T) {
	h, _ := NewHashed(256, SmallFirst)
	for i := 0; i < 512; i++ {
		h.Insert(policy.Page{Number: addr.PN(i), Shift: addr.BlockShift}, addr.PN(i))
	}
	avg, entries := h.Load()
	if entries != 512 {
		t.Fatalf("entries = %d", entries)
	}
	// A decent hash keeps chains near the load factor (2).
	if avg > 4 {
		t.Fatalf("average chain %v too long for load factor 2", avg)
	}
	empty, _ := NewHashed(16, SmallFirst)
	if a, n := empty.Load(); a != 0 || n != 0 {
		t.Fatal("empty table load")
	}
}

func TestSTLBValidation(t *testing.T) {
	if _, err := NewSTLB(0); err == nil {
		t.Fatal("zero slots should fail")
	}
	if _, err := NewSTLB(3); err == nil {
		t.Fatal("non-power-of-two slots should fail")
	}
}

func TestSTLBHitPaths(t *testing.T) {
	s, err := NewSTLB(64)
	if err != nil {
		t.Fatal(err)
	}
	small := policy.Page{Number: addr.Block(0x3000), Shift: addr.BlockShift}
	large := policy.Page{Number: addr.Chunk(0x100000), Shift: addr.ChunkShift}
	s.Fill(small, PTE{Frame: 5, Valid: true})
	s.Fill(large, PTE{Frame: 9, Valid: true, Large: true})

	pte, hit, cyc := s.Lookup(0x3000)
	if !hit || pte.Frame != 5 || cyc != STLBProbeCycles {
		t.Fatalf("small hit: %+v hit=%v cyc=%v", pte, hit, cyc)
	}
	pte, hit, cyc = s.Lookup(0x100000 + 0x4567)
	if !hit || pte.Frame != 9 || cyc != 2*STLBProbeCycles {
		t.Fatalf("large hit: %+v hit=%v cyc=%v", pte, hit, cyc)
	}
	_, hit, cyc = s.Lookup(0xdeadbeef000)
	if hit || cyc != 2*STLBProbeCycles {
		t.Fatalf("miss: hit=%v cyc=%v", hit, cyc)
	}
	st := s.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.SecondProbeHits != 1 || st.Fills != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if s.HitRatio() != 2.0/3.0 {
		t.Fatalf("hit ratio = %v", s.HitRatio())
	}
}

func TestSTLBInvalidateChunk(t *testing.T) {
	s, _ := NewSTLB(64)
	// Fill the chunk's large entry and two of its small entries.
	c := addr.PN(3)
	s.Fill(policy.Page{Number: c, Shift: addr.ChunkShift}, PTE{Valid: true, Large: true})
	first := addr.FirstBlock(c)
	s.Fill(policy.Page{Number: first, Shift: addr.BlockShift}, PTE{Valid: true})
	s.Fill(policy.Page{Number: first + 5, Shift: addr.BlockShift}, PTE{Valid: true})
	if n := s.InvalidateChunk(c); n != 3 {
		t.Fatalf("invalidated %d entries, want 3", n)
	}
	if n := s.InvalidateChunk(c); n != 0 {
		t.Fatalf("second shootdown removed %d", n)
	}
	if _, hit, _ := s.Lookup(addr.VA(uint64(first) << addr.BlockShift)); hit {
		t.Fatal("invalidated entry still hits")
	}
}

func TestSTLBConflictEviction(t *testing.T) {
	s, _ := NewSTLB(4) // tiny: pages 0 and 4 share slot 0
	p0 := policy.Page{Number: 0, Shift: addr.BlockShift}
	p4 := policy.Page{Number: 4, Shift: addr.BlockShift}
	s.Fill(p0, PTE{Frame: 1, Valid: true})
	s.Fill(p4, PTE{Frame: 2, Valid: true})
	if _, hit, _ := s.Lookup(0); hit {
		t.Fatal("page 0 should have been displaced by page 4")
	}
	if pte, hit, _ := s.Lookup(addr.VA(4 << addr.BlockShift)); !hit || pte.Frame != 2 {
		t.Fatal("page 4 should hit")
	}
	if !s.Invalidate(p4) {
		t.Fatal("invalidate resident entry")
	}
	if s.Invalidate(p0) {
		t.Fatal("invalidate of displaced entry should miss")
	}
}

// Model-based property test: the hashed table agrees with a plain map
// under arbitrary insert/remove/lookup interleavings of both page sizes.
func TestHashedAgainstMapModel(t *testing.T) {
	f := func(ops []uint16, seed uint16) bool {
		h, err := NewHashed(64, ProbeOrder(seed%2))
		if err != nil {
			return false
		}
		model := map[policy.Page]addr.PN{}
		for i, op := range ops {
			// Derive a pseudo-random page from the op.
			shift := uint(addr.BlockShift)
			if op&1 == 1 {
				shift = addr.ChunkShift
			}
			p := policy.Page{Number: addr.PN(op >> 3 & 0x3F), Shift: shift}
			switch (op >> 1) & 0x3 {
			case 0, 1: // insert
				frame := addr.PN(i)
				h.Insert(p, frame)
				model[p] = frame
			case 2: // remove
				got := h.Remove(p)
				_, want := model[p]
				if got != want {
					return false
				}
				delete(model, p)
			default: // lookup
				// A VA lookup resolves through EITHER page size, in probe
				// order; mirror that in the model.
				va := addr.VA(uint64(p.Number) << p.Shift)
				smallP := policy.Page{Number: addr.Block(va), Shift: addr.BlockShift}
				largeP := policy.Page{Number: addr.Chunk(va), Shift: addr.ChunkShift}
				order := []policy.Page{smallP, largeP}
				if seed%2 == uint16(LargeFirst) {
					order = []policy.Page{largeP, smallP}
				}
				var wantFrame addr.PN
				wantFound := false
				wantLarge := false
				for _, cand := range order {
					if f, ok := model[cand]; ok {
						wantFrame, wantFound = f, true
						wantLarge = cand.Shift == addr.ChunkShift
						break
					}
				}
				pte, w := h.Lookup(va)
				if w.Found != wantFound {
					return false
				}
				if wantFound && (pte.Frame != wantFrame || pte.Large != wantLarge || w.Large != wantLarge) {
					return false
				}
			}
		}
		// Entry count agrees at the end.
		_, entries := h.Load()
		return entries == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
