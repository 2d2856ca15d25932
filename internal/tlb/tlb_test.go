package tlb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

func smallPage(va addr.VA) policy.Page {
	return policy.Page{Number: addr.Page(va, addr.Shift4K), Shift: addr.Shift4K}
}

func largePage(va addr.VA) policy.Page {
	return policy.Page{Number: addr.Page(va, addr.Shift32K), Shift: addr.Shift32K}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0},
		{Entries: -4},
		{Entries: 16, Ways: 3},  // 16 % 3 != 0
		{Entries: 24, Ways: 2},  // 12 sets: not a power of two
		{Entries: 16, Ways: -2}, // negative ways
		{Entries: 16, Ways: 2, Shifts: []uint{15, 12}}, // inverted
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	good := Config{Entries: 16, Ways: 2}
	tl, err := New(good)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Sets() != 8 || tl.Entries() != 16 {
		t.Fatalf("sets=%d entries=%d", tl.Sets(), tl.Entries())
	}
	c := tl.Config()
	if len(c.Shifts) != 2 || c.Shifts[0] != addr.Shift4K || c.Shifts[1] != addr.Shift32K {
		t.Fatalf("default shifts not applied: %+v", c)
	}
	if cl := tl.Classes(); cl.N() != 2 || cl.Shift(0) != addr.Shift4K || cl.Shift(1) != addr.Shift32K {
		t.Fatalf("classes: %v", tl.Classes())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{Entries: -1})
}

func TestNames(t *testing.T) {
	if got := NewFullyAssoc(16).Name(); got != "16-entry fully associative" {
		t.Errorf("FA name = %q", got)
	}
	tl := MustNew(Config{Entries: 32, Ways: 2, Index: IndexExact})
	if got := tl.Name(); got != "32-entry 2-way (exact index)" {
		t.Errorf("SA name = %q", got)
	}
	if IndexSmall.String() != "small index" || IndexLarge.String() != "large index" {
		t.Error("index scheme names wrong")
	}
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Error("replacement names wrong")
	}
}

func TestFullyAssocLRU(t *testing.T) {
	tl := NewFullyAssoc(2)
	a, b, c := addr.VA(0x1000), addr.VA(0x2000), addr.VA(0x3000)
	if tl.Access(a, smallPage(a)) {
		t.Fatal("first access must miss")
	}
	if tl.Access(b, smallPage(b)) {
		t.Fatal("first access must miss")
	}
	if !tl.Access(a, smallPage(a)) {
		t.Fatal("a should hit")
	}
	// c evicts LRU = b.
	if tl.Access(c, smallPage(c)) {
		t.Fatal("c must miss")
	}
	if tl.Access(b, smallPage(b)) {
		t.Fatal("b should have been evicted")
	}
	st := tl.Stats()
	if st.Accesses != 5 || st.Hits() != 1 || st.Misses() != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// A fully associative two-page TLB distinguishes page sizes in the tag:
// small page number N and large page number N are different entries.
func TestTagIncludesPageSize(t *testing.T) {
	tl := NewFullyAssoc(4)
	p4 := policy.Page{Number: 5, Shift: addr.Shift4K}
	p32 := policy.Page{Number: 5, Shift: addr.Shift32K}
	tl.Access(addr.VA(5<<addr.Shift4K), p4)
	if tl.Access(addr.VA(5<<addr.Shift32K), p32) {
		t.Fatal("same page number at different size must not hit")
	}
	if !tl.Contains(p4) || !tl.Contains(p32) {
		t.Fatal("both entries should coexist")
	}
}

// Paper Figure 2.1 / Section 2.2: indexing by the small page number maps
// one large page into multiple sets depending on offset bits.
func TestIndexSmallReplicatesLargePages(t *testing.T) {
	tl := MustNew(Config{Entries: 4, Ways: 2, Index: IndexSmall}) // 2 sets, bit<12>
	lp := largePage(0)
	// Access offset 0 (bit12=0 → set 0) then offset 4KB (bit12=1 → set 1).
	if tl.Access(addr.VA(0x0000), lp) {
		t.Fatal("miss expected")
	}
	if tl.Access(addr.VA(0x1000), lp) {
		t.Fatal("second copy in other set: miss expected — this is the defect")
	}
	// Both copies now resident.
	if !tl.Access(addr.VA(0x0000), lp) || !tl.Access(addr.VA(0x1000), lp) {
		t.Fatal("both copies should hit now")
	}
	if n := tl.Invalidate(lp); n != 2 {
		t.Fatalf("Invalidate removed %d copies, want 2", n)
	}
}

// Paper Section 2.2: indexing by the large page number makes eight
// consecutive small pages compete for the same set.
func TestIndexLargeCollidesSmallPages(t *testing.T) {
	tl := MustNew(Config{Entries: 4, Ways: 2, Index: IndexLarge}) // 2 sets, bit<15>
	// Small pages 0..7 share large-page number 0 → all map to set 0.
	// Round-robin over 3 of them with 2 ways: every access misses (LRU).
	misses := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			va := addr.VA(i << addr.Shift4K)
			if !tl.Access(va, smallPage(va)) {
				misses++
			}
		}
	}
	if misses != 30 {
		t.Fatalf("expected LRU thrash (30 misses), got %d", misses)
	}
	// Under exact/small indexing the same workload fits easily.
	tl2 := MustNew(Config{Entries: 4, Ways: 2, Index: IndexExact})
	misses = 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			va := addr.VA(i << addr.Shift4K)
			if !tl2.Access(va, smallPage(va)) {
				misses++
			}
		}
	}
	if misses != 3 {
		t.Fatalf("exact index should only take 3 cold misses, got %d", misses)
	}
}

// Exact indexing places small pages by bits<12+> and large pages by
// bits<15+>; check the set math via observable conflicts.
func TestIndexExactSetSelection(t *testing.T) {
	tl := MustNew(Config{Entries: 2, Ways: 1, Index: IndexExact}) // 2 sets
	// Large pages 0 and 1: bit<15> differs → different sets, both stay.
	l0, l1 := largePage(0), largePage(1<<addr.Shift32K)
	tl.Access(0, l0)
	tl.Access(1<<addr.Shift32K, l1)
	if !tl.Contains(l0) || !tl.Contains(l1) {
		t.Fatal("large pages 0 and 1 should occupy different sets")
	}
	// Small page with bit<12> = 0 conflicts with l0 (set 0).
	s := smallPage(addr.VA(2 << addr.Shift4K)) // page 2: bit12 of page number... page number 2 → low bit 0 → set 0
	tl.Access(addr.VA(2<<addr.Shift4K), s)
	if tl.Contains(l0) {
		t.Fatal("small page should have evicted l0 from set 0")
	}
	if !tl.Contains(l1) {
		t.Fatal("l1 in set 1 should survive")
	}
}

// The recent-way check only orders the search: once the hinted way is
// invalidated and refilled with another page, the old page misses.
func TestRecentWayHintIsVerified(t *testing.T) {
	tl := NewFullyAssoc(4)
	a, b := smallPage(0x1000), smallPage(0x2000)
	tl.Access(0x1000, a)
	if !tl.Access(0x1000, a) {
		t.Fatal("a should hit")
	}
	if n := tl.Invalidate(a); n != 1 {
		t.Fatalf("Invalidate removed %d entries, want 1", n)
	}
	if tl.Access(0x2000, b) {
		t.Fatal("b must miss")
	}
	if w := tl.recent[0]; tl.tags[w] != tagOf(b) {
		t.Fatalf("b went to way %d, not the hinted way %d", slices.Index(tl.tags, tagOf(b)), w)
	}
	if tl.Access(0x1000, a) {
		t.Fatal("a was invalidated, yet hit")
	}
	if st := tl.Stats(); st.Hits() != 1 || st.Misses() != 3 || st.Invalidations != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tl := NewFullyAssoc(8)
	for i := 0; i < 8; i++ {
		va := addr.VA(i << addr.Shift4K)
		tl.Access(va, smallPage(va))
	}
	if tl.Occupied() != 8 {
		t.Fatalf("occupied = %d", tl.Occupied())
	}
	if n := tl.Invalidate(smallPage(addr.VA(3 << addr.Shift4K))); n != 1 {
		t.Fatalf("Invalidate = %d", n)
	}
	if tl.Occupied() != 7 {
		t.Fatalf("occupied = %d after invalidate", tl.Occupied())
	}
	if n := tl.Invalidate(smallPage(addr.VA(100 << addr.Shift4K))); n != 0 {
		t.Fatalf("Invalidate of absent page = %d", n)
	}
	if tl.Stats().Invalidations != 1 {
		t.Fatalf("invalidation count = %d", tl.Stats().Invalidations)
	}
	tl.Flush()
	if tl.Occupied() != 0 {
		t.Fatal("flush should empty the TLB")
	}
	va := addr.VA(0)
	if tl.Access(va, smallPage(va)) {
		t.Fatal("post-flush access must miss")
	}
}

func TestFIFOvsLRU(t *testing.T) {
	// Access pattern distinguishing FIFO from LRU in a 2-entry set:
	// load A, B; touch A (refresh); insert C.
	// LRU evicts B; FIFO evicts A.
	run := func(repl Replacement) (aSurvives bool) {
		tl := MustNew(Config{Entries: 2, Ways: 2, Repl: repl})
		a, b, c := addr.VA(0x1000), addr.VA(0x2000), addr.VA(0x3000)
		tl.Access(a, smallPage(a))
		tl.Access(b, smallPage(b))
		tl.Access(a, smallPage(a))
		tl.Access(c, smallPage(c))
		return tl.Contains(smallPage(a))
	}
	if !run(LRU) {
		t.Fatal("LRU should keep the recently touched entry")
	}
	if run(FIFO) {
		t.Fatal("FIFO should evict the oldest-loaded entry")
	}
}

func TestRandomReplacementIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) uint64 {
		tl := MustNew(Config{Entries: 4, Ways: 4, Repl: Random, Seed: seed})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			va := addr.VA(rng.Intn(16) << addr.Shift4K)
			tl.Access(va, smallPage(va))
		}
		return tl.Stats().Misses()
	}
	if run(1) != run(1) {
		t.Fatal("same seed must reproduce")
	}
	// Random should behave sanely: touched working set of 16 pages in a
	// 4-entry TLB misses a lot.
	if m := run(1); m < 500 {
		t.Fatalf("implausibly few misses: %d", m)
	}
}

func TestStatsBreakdownAndReprobes(t *testing.T) {
	tl := NewFullyAssoc(8)
	sva, lva := addr.VA(0x1000), addr.VA(0x20000)
	tl.Access(sva, smallPage(sva)) // small miss
	tl.Access(sva, smallPage(sva)) // small hit
	tl.Access(lva, largePage(lva)) // large miss
	tl.Access(lva, largePage(lva)) // large hit
	tl.Access(lva, largePage(lva)) // large hit
	st := tl.Stats()
	if st.MissesByClass[0] != 1 || st.HitsByClass[0] != 1 || st.MissesByClass[1] != 1 || st.HitsByClass[1] != 2 {
		t.Fatalf("breakdown: %+v", st)
	}
	if st.Accesses != 5 || st.Hits()+st.Misses() != st.Accesses {
		t.Fatalf("totals: %+v", st)
	}
	// Sequential exact access: second probe on large hits and all misses.
	if got, want := st.Reprobes(), uint64(2+2); got != want {
		t.Fatalf("reprobes = %d, want %d", got, want)
	}
	if st.MissRatio() != 2.0/5.0 {
		t.Fatalf("miss ratio = %v", st.MissRatio())
	}
	var zero Stats
	if zero.MissRatio() != 0 {
		t.Fatal("zero stats miss ratio should be 0")
	}
}

// TestAccessCountsByClass checks that Access counts every page shift,
// including shifts between, below and above the configured classes,
// against the class addr.SizeClasses.ClassOf gives it.
func TestAccessCountsByClass(t *testing.T) {
	shifts := []uint{addr.BlockShift, addr.ChunkShift, addr.Shift256K, addr.Shift2M}
	classes := addr.MustShiftClasses(shifts...)
	tl := MustNew(Config{Entries: 64, Ways: 4, Index: IndexExact, Shifts: shifts})
	var want [addr.MaxSizeClasses]uint64
	for _, shift := range []uint{10, 12, 13, 15, 16, 18, 20, 21, 30, 63} {
		k := classes.ClassOf(shift)
		va := addr.VA(uint64(3) << shift)
		tl.Access(va, policy.Page{Number: addr.Page(va, shift), Shift: shift}) // miss
		tl.Access(va, policy.Page{Number: addr.Page(va, shift), Shift: shift}) // hit
		want[k]++
	}
	st := tl.Stats()
	if st.MissesByClass != want || st.HitsByClass != want {
		t.Fatalf("misses %v, hits %v by class, want %v each", st.MissesByClass, st.HitsByClass, want)
	}
}

func TestMultiSplit(t *testing.T) {
	sp, err := NewMultiSplit([]Config{{Entries: 8, Ways: 2}, {Entries: 4, Ways: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Entries() != 12 {
		t.Fatalf("entries = %d", sp.Entries())
	}
	if sp.Name() != "split 8+4-entry per-class" {
		t.Fatalf("name = %q", sp.Name())
	}
	sva, lva := addr.VA(0x1000), addr.VA(0x20000)
	sp.Access(sva, smallPage(sva))
	sp.Access(lva, largePage(lva))
	small, large := sp.Halves()[0], sp.Halves()[1]
	if small.Occupied() != 1 || large.Occupied() != 1 {
		t.Fatalf("occupancy: small=%d large=%d", small.Occupied(), large.Occupied())
	}
	if !sp.Access(sva, smallPage(sva)) || !sp.Access(lva, largePage(lva)) {
		t.Fatal("both should hit their half")
	}
	st := sp.Stats()
	if st.Accesses != 4 || st.HitsByClass[0] != 1 || st.HitsByClass[1] != 1 {
		t.Fatalf("merged stats: %+v", st)
	}
	if n := sp.Invalidate(largePage(lva)); n != 1 {
		t.Fatalf("Invalidate = %d", n)
	}
	sp.Flush()
	if sp.Access(sva, smallPage(sva)) {
		t.Fatal("post-flush access must miss")
	}
}

func TestMultiSplitBadConfigs(t *testing.T) {
	if _, err := NewMultiSplit([]Config{{Entries: 0}, {Entries: 4}}); err == nil {
		t.Fatal("bad small half should error")
	}
	if _, err := NewMultiSplit([]Config{{Entries: 4}, {Entries: 24, Ways: 2}}); err == nil {
		t.Fatal("bad large half should error")
	}
}

// LRU inclusion property: with the same set count and indexing, more ways
// never produce more misses on a single-page-size stream.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]addr.VA, 4000)
		for i := range refs {
			// Mix of hot pages and a wide tail across sets.
			if rng.Intn(2) == 0 {
				refs[i] = addr.VA(rng.Intn(8) << addr.Shift4K)
			} else {
				refs[i] = addr.VA(rng.Intn(256) << addr.Shift4K)
			}
		}
		misses := func(ways int) uint64 {
			tl := MustNew(Config{Entries: 4 * ways, Ways: ways, Index: IndexSmall})
			for _, va := range refs {
				tl.Access(va, smallPage(va))
			}
			return tl.Stats().Misses()
		}
		m1, m2, m4 := misses(1), misses(2), misses(4)
		return m1 >= m2 && m2 >= m4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a fully associative TLB with n entries never misses on a
// cyclic working set of <= n pages after the first pass.
func TestFACapacityProperty(t *testing.T) {
	f := func(nRaw, entRaw uint8) bool {
		entries := 1 << (entRaw%5 + 1) // 2..32
		n := int(nRaw)%entries + 1     // 1..entries
		tl := NewFullyAssoc(entries)
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < n; i++ {
				va := addr.VA(i << addr.Shift4K)
				hit := tl.Access(va, smallPage(va))
				if pass > 0 && !hit {
					return false
				}
			}
		}
		return tl.Stats().Misses() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkFullyAssocAccess drives a 64-entry fully associative TLB with
// uniform-random pages over 64MB (miss-heavy: the full scan and the
// victim search) and with a local stream, where most references fall in
// the last one or two pages touched, as in real programs (hit-heavy: the
// recent-way check).
func BenchmarkFullyAssocAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	random := make([]addr.VA, 1<<14)
	for i := range random {
		random[i] = addr.VA(rng.Intn(1 << 26))
	}
	local := make([]addr.VA, 1<<14)
	pages := []addr.VA{0, 1 << addr.Shift4K}
	for i := range local {
		switch r := rng.Intn(100); {
		case r < 10: // a new page from a 256KB region
			pages[0], pages[1] = addr.VA(rng.Intn(64))<<addr.Shift4K, pages[0]
		case r < 30: // back to the previous page
			pages[0], pages[1] = pages[1], pages[0]
		}
		local[i] = pages[0] + addr.VA(rng.Intn(1<<addr.Shift4K))
	}
	for _, bc := range []struct {
		name string
		vas  []addr.VA
	}{{"random", random}, {"local", local}} {
		b.Run(bc.name, func(b *testing.B) {
			tl := NewFullyAssoc(64)
			for i := 0; i < b.N; i++ {
				va := bc.vas[i&(len(bc.vas)-1)]
				tl.Access(va, smallPage(va))
			}
		})
	}
}

func BenchmarkSetAssocAccess(b *testing.B) {
	tl := MustNew(Config{Entries: 32, Ways: 2, Index: IndexExact})
	rng := rand.New(rand.NewSource(1))
	vas := make([]addr.VA, 1<<14)
	for i := range vas {
		vas[i] = addr.VA(rng.Intn(1 << 26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := vas[i&(len(vas)-1)]
		tl.Access(va, smallPage(va))
	}
}

func TestProbeDoesNotInsert(t *testing.T) {
	tl := NewFullyAssoc(4)
	p := smallPage(0x1000)
	if tl.Probe(0x1000, p) {
		t.Fatal("probe of empty TLB should miss")
	}
	if tl.Occupied() != 0 {
		t.Fatal("probe must not insert")
	}
	if tl.Stats().Accesses != 0 {
		t.Fatal("probe must not count accesses")
	}
	tl.Access(0x1000, p)
	if !tl.Probe(0x1000, p) {
		t.Fatal("probe should hit resident entry")
	}
}

func TestProbeRefreshesLRU(t *testing.T) {
	tl := NewFullyAssoc(2)
	a, b, c := smallPage(0x1000), smallPage(0x2000), smallPage(0x3000)
	tl.Access(0x1000, a)
	tl.Access(0x2000, b)
	tl.Probe(0x1000, a)  // refresh a
	tl.Access(0x3000, c) // evicts b (LRU), not a
	if !tl.Contains(a) || tl.Contains(b) {
		t.Fatal("probe did not refresh LRU state")
	}
}

func TestInsertReturnsEvicted(t *testing.T) {
	tl := NewFullyAssoc(2)
	a, b, c := smallPage(0x1000), smallPage(0x2000), smallPage(0x3000)
	if _, had := tl.Insert(0x1000, a); had {
		t.Fatal("insert into empty should not evict")
	}
	tl.Insert(0x2000, b)
	ev, had := tl.Insert(0x3000, c)
	if !had || ev != a {
		t.Fatalf("evicted = %v (had=%v), want %v", ev, had, a)
	}
	// Re-inserting a resident page is a no-op without eviction.
	if _, had := tl.Insert(0x3000, c); had {
		t.Fatal("duplicate insert should not evict")
	}
	if tl.Occupied() != 2 {
		t.Fatalf("occupied = %d", tl.Occupied())
	}
	if tl.Stats().Accesses != 0 {
		t.Fatal("insert must not count accesses")
	}
}

// The Probe/Insert decomposition (used by the tlbx wrappers) must be
// behaviourally identical to Access under LRU: same hit sequence, same
// final contents.
func TestAccessEqualsProbeThenInsert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustNew(Config{Entries: 16, Ways: 2, Index: IndexExact})
		b := MustNew(Config{Entries: 16, Ways: 2, Index: IndexExact})
		for i := 0; i < 4000; i++ {
			var va addr.VA
			var p policy.Page
			if rng.Intn(3) == 0 {
				va = addr.VA(rng.Intn(32) << addr.Shift32K)
				p = largePage(va)
			} else {
				va = addr.VA(rng.Intn(256) << addr.Shift4K)
				p = smallPage(va)
			}
			hitA := a.Access(va, p)
			hitB := b.Probe(va, p)
			if !hitB {
				b.Insert(va, p)
			}
			if hitA != hitB {
				return false
			}
		}
		// Final contents agree.
		for i := 0; i < 256; i++ {
			va := addr.VA(i << addr.Shift4K)
			if a.Contains(smallPage(va)) != b.Contains(smallPage(va)) {
				return false
			}
		}
		for i := 0; i < 32; i++ {
			va := addr.VA(i << addr.Shift32K)
			if a.Contains(largePage(va)) != b.Contains(largePage(va)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
