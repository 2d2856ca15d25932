package physmem

import (
	"testing"
	"testing/quick"

	"twopage/internal/addr"
)

func TestValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero size should fail")
	}
	if _, err := New(addr.PageSize(20 * 1024)); err == nil {
		t.Fatal("non-multiple of 32KB should fail")
	}
	// Past the bound the bitmaps alone would exhaust the machine: 1PB
	// needs a 32GB order-0 bitmap.
	if _, err := New(MaxSize + addr.Size32K); err == nil {
		t.Fatal("a size above MaxSize should fail")
	}
	if err := CheckSize(MaxSize); err != nil {
		t.Fatalf("MaxSize itself should pass CheckSize: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic")
		}
	}()
	MustNew(addr.PageSize(1))
}

func TestSmallAllocFreeCycle(t *testing.T) {
	a := MustNew(addr.Size32K) // 8 frames
	if a.TotalFrames() != 8 || a.FreeFrames() != 8 {
		t.Fatalf("frames: %d/%d", a.FreeFrames(), a.TotalFrames())
	}
	var frames []addr.PN
	for i := 0; i < 8; i++ {
		f, err := a.AllocSmall()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("free = %d", a.FreeFrames())
	}
	if _, err := a.AllocSmall(); err == nil {
		t.Fatal("exhausted allocator should fail")
	}
	seen := map[addr.PN]bool{}
	for _, f := range frames {
		if seen[f] || uint64(f) >= 8 {
			t.Fatalf("bad frame %d", f)
		}
		seen[f] = true
	}
	for _, f := range frames {
		if err := a.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeFrames() != 8 {
		t.Fatal("frames not returned")
	}
	// After full free, coalescing must restore large capacity.
	if a.LargeCapacity() != 1 {
		t.Fatalf("large capacity = %d, want 1", a.LargeCapacity())
	}
	if err := a.Free(frames[0]); err == nil {
		t.Fatal("double free should fail")
	}
}

func TestLargeAllocAlignment(t *testing.T) {
	a := MustNew(addr.PageSize(4 * addr.ChunkSize))
	for i := 0; i < 4; i++ {
		f, err := a.AllocLarge()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(f)%8 != 0 {
			t.Fatalf("large frame %d not 8-frame aligned", f)
		}
	}
	if _, err := a.AllocLarge(); err == nil {
		t.Fatal("exhausted")
	}
	st := a.Stats()
	if st.LargeAllocs != 4 || st.FailedLarge != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// The paper's external fragmentation: free frames exist but no aligned
// 32KB run. Construct it by freeing one small frame in each chunk.
func TestExternalFragmentation(t *testing.T) {
	const chunks = 4
	a := MustNew(addr.PageSize(chunks * addr.ChunkSize))
	var all []addr.PN
	for {
		f, err := a.AllocSmall()
		if err != nil {
			break
		}
		all = append(all, f)
	}
	// Free exactly two frames per chunk, never forming an aligned run.
	freed := 0
	for _, f := range all {
		if f%8 == 0 || f%8 == 4 {
			if err := a.Free(f); err != nil {
				t.Fatal(err)
			}
			freed++
		}
	}
	if freed != 2*chunks {
		t.Fatalf("freed %d", freed)
	}
	if a.FreeFrames() != uint64(2*chunks) {
		t.Fatalf("free frames = %d", a.FreeFrames())
	}
	if a.LargeCapacity() != 0 {
		t.Fatalf("large capacity = %d, want 0", a.LargeCapacity())
	}
	if _, err := a.AllocLarge(); err == nil {
		t.Fatal("fragmented allocator should refuse large alloc")
	}
	st := a.Stats()
	if st.FailedLargeFragmented != 1 {
		t.Fatalf("fragmentation not detected: %+v", st)
	}
	if fr := a.FragmentationRatio(); fr != 1.0 {
		t.Fatalf("fragmentation ratio = %v, want 1.0", fr)
	}
}

func TestFragmentationRatioWellFormed(t *testing.T) {
	a := MustNew(addr.PageSize(2 * addr.ChunkSize))
	if a.FragmentationRatio() != 0 {
		t.Fatal("fresh allocator should be unfragmented")
	}
	for a.FreeFrames() > 0 {
		if _, err := a.AllocSmall(); err != nil {
			t.Fatal(err)
		}
	}
	if a.FragmentationRatio() != 0 {
		t.Fatal("fully allocated memory reports 0 (nothing free to fragment)")
	}
}

func TestMixedAllocCoalesce(t *testing.T) {
	a := MustNew(addr.PageSize(2 * addr.ChunkSize))
	s1, _ := a.AllocSmall()
	l1, err := a.AllocLarge() // must come from the second chunk
	if err != nil {
		t.Fatal(err)
	}
	if l1/8 == s1/8 {
		t.Fatal("large allocation overlapped the chunk holding a small frame")
	}
	if err := a.Free(s1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(l1); err != nil {
		t.Fatal(err)
	}
	if a.LargeCapacity() != 2 {
		t.Fatalf("large capacity = %d, want 2 after coalescing", a.LargeCapacity())
	}
	if a.Stats().Coalesces == 0 {
		t.Fatal("coalesces not counted")
	}
}

func TestOrderOf(t *testing.T) {
	if o, err := OrderOf(addr.Size4K); err != nil || o != 0 {
		t.Fatalf("4K: %d %v", o, err)
	}
	if o, err := OrderOf(addr.Size32K); err != nil || o != 3 {
		t.Fatalf("32K: %d %v", o, err)
	}
	if _, err := OrderOf(addr.Size64K); err == nil {
		t.Fatal("64K should be unsupported")
	}
	if _, err := OrderOf(addr.PageSize(3)); err == nil {
		t.Fatal("non-power-of-two should fail")
	}
}

// Property: any interleaving of allocs and frees conserves frames and
// never double-allocates.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a := MustNew(addr.PageSize(8 * addr.ChunkSize)) // 64 frames
		live := map[addr.PN]int{}
		liveFrames := uint64(0)
		order := []addr.PN{}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if f, err := a.AllocSmall(); err == nil {
					for l, o := range live {
						if f >= l && uint64(f) < uint64(l)+uint64(1)<<o {
							return false // overlap
						}
					}
					live[f] = 0
					order = append(order, f)
					liveFrames++
				}
			case 1:
				if f, err := a.AllocLarge(); err == nil {
					live[f] = 3
					order = append(order, f)
					liveFrames += 8
				}
			default:
				if len(order) > 0 {
					f := order[len(order)-1]
					order = order[:len(order)-1]
					o := live[f]
					delete(live, f)
					if err := a.Free(f); err != nil {
						return false
					}
					liveFrames -= uint64(1) << o
				}
			}
			if a.FreeFrames()+liveFrames != a.TotalFrames() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// PeakResident tracks the high-water mark of allocated frames: it must
// grow with allocations, survive frees, and never exceed the total.
func TestPeakResident(t *testing.T) {
	a := MustNew(addr.PageSize(2 * addr.ChunkSize)) // 16 frames
	if a.Stats().PeakResident != 0 {
		t.Fatalf("fresh allocator peak = %d, want 0", a.Stats().PeakResident)
	}
	s1, _ := a.AllocSmall()
	s2, _ := a.AllocSmall()
	if got := a.Stats().PeakResident; got != 2 {
		t.Fatalf("peak after two small allocs = %d, want 2", got)
	}
	l1, err := a.AllocLarge()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().PeakResident; got != 10 {
		t.Fatalf("peak after large alloc = %d, want 10", got)
	}
	// Freeing must not lower the high-water mark.
	for _, f := range []addr.PN{s1, s2, l1} {
		if err := a.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().PeakResident; got != 10 {
		t.Fatalf("peak after frees = %d, want 10 (high-water mark)", got)
	}
	// Re-allocating below the old peak leaves it unchanged.
	if _, err := a.AllocSmall(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().PeakResident; got != 10 {
		t.Fatalf("peak after re-alloc = %d, want 10", got)
	}
}
