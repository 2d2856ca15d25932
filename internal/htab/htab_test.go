package htab

import (
	"math/rand"
	"testing"
)

func TestU64Basic(t *testing.T) {
	h := NewU64(0)
	if h.Len() != 0 {
		t.Fatalf("empty Len = %d", h.Len())
	}
	if _, ok := h.Get(42); ok {
		t.Fatal("Get on empty table hit")
	}
	h.Put(42, 7)
	h.Put(0, 9) // zero key is valid and stored out of line
	h.Put(42, 8)
	if v, ok := h.Get(42); !ok || v != 8 {
		t.Fatalf("Get(42) = %d, %v", v, ok)
	}
	if v, ok := h.Get(0); !ok || v != 9 {
		t.Fatalf("Get(0) = %d, %v", v, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if !h.Delete(42) || h.Delete(42) {
		t.Fatal("Delete(42) should succeed exactly once")
	}
	if !h.Delete(0) || h.Delete(0) {
		t.Fatal("Delete(0) should succeed exactly once")
	}
	if h.Len() != 0 {
		t.Fatalf("Len after deletes = %d", h.Len())
	}
}

func TestU64Growth(t *testing.T) {
	h := NewU64(0)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		h.Put(i*64+1, i)
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := h.Get(i*64 + 1); !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i*64+1, v, ok)
		}
	}
}

// TestDeleteBackwardShift drives deletions through a cluster of keys
// engineered to share probe chains: all map to a handful of home slots,
// so removing an early member must backward-shift the rest or later
// lookups break.
func TestDeleteBackwardShift(t *testing.T) {
	h := NewU64(64)
	// Keys colliding into the same neighbourhood: invert the Fibonacci
	// hash coarsely by picking keys whose product lands in the same top
	// bits. Brute-force a set of keys with equal home slot.
	var cluster []uint64
	want := uint64(3)
	for k := uint64(1); len(cluster) < 12; k++ {
		if h.home(k) == want {
			cluster = append(cluster, k)
		}
	}
	for i, k := range cluster {
		h.Put(k, uint64(i))
	}
	// Delete front-to-back, checking every survivor after each delete.
	for i, k := range cluster {
		if !h.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
		for j := i + 1; j < len(cluster); j++ {
			if v, ok := h.Get(cluster[j]); !ok || v != uint64(j) {
				t.Fatalf("after deleting %d: Get(%d) = %d, %v", k, cluster[j], v, ok)
			}
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after deleting the cluster", h.Len())
	}
}

// TestU64Differential drives long random insert/update/delete sequences
// through U64 and a shadow Go map, asserting identical contents and
// identical sorted-key iteration after every phase — the property test
// backing the delete backward-shift path.
func TestU64Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewU64(0)
	shadow := map[uint64]uint64{}
	const ops = 200_000
	for op := 0; op < ops; op++ {
		// Small key space (0..511) forces heavy collision, reuse and
		// delete-then-reinsert traffic, including the zero key.
		k := uint64(rng.Intn(512))
		switch rng.Intn(3) {
		case 0, 1: // insert/update twice as often as delete
			v := rng.Uint64()
			h.Put(k, v)
			shadow[k] = v
		case 2:
			got := h.Delete(k)
			_, want := shadow[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, shadow %v", op, k, got, want)
			}
			delete(shadow, k)
		}
		if op%1024 == 0 {
			checkEqual(t, h, shadow)
		}
	}
	checkEqual(t, h, shadow)
}

func checkEqual(t *testing.T, h *U64, shadow map[uint64]uint64) {
	t.Helper()
	if h.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow %d", h.Len(), len(shadow))
	}
	for k, want := range shadow {
		if v, ok := h.Get(k); !ok || v != want {
			t.Fatalf("Get(%d) = %d, %v; shadow %d", k, v, ok, want)
		}
	}
	// Iteration visits exactly the shadow's entries, each once.
	seen := map[uint64]bool{}
	h.Iter(func(k, v uint64) {
		if seen[k] {
			t.Fatalf("Iter visited key %d twice", k)
		}
		seen[k] = true
		if want, ok := shadow[k]; !ok || v != want {
			t.Fatalf("Iter(%d) = %d, shadow %d (member %v)", k, v, want, ok)
		}
	})
	if len(seen) != len(shadow) {
		t.Fatalf("Iter visited %d keys, want %d", len(seen), len(shadow))
	}
}

// TestCounterDifferential mirrors the ladder's child counts: ±1 deltas
// with remove-at-zero, checked against a shadow map.
func TestCounterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewCounter(0)
	shadow := map[uint64]int64{}
	for op := 0; op < 200_000; op++ {
		k := uint64(rng.Intn(256))
		var d int64 = 1
		// Only decrement keys that exist, as the ladder does.
		if shadow[k] > 0 && rng.Intn(2) == 0 {
			d = -1
		}
		got := c.Add(k, d)
		shadow[k] += d
		if shadow[k] == 0 {
			delete(shadow, k)
		}
		if got != shadow[k] {
			t.Fatalf("op %d: Add(%d, %d) = %d, shadow %d", op, k, d, got, shadow[k])
		}
	}
	if c.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow %d", c.Len(), len(shadow))
	}
	for k, want := range shadow {
		if got := c.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, shadow %d", k, got, want)
		}
	}
}

// TestSetDifferential checks Set against a shadow map[uint64]bool.
func TestSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSet(0)
	shadow := map[uint64]bool{}
	for op := 0; op < 200_000; op++ {
		k := uint64(rng.Intn(512))
		switch rng.Intn(3) {
		case 0, 1:
			if got, want := s.Add(k), !shadow[k]; got != want {
				t.Fatalf("op %d: Add(%d) = %v, want %v", op, k, got, want)
			}
			shadow[k] = true
		case 2:
			if got, want := s.Remove(k), shadow[k]; got != want {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", op, k, got, want)
			}
			delete(shadow, k)
		}
		if s.Has(k) != shadow[k] {
			t.Fatalf("op %d: Has(%d) = %v, shadow %v", op, k, s.Has(k), shadow[k])
		}
	}
	if s.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow %d", s.Len(), len(shadow))
	}
	seen := map[uint64]bool{}
	s.t.Iter(func(k, _ uint64) {
		if seen[k] {
			t.Fatalf("Iter visited member %d twice", k)
		}
		seen[k] = true
		if !shadow[k] {
			t.Fatalf("Iter visited non-member %d", k)
		}
	})
	if len(seen) != len(shadow) {
		t.Fatalf("Iter visited %d members, want %d", len(seen), len(shadow))
	}
}

// FuzzU64 feeds byte-coded operation streams through U64 and a shadow
// map. Each 3-byte group is one op: opcode, key, value. Keys live in a
// one-byte space so the fuzzer reliably produces collide-update-delete
// interleavings that stress backward-shift deletion.
func FuzzU64(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 1, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0, 0, 2, 1, 0, 0})
	seed := make([]byte, 0, 96)
	for i := byte(0); i < 32; i++ {
		seed = append(seed, 0, i, i) // insert 0..31
	}
	for i := byte(0); i < 16; i++ {
		seed = append(seed, 1, i, 0) // delete the first half
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewU64(0)
		shadow := map[uint64]uint64{}
		for len(data) >= 3 {
			op, k, v := data[0], uint64(data[1]), uint64(data[2])
			data = data[3:]
			switch op % 3 {
			case 0:
				h.Put(k, v)
				shadow[k] = v
			case 1:
				got := h.Delete(k)
				_, want := shadow[k]
				if got != want {
					t.Fatalf("Delete(%d) = %v, shadow %v", k, got, want)
				}
				delete(shadow, k)
			case 2:
				v, ok := h.Get(k)
				want, wantOK := shadow[k]
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("Get(%d) = %d, %v; shadow %d, %v", k, v, ok, want, wantOK)
				}
			}
		}
		if h.Len() != len(shadow) {
			t.Fatalf("Len = %d, shadow %d", h.Len(), len(shadow))
		}
		for k, want := range shadow {
			if v, ok := h.Get(k); !ok || v != want {
				t.Fatalf("final Get(%d) = %d, %v; shadow %d", k, v, ok, want)
			}
		}
	})
}

// TestAllocsSteadyState pins Get/Put/Delete/Add/Has at zero
// steady-state allocations on a pre-sized table.
func TestAllocsSteadyState(t *testing.T) {
	h := NewU64(1 << 12)
	c := NewCounter(1 << 12)
	s := NewSet(1 << 12)
	for i := uint64(0); i < 1<<11; i++ {
		h.Put(i, i)
		c.Add(i, 1)
		s.Add(i)
	}
	i := uint64(0)
	if avg := testing.AllocsPerRun(5000, func() {
		k := i % (1 << 11)
		h.Put(k, i)
		h.Get(k)
		h.Delete(k)
		h.Put(k, i)
		c.Add(k, 1)
		c.Add(k, -1)
		s.Has(k)
		i++
	}); avg != 0 {
		t.Errorf("steady-state ops allocate %.2f times per run, want 0", avg)
	}
}

func TestCapFor(t *testing.T) {
	cases := map[int]int{0: 8, 1: 8, 6: 8, 7: 16, 12: 16, 13: 32, 100: 256}
	for hint, want := range cases {
		if got := capFor(hint); got != want {
			t.Errorf("capFor(%d) = %d, want %d", hint, got, want)
		}
	}
}
