// Package htab provides the flat, deterministic hash tables behind the
// per-reference simulation kernels.
//
// Every hot loop in the reproduction — the working-set step
// (internal/wss), the sliding window's chunk index (internal/window),
// the promotion policy's mapped-region sets and child counts
// (internal/policy), the memory stage's resident-page index and the
// software page table (internal/core, internal/pagetable) — bottoms out
// in a lookup keyed by a page number, i.e. a uint64. A Go map pays, per operation: the runtime's generic
// hashing through a type descriptor, tophash probing across bucket
// cache lines, and GC write barriers on bucket pointers. Over the
// paper's passes (hundreds of millions of references, Sections 3.2–3.4)
// that is the dominant cost.
//
// The cure is the standard one from high-throughput record processing
// (cf. the 1BRC exemplars in the related-work set) and from
// all-associativity cache/TLB simulation: a single flat power-of-two
// array of key/value slots, Fibonacci multiplicative hashing, linear
// probing, and growth by doubling. Three concrete variants cover every
// kernel:
//
//   - U64: uint64 key → uint64 value (timestamps, arena indices such
//     as the window's chunk-to-record index, touch bitmaps);
//   - Counter: uint64 key → int64 count, with remove-at-zero Add — the
//     shape of the ladder policy's mapped-children counts;
//   - Set: uint64 key membership — the policy's mapped-region sets.
//
// Determinism. The table's layout depends only on the sequence of
// inserts and deletes — there is no per-process seed — but probe-order
// iteration still reflects insertion history, so Iter is documented as
// order-unspecified and reserved for order-independent reductions; a
// traversal that reaches output sorts its keys first (AppendKeys, then
// sort). Deletion uses backward-shift compaction instead of
// tombstones: the probe chain after a delete is exactly the chain an
// insert-only history would have produced, so lookups never scan dead
// slots, load factor never lies, and iteration stays dense. (With
// tombstones, a long-running window — delete-heavy by construction —
// degrades to scanning graves; backward shift keeps Step O(1) for the
// whole pass.)
//
// The zero key is stored out of line (a flag plus a value), freeing
// key==0 to mark empty slots; page number 0 is a perfectly valid key
// in every kernel.
package htab

import "twopage/internal/addr"

// fibMul is 2^64 / φ, the Fibonacci hashing multiplier: consecutive
// keys — the common case for page numbers walking an address range —
// spread maximally across the table, which keeps linear-probe clusters
// short precisely on the access patterns the simulators generate.
const fibMul = 0x9E3779B97F4A7C15

// minCap is the smallest slot count a table starts with.
const minCap = 8

// maxLoadNum/maxLoadDen cap the load factor at 3/4 before doubling;
// past that, linear-probe cluster lengths grow superlinearly.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

type slot struct {
	key uint64
	val uint64
}

// U64 is an open-addressing map from uint64 keys to uint64 values.
// The zero value is not usable; call NewU64.
type U64 struct {
	slots []slot
	mask  uint64
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
	n     int  // occupied slots, excluding the out-of-line zero key

	hasZero bool
	zeroVal uint64
}

// NewU64 returns a table pre-sized so that hint entries fit without
// growing. A hint of 0 gets the minimum capacity.
func NewU64(hint int) *U64 {
	t := &U64{}
	t.init(capFor(hint))
	return t
}

// capFor converts an entry-count hint into a power-of-two slot count
// honouring the maximum load factor.
func capFor(hint int) int {
	c := minCap
	for c*maxLoadNum < hint*maxLoadDen {
		c <<= 1
	}
	return c
}

func (t *U64) init(capacity int) {
	// The whole design — mask probing, Fibonacci shift — is silently
	// wrong for any non-power-of-two slot count; assert at the same
	// boundary the rest of the repo uses for geometry invariants.
	capacity = int(addr.MustPow2(addr.PageSize(capacity)))
	t.slots = make([]slot, capacity) //paperlint:ignore hotalloc construction and amortized doubling; the AllocsPerRun tests pin steady state to zero grows
	t.mask = uint64(capacity - 1)
	t.shift = 64 - uint(log2(capacity))
}

// log2 of an exact power of two.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// home returns the key's preferred slot index.
//
//paperlint:hot
func (t *U64) home(k uint64) uint64 { return (k * fibMul) >> t.shift }

// Len returns the number of stored entries.
func (t *U64) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Get returns the value stored for k.
//
//paperlint:hot
func (t *U64) Get(k uint64) (uint64, bool) {
	if k == 0 {
		return t.zeroVal, t.hasZero
	}
	i := t.home(k)
	for {
		s := t.slots[i]
		if s.key == k {
			return s.val, true
		}
		if s.key == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Put stores v under k, replacing any previous value.
//
//paperlint:hot
func (t *U64) Put(k, v uint64) {
	if k == 0 {
		t.hasZero = true
		t.zeroVal = v
		return
	}
	i := t.home(k)
	for {
		s := &t.slots[i]
		if s.key == k {
			s.val = v
			return
		}
		if s.key == 0 {
			if (t.n+1)*maxLoadDen > len(t.slots)*maxLoadNum {
				t.grow()
				t.Put(k, v)
				return
			}
			s.key = k
			s.val = v
			t.n++
			return
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes k, reporting whether it was present. Removal
// backward-shifts the following probe cluster so no tombstone is left:
// every surviving entry sits where a fresh insert-only build would have
// put it.
//
//paperlint:hot
func (t *U64) Delete(k uint64) bool {
	if k == 0 {
		had := t.hasZero
		t.hasZero = false
		t.zeroVal = 0
		return had
	}
	i := t.home(k)
	for {
		s := t.slots[i]
		if s.key == 0 {
			return false
		}
		if s.key == k {
			break
		}
		i = (i + 1) & t.mask
	}
	t.deleteAt(i)
	return true
}

// deleteAt empties slot i by backward-shift compaction: each following
// cluster member slides into the hole unless the hole is "before" its
// home position (cyclically), which would break its own probe chain.
//
//paperlint:hot
func (t *U64) deleteAt(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s.key == 0 {
			break
		}
		h := t.home(s.key)
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// grow doubles the slot array and rehashes. Amortized over the inserts
// that forced it; never on the steady-state path of a pre-sized table.
func (t *U64) grow() {
	old := t.slots
	t.init(len(old) * 2)
	t.n = 0
	for _, s := range old {
		if s.key != 0 {
			t.Put(s.key, s.val)
		}
	}
}

// Iter calls fn for every entry in unspecified order. The order is
// deterministic for a fixed operation history but depends on it; use
// Iter only for order-independent reductions (sums, counts); where the
// result can reach rendered output, sort AppendKeys' keys instead.
func (t *U64) Iter(fn func(k, v uint64)) {
	if t.hasZero {
		fn(0, t.zeroVal)
	}
	for _, s := range t.slots {
		if s.key != 0 {
			fn(s.key, s.val)
		}
	}
}

// AppendKeys appends every key to dst and returns it; order is
// unspecified (see Iter). Callers sort.
func (t *U64) AppendKeys(dst []uint64) []uint64 {
	if t.hasZero {
		dst = append(dst, 0)
	}
	for _, s := range t.slots {
		if s.key != 0 {
			dst = append(dst, s.key)
		}
	}
	return dst
}

// Counter is an open-addressing map from uint64 keys to int64 counts.
// A key whose count returns to zero is removed, so Len is always the
// number of keys with nonzero counts.
type Counter struct {
	t U64
}

// NewCounter returns a counter table pre-sized for hint keys.
func NewCounter(hint int) *Counter {
	c := &Counter{}
	c.t.init(capFor(hint))
	return c
}

// Len returns the number of keys with nonzero counts.
func (c *Counter) Len() int { return c.t.Len() }

// Get returns k's count (zero if absent).
//
//paperlint:hot
func (c *Counter) Get(k uint64) int64 {
	v, _ := c.t.Get(k)
	return int64(v)
}

// Add adds d to k's count and returns the new count, removing the key
// when the count reaches zero. One probe traversal covers lookup,
// update, insert and remove — Step-shaped callers pay a single cluster
// scan per delta.
//
//paperlint:hot
func (c *Counter) Add(k uint64, d int64) int64 {
	t := &c.t
	if k == 0 {
		n := int64(t.zeroVal) + d
		if n == 0 {
			t.hasZero = false
			t.zeroVal = 0
			return 0
		}
		t.hasZero = true
		t.zeroVal = uint64(n)
		return n
	}
	i := t.home(k)
	for {
		s := &t.slots[i]
		if s.key == k {
			n := int64(s.val) + d
			if n == 0 {
				t.deleteAt(i)
				return 0
			}
			s.val = uint64(n)
			return n
		}
		if s.key == 0 {
			if d == 0 {
				return 0
			}
			if (t.n+1)*maxLoadDen > len(t.slots)*maxLoadNum {
				t.grow()
				return c.Add(k, d)
			}
			s.key = k
			s.val = uint64(d)
			t.n++
			return d
		}
		i = (i + 1) & t.mask
	}
}

// Set is an open-addressing set of uint64 keys.
type Set struct {
	t U64
}

// NewSet returns a set pre-sized for hint keys.
func NewSet(hint int) *Set {
	s := &Set{}
	s.t.init(capFor(hint))
	return s
}

// Len returns the number of members.
func (s *Set) Len() int { return s.t.Len() }

// Has reports whether k is a member.
//
//paperlint:hot
func (s *Set) Has(k uint64) bool {
	_, ok := s.t.Get(k)
	return ok
}

// Add inserts k, reporting whether it was newly added.
//
//paperlint:hot
func (s *Set) Add(k uint64) bool {
	if _, ok := s.t.Get(k); ok {
		return false
	}
	s.t.Put(k, 1)
	return true
}

// Remove deletes k, reporting whether it was a member.
//
//paperlint:hot
func (s *Set) Remove(k uint64) bool { return s.t.Delete(k) }
