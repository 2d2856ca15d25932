package pagetable

import (
	"errors"
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/htab"
)

// node is one slot of the N-size radix tree: either empty, a leaf PTE
// at its own class, or split into a span of child nodes one class down.
// Nodes live by value in per-class arenas; kids indexes the first child
// in the class-(k-1) arena.
type node struct {
	pte   PTE
	split bool
	kids  uint32
}

// empty reports whether the node holds neither a leaf nor children.
func (n node) empty() bool { return !n.split && !n.pte.Valid }

// Refusals of Map, Promote and Demote that follow from the table's
// current mappings rather than from a bad argument. Callers that keep a
// table in step with a policy meet them routinely and discard them, so
// they are package values: returning one formats and allocates nothing.
// Match them with errors.Is.
var (
	// ErrNotMapped: the region, or the table path down to it, holds no
	// mapping.
	ErrNotMapped = errors.New("pagetable: region is not mapped")
	// ErrInsideLarger: an enclosing region is mapped as one larger page
	// (demote it first).
	ErrInsideLarger = errors.New("pagetable: region lies inside a larger page")
	// ErrAlreadyMapped: the region is already mapped at its class.
	ErrAlreadyMapped = errors.New("pagetable: region already mapped")
	// ErrHasSmaller: the region still holds smaller mappings (promote
	// instead of mapping).
	ErrHasSmaller = errors.New("pagetable: region has smaller mappings; promote instead")
	// ErrNothingToPromote: the region holds no smaller mappings to
	// collapse.
	ErrNothingToPromote = errors.New("pagetable: region has no smaller mappings to promote")
)

// Freed is one mapping released by a promotion: the physical frame and
// the size class it was mapped at.
type Freed struct {
	Frame addr.PN
	Class int
}

// NTable is the page table for an N-page-size hierarchy: a radix tree
// over the size classes, rooted at the top class. Each top-class region
// with any mapping owns one root node; a node at class k is either one
// class-k leaf PTE or a table of Fanout(k) class-(k-1) nodes. With two
// classes this is exactly the paper's chunk model (one large PTE or a
// block table of eight small PTEs).
//
// All nodes live by value in per-class dense arenas: child tables are
// allocated as contiguous spans, recycled through per-class free lists,
// so steady-state map/unmap churn allocates nothing — the same arena
// discipline the original two-size table used, extended to per-class
// spans.
type NTable struct {
	classes addr.SizeClasses
	idx     *htab.U64 // top-class region -> index in the top arena
	top     []node
	freeTop []uint32
	// nodes[k] holds class-k child spans (k < N-1), each of length
	// Fanout(k+1); free[k] recycles span start indices.
	nodes [addr.MaxSizeClasses][]node
	free  [addr.MaxSizeClasses][]uint32
	stats Stats
}

// NewNTable returns an empty table for the hierarchy. At least two size
// classes are required (one-size tables have no size to discover, so
// the handler model below would not apply).
func NewNTable(classes addr.SizeClasses) *NTable {
	if classes.N() < 2 {
		panic(fmt.Sprintf("pagetable: NTable needs at least two size classes, got %d",
			classes.N()))
	}
	return &NTable{classes: classes, idx: htab.NewU64(1 << 8)}
}

// Classes returns the table's size hierarchy.
func (t *NTable) Classes() addr.SizeClasses { return t.classes }

// allocTop binds a fresh (or recycled) root slot and returns its index.
func (t *NTable) allocTop(region addr.PN) uint32 {
	var i uint32
	if n := len(t.freeTop); n > 0 {
		i = t.freeTop[n-1]
		t.freeTop = t.freeTop[:n-1]
		t.top[i] = node{}
	} else {
		i = uint32(len(t.top))
		t.top = append(t.top, node{})
	}
	t.idx.Put(uint64(region), uint64(i))
	return i
}

// releaseTop unbinds the root slot of region and recycles it.
func (t *NTable) releaseTop(region addr.PN, i uint32) {
	t.idx.Delete(uint64(region))
	t.freeTop = append(t.freeTop, i)
}

// allocSpan returns the start index of a zeroed class-k child span (the
// children of one class-(k+1) node).
func (t *NTable) allocSpan(k int) uint32 {
	fan := t.classes.Fanout(k + 1)
	if n := len(t.free[k]); n > 0 {
		i := t.free[k][n-1]
		t.free[k] = t.free[k][:n-1]
		clear(t.nodes[k][i : int(i)+fan])
		return i
	}
	i := uint32(len(t.nodes[k]))
	for j := 0; j < fan; j++ {
		t.nodes[k] = append(t.nodes[k], node{})
	}
	return i
}

// freeSpan recycles a class-k child span.
func (t *NTable) freeSpan(k int, start uint32) {
	t.free[k] = append(t.free[k], start)
}

// freeSubtree releases every child span below the class-k node nd.
func (t *NTable) freeSubtree(k int, nd node) {
	if !nd.split {
		return
	}
	fan := t.classes.Fanout(k)
	for j := 0; j < fan; j++ {
		t.freeSubtree(k-1, t.nodes[k-1][nd.kids+uint32(j)])
	}
	t.freeSpan(k-1, nd.kids)
}

// subtreeValid reports whether any valid leaf exists at or below the
// class-k node nd.
func (t *NTable) subtreeValid(k int, nd node) bool {
	if nd.pte.Valid {
		return true
	}
	if !nd.split {
		return false
	}
	fan := t.classes.Fanout(k)
	for j := 0; j < fan; j++ {
		if t.subtreeValid(k-1, t.nodes[k-1][nd.kids+uint32(j)]) {
			return true
		}
	}
	return false
}

// Map installs a class-k mapping for page number pn (numbered at class
// k). Intermediate tables are created on demand. It fails with
// ErrInsideLarger when any enclosing region is already mapped at a
// larger size (demote first), and — for k >= 1 — with ErrAlreadyMapped
// or ErrHasSmaller when the region itself is already mapped or still
// holds smaller mappings (promote instead). Class-0 mappings may
// overwrite an existing class-0 PTE, as the two-size table allowed.
func (t *NTable) Map(k int, pn addr.PN, frame addr.PN) error {
	n := t.classes.N()
	if k < 0 || k >= n {
		return fmt.Errorf("pagetable: size class %d out of range [0,%d)", k, n)
	}
	topR := t.classes.Up(pn, k, n-1)
	var ti uint32
	if i, ok := t.idx.Get(uint64(topR)); ok {
		ti = uint32(i)
	} else {
		ti = t.allocTop(topR)
	}
	// Descend to class k, checking for blocking leaves. cur always
	// points into an arena one class above the one allocSpan grows, so
	// the pointer stays valid across span allocation.
	cur := &t.top[ti]
	for j := n - 1; j > k; j-- {
		if cur.pte.Valid {
			return ErrInsideLarger
		}
		if !cur.split {
			cur.split = true
			cur.kids = t.allocSpan(j - 1)
		}
		sub := t.classes.Up(pn, k, j-1)
		cur = &t.nodes[j-1][cur.kids+uint32(t.classes.SubIndex(sub, j, j-1))]
	}
	if k == 0 {
		cur.pte = PTE{Frame: frame, Valid: true}
		return nil
	}
	if cur.pte.Valid {
		return ErrAlreadyMapped
	}
	if cur.split {
		if t.subtreeValid(k, *cur) {
			return ErrHasSmaller
		}
		t.freeSubtree(k, *cur)
	}
	*cur = node{pte: PTE{Frame: frame, Valid: true, Large: true}}
	return nil
}

// Unmap removes the mapping covering va — the leaf of whatever class
// resolves it — and reports whether anything was unmapped. Child tables
// left entirely empty are recycled, cascading upward, so an unmapped
// region costs nothing.
func (t *NTable) Unmap(va addr.VA) bool {
	n := t.classes.N()
	topR := t.classes.Page(va, n-1)
	ti64, ok := t.idx.Get(uint64(topR))
	if !ok {
		return false
	}
	ti := uint32(ti64)
	// path[k] is the node index of va's class-k node in its arena.
	var path [addr.MaxSizeClasses]uint32
	path[n-1] = ti
	k := n - 1
	nd := t.top[ti]
	for nd.split {
		k--
		path[k] = nd.kids + uint32(t.classes.SubIndex(t.classes.Page(va, k), k+1, k))
		nd = t.nodes[k][path[k]]
	}
	if !nd.pte.Valid {
		return false
	}
	if k == n-1 {
		t.top[ti] = node{}
		t.releaseTop(topR, ti)
		return true
	}
	t.nodes[k][path[k]] = node{}
	// Cascade: free any span that just became entirely empty.
	for k < n-1 {
		var parent *node
		if k+1 == n-1 {
			parent = &t.top[ti]
		} else {
			parent = &t.nodes[k+1][path[k+1]]
		}
		fan := uint32(t.classes.Fanout(k + 1))
		for j := uint32(0); j < fan; j++ {
			if !t.nodes[k][parent.kids+j].empty() {
				return true
			}
		}
		t.freeSpan(k, parent.kids)
		*parent = node{}
		k++
	}
	t.releaseTop(topR, ti)
	return true
}

// Lookup walks the table for va as a size-aware software miss handler
// would, charging the cost model: trap + size probe + insert, plus one
// dependent load per level descended. With two classes the charges are
// exactly the two-size table's. It runs on every simulated TLB miss:
// one flat-table probe plus arena indexing, no allocation.
//
//paperlint:hot
func (t *NTable) Lookup(va addr.VA) (PTE, Walk) {
	t.stats.Lookups++
	w := Walk{Cycles: TrapCycles + SizeProbeCycles + InsertCycles}
	n := t.classes.N()
	w.Levels = 1
	w.Cycles += LoadCycles
	ti, ok := t.idx.Get(uint64(t.classes.Page(va, n-1)))
	if !ok {
		t.stats.Misses++
		return PTE{}, w
	}
	k := n - 1
	nd := t.top[ti]
	for nd.split {
		k--
		nd = t.nodes[k][nd.kids+uint32(t.classes.SubIndex(t.classes.Page(va, k), k+1, k))]
		w.Levels++
		w.Cycles += LoadCycles
	}
	if !nd.pte.Valid {
		t.stats.Misses++
		return PTE{}, w
	}
	w.Found = true
	w.Class = k
	w.Large = k >= 1
	return nd.pte, w
}

// findNode descends to the class-k node for region (numbered at class
// k), without creating anything. It returns a pointer into the arena —
// valid until the next allocation — or ErrNotMapped when the path is
// absent, or ErrInsideLarger when a larger-size leaf blocks it.
func (t *NTable) findNode(k int, region addr.PN) (*node, error) {
	n := t.classes.N()
	if k < 0 || k >= n {
		return nil, fmt.Errorf("pagetable: size class %d out of range [0,%d)", k, n)
	}
	ti, ok := t.idx.Get(uint64(t.classes.Up(region, k, n-1)))
	if !ok {
		return nil, ErrNotMapped
	}
	cur := &t.top[ti]
	for j := n - 1; j > k; j-- {
		if cur.pte.Valid {
			return nil, ErrInsideLarger
		}
		if !cur.split {
			return nil, ErrNotMapped
		}
		sub := t.classes.Up(region, k, j-1)
		cur = &t.nodes[j-1][cur.kids+uint32(t.classes.SubIndex(sub, j, j-1))]
	}
	return cur, nil
}

// collect gathers every valid leaf at or below the class-k node nd.
func (t *NTable) collect(k int, nd node, freed []Freed, bytes uint64) ([]Freed, uint64) {
	if nd.pte.Valid {
		return append(freed, Freed{Frame: nd.pte.Frame, Class: k}),
			bytes + uint64(t.classes.Size(k))
	}
	if !nd.split {
		return freed, bytes
	}
	fan := t.classes.Fanout(k)
	for j := 0; j < fan; j++ {
		freed, bytes = t.collect(k-1, t.nodes[k-1][nd.kids+uint32(j)], freed, bytes)
	}
	return freed, bytes
}

// Promote collapses every smaller mapping under the class-k region
// (k >= 1) into one class-k mapping at newFrame. It returns the frames
// that were freed, with their classes, and the bytes of resident data
// copied to the new frame. It fails with ErrNothingToPromote if the
// region holds no smaller mappings.
func (t *NTable) Promote(k int, region addr.PN, newFrame addr.PN) ([]Freed, uint64, error) {
	if k < 1 || k >= t.classes.N() {
		return nil, 0, fmt.Errorf("pagetable: promotion class %d out of range [1,%d)",
			k, t.classes.N())
	}
	nd, err := t.findNode(k, region)
	if err != nil || nd.pte.Valid || !nd.split {
		return nil, 0, ErrNothingToPromote
	}
	freed, bytes := t.collect(k, *nd, nil, 0)
	if len(freed) == 0 {
		return nil, 0, ErrNothingToPromote
	}
	t.freeSubtree(k, *nd)
	*nd = node{pte: PTE{Frame: newFrame, Valid: true, Large: true}}
	t.stats.Promotions++
	t.stats.CopiedBytes += bytes
	return freed, bytes, nil
}

// Demote splits the class-k region's leaf into Fanout(k) class-(k-1)
// mappings at the given frames. It returns the freed class-k frame. It
// fails with ErrNotMapped or ErrInsideLarger when the region is not
// mapped as one class-k page.
func (t *NTable) Demote(k int, region addr.PN, frames []addr.PN) (addr.PN, error) {
	if k < 1 || k >= t.classes.N() {
		return 0, fmt.Errorf("pagetable: demotion class %d out of range [1,%d)",
			k, t.classes.N())
	}
	if fan := t.classes.Fanout(k); len(frames) != fan {
		return 0, fmt.Errorf("pagetable: demoting class-%d region %#x needs %d frames, got %d",
			k, uint64(region), fan, len(frames))
	}
	nd, err := t.findNode(k, region)
	if err != nil {
		return 0, err
	}
	if !nd.pte.Valid {
		return 0, ErrNotMapped
	}
	old := nd.pte.Frame
	kids := t.allocSpan(k - 1)
	// allocSpan may have grown nodes[k-1]; nd points one class above.
	*nd = node{split: true, kids: kids}
	for i, f := range frames {
		t.nodes[k-1][kids+uint32(i)] = node{
			pte: PTE{Frame: f, Valid: true, Large: k-1 >= 1},
		}
	}
	t.stats.Demotions++
	t.stats.CopiedBytes += uint64(t.classes.Size(k))
	return old, nil
}

// Stats returns a snapshot of the counters.
func (t *NTable) Stats() Stats { return t.stats }

// MappedRegions returns how many top-class regions have any mapping.
func (t *NTable) MappedRegions() int { return t.idx.Len() }
