// Package wss computes average working-set sizes (Denning, 1968) for
// single page sizes and for the paper's dynamic two-page-size scheme.
//
// The working set W(t, T, ps) is the set of distinct pages referenced in
// the last T references under page-size scheme ps; its size w(t, T, ps)
// is the sum of the sizes of those pages, and the paper's metric is the
// time average s(T, ps) = (1/k) Σ_t w(t, T, ps) (Section 3.2).
//
// For static page sizes, Static uses the residency-accumulation identity
// (after Slutz & Traiger, CACM 1974): a page accessed at times
// u_1 < u_2 < ... < u_m is in the working set for
// Σ_i min(u_{i+1} − u_i, T) + min(k − u_m, T) time steps, so the average
// needs only a last-access timestamp per page — "very few counters"
// exactly as Section 3.3 describes — and computes all requested page
// sizes in a single pass.
//
// For the dynamic 4KB/32KB scheme, page identities change as chunks are
// promoted and demoted, so TwoSize instead observes the policy's own
// sliding window (internal/window) and maintains the instantaneous
// working-set size incrementally:
//
//	w(t) = 32KB × (active large chunks) + 4KB × (active blocks in small chunks)
//
// where a chunk/block is active if referenced in the window and a chunk
// counts as large per the policy's current mapping.
//
// For any other multi-size policy (N-level ladders, and the windowless
// Napot and Region), Sampled recomputes w(t) from a window every 256
// references instead.
package wss

import (
	"fmt"
	"slices"

	"twopage/internal/addr"
	"twopage/internal/htab"
	"twopage/internal/policy"
	"twopage/internal/window"
)

// Result is the average working-set size for one page-size scheme.
type Result struct {
	Scheme   string  // e.g. "4KB", "32KB", "4KB/32KB"
	AvgBytes float64 // s(T, ps) in bytes
	// Pages counts the distinct pages the scheme touched over the whole
	// stream. Static schemes fill it; the dynamic two-size scheme leaves
	// it zero because page identities change under promotion/demotion.
	Pages uint64
	// Samples counts the references the average was taken over, so
	// shard-local results can be merged with the correct weights.
	Samples uint64
}

// Normalized returns r.AvgBytes / base.AvgBytes, the paper's
// WS_Normalized metric (base is the 4KB result).
func (r Result) Normalized(base Result) float64 {
	if base.AvgBytes == 0 {
		return 0
	}
	return r.AvgBytes / base.AvgBytes
}

// Static computes average working-set sizes for several static page
// sizes in one pass over the reference stream, or over one section of
// it. The residency accumulation decomposes exactly across a partition
// of the stream: a page accessed at global times u_1 < ... < u_m
// contributes Σ min(u_{i+1}−u_i, T) + min(k−u_m, T), and every
// consecutive pair either falls inside one section (accumulated in acc)
// or straddles a section boundary (spliced by MergeStatic from the
// sections' first- and last-access tables). Timestamps are global, so
// the calculator MergeStatic returns finishes to the whole stream's
// result bit for bit, for any partition.
type Static struct {
	t      uint64
	shifts []uint
	first  []*htab.U64 // per shift: page -> first access time; nil when start is 0
	last   []*htab.U64 // per shift: page -> last access time
	acc    []uint64    // per shift: accumulated residency steps
	start  uint64      // global time of the first reference
	steps  uint64
	done   bool
}

// NewStatic returns a calculator for window T (in references) and the
// given page shifts whose first reference carries global timestamp
// start: 0 for a whole stream or its first section. Only a later
// section keeps a first-access table, because only its first accesses
// can pair with an earlier section's last ones. T must be positive;
// shifts must be non-empty.
func NewStatic(T, start uint64, shifts ...uint) *Static {
	if T == 0 {
		panic("wss: T must be positive")
	}
	if len(shifts) == 0 {
		panic("wss: need at least one page shift")
	}
	s := &Static{
		t:      T,
		shifts: append([]uint(nil), shifts...),
		last:   make([]*htab.U64, len(shifts)),
		acc:    make([]uint64, len(shifts)),
		start:  start,
	}
	for i := range s.last {
		s.last[i] = htab.NewU64(1 << 10)
	}
	if start > 0 {
		s.first = make([]*htab.U64, len(shifts))
		for i := range s.first {
			s.first[i] = htab.NewU64(1 << 10)
		}
	}
	return s
}

// At returns a fresh calculator for s's window and page shifts whose
// first reference carries global timestamp start: the calculator of
// the section of the stream that begins there.
func (s *Static) At(start uint64) *Static { return NewStatic(s.t, start, s.shifts...) }

// Step observes one reference. Time advances by one per call. This is
// the per-reference hot path: the AllocsPerRun tests pin it to zero
// steady-state allocations (table growth aside, which amortizes out).
//
//paperlint:hot
func (s *Static) Step(va addr.VA) {
	if s.done {
		panic("wss: Step after Finish")
	}
	t := s.start + s.steps
	s.steps++
	for i, shift := range s.shifts {
		pn := uint64(addr.Page(va, shift))
		if lastT, ok := s.last[i].Get(pn); ok {
			gap := t - lastT
			if gap > s.t {
				gap = s.t
			}
			s.acc[i] += gap
		} else if s.first != nil {
			s.first[i].Put(pn, t)
		}
		s.last[i].Put(pn, t)
	}
}

// Finish closes the stream and returns one Result per shift, in the
// order the shifts were given: it adds each page's closing tail and
// averages. On a section it treats the section as the whole stream; on
// the calculator MergeStatic returns, it yields the concatenated
// stream's results. Further Steps panic.
func (s *Static) Finish() []Result {
	if s.done {
		panic("wss: Finish called twice")
	}
	s.done = true
	end := s.start + s.steps
	out := make([]Result, len(s.shifts))
	for i, shift := range s.shifts {
		acc := s.acc[i]
		// Probe-order iteration is fine here: the uint64 accumulation
		// is order-independent, and htab layout is deterministic for a
		// fixed reference stream anyway.
		s.last[i].Iter(func(_, lastT uint64) {
			gap := end - lastT
			if gap > s.t {
				gap = s.t
			}
			acc += gap
		})
		size := uint64(1) << shift
		var avg float64
		if s.steps > 0 {
			avg = float64(acc) * float64(size) / float64(s.steps)
		}
		out[i] = Result{
			Scheme:   addr.PageSize(size).String(),
			AvgBytes: avg,
			Pages:    uint64(s.last[i].Len()),
			Samples:  s.steps,
		}
	}
	return out
}

// Steps returns how many references have been observed.
func (s *Static) Steps() uint64 { return s.steps }

// Pages returns the distinct pages of the i-th shift that s has
// observed, in ascending order. It allocates; it is for reporting, not
// the per-reference path, and it may be called after Finish.
func (s *Static) Pages(i int) []addr.PN {
	pages := make([]addr.PN, 0, s.last[i].Len())
	s.last[i].Iter(func(pn, _ uint64) { pages = append(pages, addr.PN(pn)) })
	slices.Sort(pages)
	return pages
}

// TwoSize computes the average working-set size of the dynamic
// 4KB/32KB scheme by observing a policy.TwoSize. Create it with
// NewTwoSize *before* the first Assign on the policy (it registers
// window hooks), then call Observe with each Assign result.
type TwoSize struct {
	pol       *policy.TwoSize
	win       *window.Tracker // pol's window, read on every reference
	largeSize uint64          // bytes per large page

	largeActive   int // chunks currently mapped large with >=1 active block
	blocksInLarge int // active blocks belonging to large chunks

	acc   float64
	steps uint64
}

// NewTwoSize attaches a working-set calculator to pol. It must be called
// before pol observes any references; it panics if the window already
// has hooks installed (one calculator per policy).
func NewTwoSize(pol *policy.TwoSize) *TwoSize {
	w := pol.Window()
	if w.OnBlockEnter != nil || w.OnBlockLeave != nil {
		panic("wss: policy window already has hooks")
	}
	ts := &TwoSize{pol: pol, win: w, largeSize: uint64(pol.SizeClasses().Size(1))}
	w.OnBlockEnter = func(b addr.PN) {
		c := w.ChunkOf(b)
		if pol.IsLarge(c) {
			ts.blocksInLarge++
			if w.ChunkActive(c) == 1 { // this block made the chunk active
				ts.largeActive++
			}
		}
	}
	w.OnBlockLeave = func(b addr.PN) {
		c := w.ChunkOf(b)
		if pol.IsLarge(c) {
			ts.blocksInLarge--
			if w.ChunkActive(c) == 0 {
				ts.largeActive--
			}
		}
	}
	return ts
}

// Observe records the outcome of one policy.Assign call: it applies any
// promotion/demotion to the incremental state and accumulates the
// instantaneous working-set size.
func (ts *TwoSize) Observe(res policy.Result) {
	w := ts.win
	switch res.Event {
	case policy.EventPromote:
		// The chunk's active blocks move from the small side to the
		// large side; the chunk is active (the triggering access is in
		// the window).
		n := w.ChunkActive(res.Chunk)
		ts.blocksInLarge += n
		ts.largeActive++
	case policy.EventDemote:
		n := w.ChunkActive(res.Chunk)
		ts.blocksInLarge -= n
		ts.largeActive--
	}
	smallBlocks := w.ActiveBlocks() - ts.blocksInLarge
	ts.acc += float64(uint64(ts.largeActive)*ts.largeSize +
		uint64(smallBlocks)*addr.BlockSize)
	ts.steps++
}

// ObserveWarm records the outcome of one warm-up Assign call: it keeps
// the incremental large/small split consistent with the policy's state
// without accumulating the instantaneous size into the average — the
// warm-up preroll exists to build state, not to be measured. Per-
// reference warm-up hot path; allocation-free like Observe.
//
//paperlint:hot
func (ts *TwoSize) ObserveWarm(res policy.Result) {
	w := ts.win
	switch res.Event {
	case policy.EventPromote:
		n := w.ChunkActive(res.Chunk)
		ts.blocksInLarge += n
		ts.largeActive++
	case policy.EventDemote:
		n := w.ChunkActive(res.Chunk)
		ts.blocksInLarge -= n
		ts.largeActive--
	}
}

// Current returns the instantaneous working-set size in bytes.
func (ts *TwoSize) Current() uint64 {
	smallBlocks := ts.win.ActiveBlocks() - ts.blocksInLarge
	return uint64(ts.largeActive)*ts.largeSize + uint64(smallBlocks)*addr.BlockSize
}

// Result returns the average working-set size so far.
func (ts *TwoSize) Result() Result {
	var avg float64
	if ts.steps > 0 {
		avg = ts.acc / float64(ts.steps)
	}
	return Result{Scheme: ts.pol.Name(), AvgBytes: avg, Samples: ts.steps}
}

// Steps returns how many references have been observed.
func (ts *TwoSize) Steps() uint64 { return ts.steps }

// FormatBytes renders a byte count in the paper's usual "0.82MB" style.
func FormatBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
