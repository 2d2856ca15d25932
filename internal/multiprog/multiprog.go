// Package multiprog builds multiprogrammed reference streams from
// uniprogrammed ones — the extension the paper explicitly could not
// evaluate ("our traces do not include multiprogramming or operating
// system behavior", Abstract; "our traces are inadequate to exercise
// large TLBs, in part, because they do not include the effect of
// multiprogramming", Section 6).
//
// Processes run round-robin with a configurable context-switch quantum.
// Each process's addresses are tagged with an address-space identifier
// in high virtual-address bits: low bits (and therefore TLB set
// indices) are unchanged, while page numbers — TLB tags — become
// distinct across processes, which is exactly how an ASID-tagged TLB
// behaves. For architectures without ASIDs, wrap a TLB in
// FlushOnSwitch, which empties it at each context switch, and measure
// the difference.
package multiprog

import (
	"errors"
	"fmt"
	"io"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// ASIDShift is the virtual-address bit where the address-space
// identifier is inserted. 48 keeps every workload's addresses (< 2^32)
// untouched while remaining within the 64-bit VA.
const ASIDShift = 48

// Tag returns va tagged with the given address-space identifier.
func Tag(va addr.VA, asid int) addr.VA {
	return va | addr.VA(uint64(asid)<<ASIDShift)
}

// ASID extracts the address-space identifier from a tagged address.
func ASID(va addr.VA) int { return int(uint64(va) >> ASIDShift) }

// Process is one member of the multiprogrammed mix.
type Process struct {
	// Name labels the process in diagnostics.
	Name string
	// Source supplies its reference stream.
	Source trace.Reader
}

// Reader interleaves the processes' streams. It implements
// trace.Reader; the stream ends when every process's stream has ended.
type Reader struct {
	procs   []Process
	done    []bool
	quantum int
	cur     int
	left    int
	alive   int

	switches uint64
}

// New returns a Reader running the processes round-robin with the given
// context-switch quantum (references per scheduling slice).
func New(procs []Process, quantum int) (*Reader, error) {
	if len(procs) == 0 {
		return nil, errors.New("multiprog: need at least one process")
	}
	if quantum <= 0 {
		return nil, fmt.Errorf("multiprog: quantum must be positive, got %d", quantum)
	}
	if len(procs) > 1<<(64-ASIDShift) {
		return nil, fmt.Errorf("multiprog: too many processes (%d)", len(procs))
	}
	for i, p := range procs {
		if p.Source == nil {
			return nil, fmt.Errorf("multiprog: process %d (%s) has no source", i, p.Name)
		}
	}
	return &Reader{
		procs:   procs,
		done:    make([]bool, len(procs)),
		quantum: quantum,
		left:    quantum,
		alive:   len(procs),
	}, nil
}

// Switches returns how many context switches have occurred.
func (r *Reader) Switches() uint64 { return r.switches }

// advance moves to the next live process.
func (r *Reader) advance() {
	from := r.cur
	for i := 1; i <= len(r.procs); i++ {
		next := (r.cur + i) % len(r.procs)
		if !r.done[next] {
			r.cur = next
			r.left = r.quantum
			if next != from {
				r.switches++
			}
			return
		}
	}
}

// Read implements trace.Reader. A single call never crosses a context
// switch: it returns (a possibly short batch) at each quantum boundary,
// and the next call makes the switch.
func (r *Reader) Read(batch []trace.Ref) (int, error) {
	if r.alive == 0 {
		return 0, io.EOF
	}
	if r.done[r.cur] || r.left == 0 {
		r.advance()
	}
	want := len(batch)
	if want > r.left {
		want = r.left
	}
	m, err := r.procs[r.cur].Source.Read(batch[:want])
	for i := 0; i < m; i++ {
		batch[i].Addr = Tag(batch[i].Addr, r.cur)
	}
	r.left -= m
	switch {
	case err != nil && errors.Is(err, io.EOF):
		r.done[r.cur] = true
		r.alive--
	case err != nil:
		return m, err
	}
	if r.alive == 0 {
		return m, io.EOF
	}
	return m, nil
}

// FlushOnSwitch is a TLB without address-space identifiers: it empties
// the TLB it wraps whenever an access's ASID differs from the previous
// access's, as hardware without ASIDs must at a context switch. The
// flush rides in the reference stream, so it lands between the outgoing
// process's last reference and the incoming one's first however the
// stream is read ahead. It flushes at every switch the Reader counts
// as long as every quantum yields at least one reference, which holds
// for every source that returns io.EOF with its last batch (the
// workload generators, trace.SliceReader and trace.MapReader all do):
// the Reader never switches to a process whose stream has ended.
type FlushOnSwitch struct {
	tlb.TLB
	asid int // the previous access's ASID; -1 before the first access
}

// NewFlushOnSwitch wraps t.
func NewFlushOnSwitch(t tlb.TLB) *FlushOnSwitch { return &FlushOnSwitch{TLB: t, asid: -1} }

// Access implements tlb.TLB, emptying the TLB first when va belongs to
// another address space than the previous access.
func (f *FlushOnSwitch) Access(va addr.VA, p policy.Page) bool {
	if a := ASID(va); a != f.asid {
		if f.asid >= 0 {
			f.TLB.Flush()
		}
		f.asid = a
	}
	return f.TLB.Access(va, p)
}
