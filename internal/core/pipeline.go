package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/trace"
)

// A pass reads its stream in whole batches. While the process has a
// spare CPU, the pass's goroutine and a helper goroutine share each
// batch's work, split into lanes that each take the batches in stream
// order, up to a ring of batches ahead; otherwise the pass runs the
// fused loop (step) over each batch. Either way every simulator sees the
// same references in the same order, so every Result is identical
// (DESIGN.md §3.3).
const (
	batchRefs = 8192 // references per read: one v2 block, which MapReader decodes in place
	ringSlots = 4    // batches a staged pass holds at once
)

// The lanes of a staged pass. The read lane feeds the others. A pass of
// one simulator is a chain: three stages of its work follow the read,
// each fed by the lane before it. A pass of several simulators gives
// each its own lane after the read, fed by the read, which runs the
// simulator's fused loop (step) over the batch.
const (
	laneRead = iota // r.Read, after ctx is polled and the CPU rule applied

	// A chain's stages.
	laneAssign  // the simulator's assign: policy and working-set observer
	laneProbe   // its probe: TLB invalidations and lookups
	laneResolve // its resolve: page table, walk, memory stage, static working sets
	chainLanes

	// Simulator i of a pass of several runs lane laneSim+i.
	laneSim = laneRead + 1
)

// In a chain of stages, a slot's code holds one byte per reference: the
// shift of the reference's page, codeMove when its assignment carried a
// transition (the slot's moves list holds them in order), and codeMiss
// when it missed the first TLB and a page-table shadow walks it.
const (
	codeShift = 1<<6 - 1
	codeMove  = 1 << 6
	codeMiss  = 1 << 7
)

// codedPage rebuilds the page that code c names for address va:
// policy.Assigner's contract makes its number va's at the coded shift.
func codedPage(va addr.VA, c byte) policy.Page {
	shift := uint(c & codeShift)
	return policy.Page{Number: addr.Page(va, shift), Shift: shift}
}

// busy counts the goroutines that keep a CPU busy, process-wide: one per
// running pass, one per helper a pass holds, and one per Occupy.
var busy atomic.Int64

// cpus returns how many goroutines may keep a CPU busy: GOMAXPROCS.
// Tests replace it to choose the fused loop or the staged pass batch by
// batch.
var cpus = func() int64 { return int64(runtime.GOMAXPROCS(0)) }

// place picks the lane a goroutine of a staged pass runs next among
// the ready ones: the lane it ran last (-1 before its first) if that is
// ready, otherwise the one with the fewest batches done, the first of
// them on a tie. The read lane, ahead of every other, comes last, and in
// a chain of stages the fewest done is the most downstream. helper tells
// the helper from the pass's goroutine, which the rule does not. Tests
// replace it to force placements.
var place = func(helper bool, last int, ready []bool, done []int) int {
	if last >= 0 && ready[last] {
		return last
	}
	next := -1
	for l, ok := range ready {
		if ok && (next < 0 || done[l] < done[next]) {
			next = l
		}
	}
	return next
}

// occupied marks a context whose passes run on a goroutine that Occupy
// already counts.
type occupied struct{}

// Occupy counts the calling goroutine as busy, as a running pass is,
// until release is called, so that no pass takes a helper for the CPU
// it holds. It is for work beside passes that keeps a CPU busy, like
// the engine's opaque tasks. A pass run under the returned context is
// not counted again, so that context must stay on the calling
// goroutine: a pass under it elsewhere would not be counted at all.
func Occupy(ctx context.Context) (_ context.Context, release func()) {
	busy.Add(1)
	return context.WithValue(ctx, occupied{}, true), func() { busy.Add(-1) }
}

// A slot is one batch in the ring: its references and, in a pass of one
// simulator, their codes and the assignments that carried a transition.
type slot struct {
	n     int
	refs  []trace.Ref
	code  []byte
	moves []policy.Result
}

// pass is one read of a stream through its simulators.
type pass struct {
	r     trace.Reader
	sims  []*Simulator
	chain bool        // a staged run chains one simulator's stages; else each simulator has a lane
	buf   []trace.Ref // the fused loop's batch, and the ring's first slot

	// The read lane's own state, which drive reads once no lane runs.
	refs, instrs uint64
	eof          bool  // r is exhausted
	err          error // the pass failed: its ctx's or r's error
	helper       bool  // the pass holds a helper, which busy counts
	decided      bool  // the next read's decision is taken: a staged run's first

	ring []*slot // nil until a helper is first taken

	// A staged run's schedule, under mu.
	mu      sync.Mutex
	wake    sync.Cond
	done    []int  // batches each lane has finished in this run
	running []bool // lanes a goroutine runs
	ready   []bool // lanes that may run, as work last marked them
	waiting int    // goroutines waiting on wake
	closed  bool   // the read lane reads no more in this run
	failed  bool   // the pass failed: no lane runs again
	yielded bool   // the helper was given back: it runs no lane again
}

// drive reads r to its end and runs every reference through every
// simulator. It returns how many references it read and how many were
// instruction fetches. Before it returns, error or not, its helper has
// exited.
func drive(ctx context.Context, r trace.Reader, sims []*Simulator) (refs, instrs uint64, err error) {
	if ctx.Value(occupied{}) == nil {
		busy.Add(1)
		defer busy.Add(-1)
	}
	p := &pass{r: r, sims: sims, chain: len(sims) == 1, buf: make([]trace.Ref, batchRefs)}
	p.wake.L = &p.mu
	for held := p.decide(ctx); p.err == nil && !p.eof; held = p.decide(ctx) {
		if held {
			p.stage(ctx)
			if p.err != nil || p.eof {
				break
			}
		}
		// The fused loop reads the batch the last decision was taken for.
		n, err := r.Read(p.buf)
		batch := p.buf[:n]
		p.count(batch, err)
		for _, s := range sims {
			s.step(batch)
		}
	}
	if p.helper {
		busy.Add(-1)
	}
	return p.refs, p.instrs, p.err
}

// decide is taken before every read: it polls ctx, then applies the CPU
// rule. A pass without a helper takes one while fewer
// goroutines than cpus are busy; a pass holding one gives it back once
// more are. It reports whether the pass holds a helper for the read.
func (p *pass) decide(ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		p.err = err
		return false
	}
	limit := cpus()
	if !p.helper {
		for b := busy.Load(); b < limit; b = busy.Load() {
			if busy.CompareAndSwap(b, b+1) {
				p.helper = true
				return true
			}
		}
		return false
	}
	for b := busy.Load(); b > limit; b = busy.Load() {
		if busy.CompareAndSwap(b, b-1) {
			p.helper = false
			return false
		}
	}
	return true
}

// count adds a batch read with err to the pass's totals.
func (p *pass) count(batch []trace.Ref, err error) {
	p.refs += uint64(len(batch))
	p.instrs += countInstrs(batch)
	switch {
	case errors.Is(err, io.EOF):
		p.eof = true
	case err != nil:
		p.err = err
	}
}

// stage runs the pass staged from the read decide took a helper for.
// The pass's goroutine and a new helper goroutine run lanes until the
// read lane reads no more (the stream ended, the pass failed or the
// helper was given back) and every lane has finished every batch read,
// or until the pass fails. It returns once the helper has exited.
func (p *pass) stage(ctx context.Context) {
	if p.ring == nil {
		p.newRing()
	}
	clear(p.done)
	p.closed, p.yielded, p.decided = false, false, true
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		p.work(ctx, true)
	}()
	p.work(ctx, false)
	<-exited
}

// newRing builds the ring, whose first slot reads into the fused loop's
// batch, and the lanes' schedule.
func (p *pass) newRing() {
	lanes := laneSim + len(p.sims)
	if p.chain {
		lanes = chainLanes
	}
	p.done, p.running, p.ready = make([]int, lanes), make([]bool, lanes), make([]bool, lanes)
	p.ring = make([]*slot, ringSlots)
	for k := range p.ring {
		sl := &slot{refs: p.buf}
		if k > 0 {
			sl.refs = make([]trace.Ref, batchRefs)
		}
		if p.chain {
			sl.code = make([]byte, batchRefs)
		}
		p.ring[k] = sl
	}
}

// work runs ready lanes, one batch at a time, until the staged run is
// over, or for the helper until it is given back.
func (p *pass) work(ctx context.Context, helper bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for last := -1; ; {
		if p.failed || p.closed && p.slowest() == p.done[laneRead] || helper && p.yielded {
			p.wake.Broadcast()
			return
		}
		p.mark()
		l := place(helper, last, p.ready, p.done)
		if l >= 0 {
			p.ready[l] = false
		}
		if p.waiting > 0 && slices.Contains(p.ready, true) {
			p.wake.Signal() // a lane is left for the other goroutine
		}
		if l < 0 {
			p.waiting++
			p.wake.Wait()
			p.waiting--
			continue
		}
		p.running[l] = true
		k := p.done[l]
		p.mu.Unlock()
		finished := p.run(ctx, l, p.ring[k%ringSlots])
		p.mu.Lock()
		p.running[l] = false
		if finished {
			p.done[l]++
		}
		if l == laneRead && (p.err != nil || p.eof || !p.helper) {
			p.closed, p.failed, p.yielded = true, p.err != nil, !p.helper
		}
		last = l
	}
}

// slowest returns the fewest batches any lane has finished. The read
// lane may fill the ring up to ringSlots batches past it.
func (p *pass) slowest() int {
	n := p.done[laneRead]
	for _, d := range p.done[laneRead+1:] {
		n = min(n, d)
	}
	return n
}

// mark marks the lanes that may run: no goroutine runs the lane, and its
// upstream lane has finished its next batch, or for the read lane every
// lane has finished the batch its next slot holds. The upstream lane is
// the stage before it in a chain, and the read lane for a simulator's
// lane.
func (p *pass) mark() {
	clear(p.ready)
	if p.failed {
		return
	}
	for l := range p.ready {
		switch {
		case p.running[l]:
		case l == laneRead:
			p.ready[l] = !p.closed && p.done[l] < p.slowest()+ringSlots
		case p.chain:
			p.ready[l] = p.done[l] < p.done[l-1]
		default:
			p.ready[l] = p.done[l] < p.done[laneRead]
		}
	}
}

// run runs lane l over the slot of its next batch. It reports whether
// the lane finished a batch: every lane does but a read lane that
// stopped without one.
func (p *pass) run(ctx context.Context, l int, sl *slot) bool {
	if l == laneRead {
		if p.decided {
			p.decided = false
		} else if !p.decide(ctx) {
			return false
		}
		n, err := p.r.Read(sl.refs)
		sl.n = n
		p.count(sl.refs[:n], err)
		return n > 0 && p.err == nil
	}
	batch := sl.refs[:sl.n]
	if !p.chain {
		p.sims[l-laneSim].step(batch)
		return true
	}
	s := p.sims[0]
	switch l {
	case laneAssign:
		sl.moves = s.assign(batch, sl.code, sl.moves[:0])
	case laneProbe:
		s.probe(batch, sl.code, sl.moves)
	case laneResolve:
		s.resolve(batch, sl.code, sl.moves)
	}
	return true
}
