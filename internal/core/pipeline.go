package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/trace"
)

// A pass reads its stream in whole batches. While the process has a
// spare CPU, the pass's goroutine and a helper goroutine share each
// batch's work, split into four stages that each take the batches in
// stream order, up to a ring of batches ahead; otherwise the pass runs
// the fused loop (step) over each batch. Either way every simulator
// sees the same references in the same order, so every Result is
// identical (DESIGN.md §3.3).
const (
	batchRefs = 8192 // references per read: one v2 block, which MapReader decodes in place
	ringSlots = 4    // batches a staged pass holds at once
)

// The stages of a staged pass, upstream first.
const (
	stageRead    = iota // r.Read, after ctx is polled and the CPU rule applied
	stageAssign         // every simulator's assign: policy and working-set observer
	stageProbe          // every simulator's probe: TLB invalidations and lookups
	stageResolve        // every simulator's resolve: page table, walk, memory stage, static working sets
	stages
)

// A slot's code holds one byte per simulator and reference: the
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

// place picks the stage a goroutine of a staged pass runs next among
// the ready ones: the stage it ran last (-1 before its first) if that is
// ready, otherwise the most downstream. helper tells the helper from
// the pass's goroutine, which the rule does not. Tests replace it to
// force placements.
var place = func(helper bool, last int, ready *[stages]bool) int {
	if last >= 0 && ready[last] {
		return last
	}
	for s := stages - 1; s >= 0; s-- {
		if ready[s] {
			return s
		}
	}
	return -1
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

// A slot is one batch in the ring: its references and, for each
// simulator, their codes and the assignments that carried a transition.
type slot struct {
	n     int
	refs  []trace.Ref
	code  [][]byte
	moves [][]policy.Result
}

// pass is one read of a stream through its simulators.
type pass struct {
	r    trace.Reader
	sims []*Simulator
	warm bool
	buf  []trace.Ref // the fused loop's batch, and the ring's first slot

	// The read stage's own state, which drive reads once no stage runs.
	refs, instrs uint64
	eof          bool  // r is exhausted
	err          error // the pass failed: its ctx's or r's error
	helper       bool  // the pass holds a helper, which busy counts
	decided      bool  // the next read's decision is taken: a staged run's first

	ring []*slot // nil until a helper is first taken

	// A staged run's schedule, under mu.
	mu      sync.Mutex
	wake    sync.Cond
	done    [stages]int // batches each stage has finished in this run
	running [stages]bool
	waiting int  // goroutines waiting on wake
	closed  bool // the read stage reads no more in this run
	failed  bool // the pass failed: no stage runs again
	yielded bool // the helper was given back: it runs no stage again
}

// drive reads r to its end and runs every reference through every
// simulator, warming them up if warm. It returns how many references it
// read and how many were instruction fetches. Before it returns, error
// or not, its helper has exited.
func drive(ctx context.Context, r trace.Reader, sims []*Simulator, warm bool) (refs, instrs uint64, err error) {
	if ctx.Value(occupied{}) == nil {
		busy.Add(1)
		defer busy.Add(-1)
	}
	p := &pass{r: r, sims: sims, warm: warm, buf: make([]trace.Ref, batchRefs)}
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
			s.step(batch, warm)
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
// The pass's goroutine and a new helper goroutine run stages until the
// read stage reads no more (the stream ended, the pass failed or the
// helper was given back) and every batch read is resolved, or until
// the pass fails. It returns once the helper has exited.
func (p *pass) stage(ctx context.Context) {
	if p.ring == nil {
		p.newRing()
	}
	p.done, p.closed, p.yielded, p.decided = [stages]int{}, false, false, true
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		p.work(ctx, true)
	}()
	p.work(ctx, false)
	<-exited
}

// newRing builds the ring, whose first slot reads into the fused loop's
// batch.
func (p *pass) newRing() {
	n := len(p.sims)
	code := make([]byte, ringSlots*n*batchRefs)
	p.ring = make([]*slot, ringSlots)
	for k := range p.ring {
		sl := &slot{refs: p.buf, code: make([][]byte, n), moves: make([][]policy.Result, n)}
		if k > 0 {
			sl.refs = make([]trace.Ref, batchRefs)
		}
		for i := range sl.code {
			sl.code[i], code = code[:batchRefs:batchRefs], code[batchRefs:]
		}
		p.ring[k] = sl
	}
}

// work runs ready stages, one batch at a time, until the staged run is
// over, or for the helper until it is given back.
func (p *pass) work(ctx context.Context, helper bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for last := -1; ; {
		if p.failed || p.closed && p.done[stageResolve] == p.done[stageRead] || helper && p.yielded {
			p.wake.Broadcast()
			return
		}
		var ready [stages]bool
		p.ready(&ready)
		s := place(helper, last, &ready)
		if s >= 0 {
			ready[s] = false
		}
		if p.waiting > 0 && ready != [stages]bool{} {
			p.wake.Signal() // a stage is left for the other goroutine
		}
		if s < 0 {
			p.waiting++
			p.wake.Wait()
			p.waiting--
			continue
		}
		p.running[s] = true
		k := p.done[s]
		p.mu.Unlock()
		finished := p.run(ctx, s, p.ring[k%ringSlots])
		p.mu.Lock()
		p.running[s] = false
		if finished {
			p.done[s]++
		}
		if s == stageRead && (p.err != nil || p.eof || !p.helper) {
			p.closed, p.failed, p.yielded = true, p.err != nil, !p.helper
		}
		last = s
	}
}

// ready marks the stages that may run: each has a batch its upstream
// stage has finished, or for the read stage a free slot, and no
// goroutine runs it.
func (p *pass) ready(ready *[stages]bool) {
	if p.failed {
		return
	}
	ready[stageRead] = !p.closed && p.done[stageRead] < p.done[stageResolve]+ringSlots
	for s := stageRead + 1; s < stages; s++ {
		ready[s] = p.done[s] < p.done[s-1]
	}
	for s := range ready {
		ready[s] = ready[s] && !p.running[s]
	}
}

// run runs stage s over the slot of its next batch. It reports whether
// the stage finished a batch: every stage does but a read stage that
// stopped without one.
func (p *pass) run(ctx context.Context, s int, sl *slot) bool {
	if s == stageRead {
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
	switch s {
	case stageAssign:
		for i, s := range p.sims {
			sl.moves[i] = s.assign(batch, sl.code[i], sl.moves[i][:0], p.warm)
		}
	case stageProbe:
		for i, s := range p.sims {
			s.probe(batch, sl.code[i], sl.moves[i])
		}
	case stageResolve:
		for i, s := range p.sims {
			s.resolve(batch, sl.code[i], sl.moves[i])
		}
	}
	return true
}
