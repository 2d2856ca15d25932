package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"

	"twopage/internal/policy"
	"twopage/internal/trace"
)

// A pass reads its stream in batches. While the process has a spare
// CPU, a helper goroutine runs every simulator's translation half over
// each sub-batch while the pass's own goroutine reads the next ones and
// runs their assignment halves, up to a ring of slots ahead; otherwise
// the pass runs the fused loop (step) over whole batches. Either way
// every simulator sees the same references in the same order, so every
// Result is identical (DESIGN.md §3.3).
const (
	batchRefs = 8192 // references per read without a helper: trace.DrainContext's batch, which MapReader decodes in place
	subBatch  = 2048 // references per read with a helper, and per slot of the ring
	ringSlots = 4    // sub-batches the assignment stage may run ahead
)

// busy counts the goroutines that keep a CPU busy, process-wide: one per
// running pass, one per helper a pass holds, and one per Occupy.
var busy atomic.Int64

// cpus returns how many goroutines may keep a CPU busy: GOMAXPROCS.
// Tests replace it to choose the fused loop or the pipeline batch by
// batch.
var cpus = func() int64 { return int64(runtime.GOMAXPROCS(0)) }

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

// A slot is one sub-batch in the ring: its references and, for each
// simulator, their assignments.
type slot struct {
	n    int
	refs []trace.Ref
	res  [][]policy.Result
}

// pass is one read of a stream through its simulators.
type pass struct {
	sims []*Simulator
	buf  []trace.Ref // the fused loop's batch
	// free and full hold every slot between them, each buffered for all
	// ringSlots, so a send never blocks.
	free chan *slot    // slots the assignment stage may fill; nil until a helper is first taken
	full chan *slot    // assigned slots, in stream order; nil without a helper
	done chan struct{} // closed when the helper has translated every slot and exited
}

// drive reads r to its end and runs every reference through both halves
// of every simulator, warming them up if warm. It returns how many
// references it read and how many were instruction fetches. Before it
// returns, error or not, its helper has exited.
func drive(ctx context.Context, r trace.Reader, sims []*Simulator, warm bool) (refs, instrs uint64, err error) {
	if ctx.Value(occupied{}) == nil {
		busy.Add(1)
		defer busy.Add(-1)
	}
	p := &pass{sims: sims, buf: make([]trace.Ref, batchRefs)}
	defer func() {
		if p.full != nil {
			p.stop()
			busy.Add(-1)
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return refs, instrs, err
		}
		p.adjust()
		var n int
		if p.full == nil {
			n, err = r.Read(p.buf)
			batch := p.buf[:n]
			instrs += countInstrs(batch)
			for _, s := range sims {
				s.step(batch, warm)
			}
		} else {
			sl := <-p.free
			n, err = r.Read(sl.refs)
			sl.n = n
			batch := sl.refs[:n]
			instrs += countInstrs(batch)
			for i, s := range sims {
				s.assign(batch, sl.res[i], warm)
			}
			p.full <- sl
		}
		refs += uint64(n)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return refs, instrs, nil
			}
			return refs, instrs, err
		}
	}
}

// adjust takes a helper while fewer goroutines than cpus are busy, and
// gives it back once more are.
func (p *pass) adjust() {
	limit := cpus()
	if p.full == nil {
		for b := busy.Load(); b < limit; b = busy.Load() {
			if busy.CompareAndSwap(b, b+1) {
				p.start()
				return
			}
		}
		return
	}
	for b := busy.Load(); b > limit; b = busy.Load() {
		if busy.CompareAndSwap(b, b-1) {
			p.stop()
			return
		}
	}
}

// start starts a helper, building the ring the first time.
func (p *pass) start() {
	if p.free == nil {
		p.free = make(chan *slot, ringSlots)
		for range ringSlots {
			sl := &slot{refs: make([]trace.Ref, subBatch), res: make([][]policy.Result, len(p.sims))}
			res := make([]policy.Result, subBatch*len(p.sims))
			for i := range sl.res {
				sl.res[i] = res[i*subBatch : (i+1)*subBatch]
			}
			p.free <- sl
		}
	}
	p.full, p.done = make(chan *slot, ringSlots), make(chan struct{})
	go p.help(p.full, p.done)
}

// stop waits until the helper has returned every slot to the ring, and
// lets it exit.
func (p *pass) stop() {
	close(p.full)
	<-p.done
	p.full = nil
}

// help is the helper: it runs every simulator's translation half over
// each assigned slot, in stream order, and returns the slot to the ring.
func (p *pass) help(full <-chan *slot, done chan<- struct{}) {
	defer close(done)
	for sl := range full {
		for i, s := range p.sims {
			s.translate(sl.refs[:sl.n], sl.res[i])
		}
		p.free <- sl
	}
}
