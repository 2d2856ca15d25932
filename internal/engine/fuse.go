package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"

	"twopage/internal/core"
)

// A fusable unit (one with a TLB, no walk model and no sharding) is
// pending from its submission until it gets a pool slot. The first
// pending unit of a stream — a workload, length and policy — to get a
// slot leads a group: it claims every pending unit of its stream that
// was submitted under the same ctx, and one core.Simulator drives all
// their TLBs through one generation of the stream and one policy pass.
// Each member still resolves its own future, records its own counters
// and emits its own event, with the Result it would have had alone
// (core.Result.Split), so neither the memo cache nor the run report can
// tell how units were grouped. A claimed unit waits for its group
// outside the pool.

// ticket is a fusable unit's entry in the engine's pending set.
type ticket struct {
	unit   Unit
	stream string
	ctx    context.Context
	claim  chan struct{} // closed when another unit's group claims this one
	done   chan struct{} // closed when res and err are set
	res    *core.Result
	err    error

	// Under Engine.mu: the group's leader once the ticket is taken (the
	// ticket itself if it leads), and the leader's group in submission
	// order.
	leader *ticket
	group  []*ticket
}

// newTicket returns u's ticket if u can join a group, nil otherwise. The
// page-table shadow and walker follow the first TLB only (core.ptStep),
// so walk-model units stay alone, and so do units without a TLB and
// units whose ctx has a type that cannot be compared: a group matches
// its members by ctx.
func newTicket(ctx context.Context, u Unit) *ticket {
	if u.TLB == nil || u.Walk != nil || !reflect.TypeOf(ctx).Comparable() {
		return nil
	}
	return &ticket{
		unit:   u,
		stream: fmt.Sprintf("w=%s refs=%d pol=%s", u.Workload, u.Refs, u.Policy.key()),
		ctx:    ctx,
		claim:  make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// claimed returns the channel closed when a group claims t; nil, which
// never fires, for a unit without a ticket.
func (t *ticket) claimed() <-chan struct{} {
	if t == nil {
		return nil
	}
	return t.claim
}

// pend adds t to the pending set. The caller holds e.mu.
func (e *Engine) pend(t *ticket) {
	if t != nil {
		e.pending[t.stream] = append(e.pending[t.stream], t)
	}
}

// acquire waits for a pool slot and reports whether it holds one. A unit
// with a ticket stops waiting when a group claims it, and gives back a
// slot it took at the same moment: a claimed unit holds no slot.
func (e *Engine) acquire(ctx context.Context, t *ticket) (held bool, err error) {
	select {
	case e.sem <- struct{}{}:
		if e.lead(t) {
			return true, nil
		}
		<-e.sem
		return false, nil
	case <-t.claimed():
		return false, nil
	case <-ctx.Done():
		e.withdraw(t)
		return false, ctx.Err()
	}
}

// lead makes t, which holds a pool slot, the leader of a group: it takes
// every pending ticket of t's stream submitted under t's ctx, t
// included, in submission order. It returns false if a group claimed t
// first. A unit without a ticket always leads.
func (e *Engine) lead(t *ticket) bool {
	if t == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.leader != nil {
		return false
	}
	pending := e.pending[t.stream]
	rest := pending[:0]
	for _, o := range pending {
		if o.ctx != t.ctx {
			rest = append(rest, o)
			continue
		}
		o.leader = t
		t.group = append(t.group, o)
		if o != t {
			close(o.claim)
		}
	}
	clear(pending[len(rest):])
	if len(rest) == 0 {
		delete(e.pending, t.stream)
	} else {
		e.pending[t.stream] = rest
	}
	return true
}

// withdraw removes the ticket of a unit whose ctx ended while it waited,
// unless a group has claimed it already.
func (e *Engine) withdraw(t *ticket) {
	if t == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.leader != nil {
		return
	}
	pending := e.pending[t.stream]
	i := slices.Index(pending, t)
	if pending = slices.Delete(pending, i, i+1); len(pending) == 0 {
		delete(e.pending, t.stream)
	} else {
		e.pending[t.stream] = pending
	}
}

// result runs t's group if t leads it, then returns t's share. A claimed
// unit only waits: its leader resolves every member.
func (t *ticket) result(ctx context.Context) (*core.Result, error) {
	if t.leader == t {
		runGroup(ctx, t.group)
	}
	<-t.done
	return t.res, t.err
}

// runGroup simulates a group's units in one pass over their stream and
// resolves each member with the Result it would have had alone.
func runGroup(ctx context.Context, group []*ticket) {
	defer func() {
		for _, t := range group {
			close(t.done)
		}
	}()
	u := group[0].unit
	spec := PassSpec{Workload: u.Workload, Refs: u.Refs, Policy: u.Policy}
	for _, t := range group {
		spec.TLBs = append(spec.TLBs, *t.unit.TLB)
		spec.WSS = spec.WSS || t.unit.WSS
	}
	res, err := spec.run(ctx)
	var parts []*core.Result
	if err == nil {
		parts, err = res.Split()
	}
	if err != nil && len(group) > 1 && ctx.Err() == nil {
		// A group's error need not be every member's: a working set under
		// a policy without one fails only the member that asked. Each
		// member runs alone for its own outcome.
		for _, t := range group {
			t.res, t.err = t.unit.pass().run(ctx)
		}
		return
	}
	for i, t := range group {
		if err != nil {
			t.err = err
			continue
		}
		if !t.unit.WSS {
			parts[i].WSS = nil
		}
		t.res = parts[i]
	}
}
