package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"

	"twopage/internal/core"
	"twopage/internal/workload"
)

// A serial unit or a ride (Engine.Ride) is pending from its submission
// until it gets a pool slot. The first pending member of a stream — a
// workload and length — to get a slot leads a group: it claims the
// pending members of its stream that were submitted under the same
// ctx, and one core.RunMany drives all their simulators through one
// generation of the stream. The flat units of one policy share one
// simulator over all their TLBs and each takes its TLB's part of the
// Result (core.Result.Split); every other policy, every walk-model or
// TLB-less unit and every ride gets a simulator of its own in the same
// read. Each simulator is a lane of the group's pass: while the process
// has a spare CPU, core runs each lane whole, batch by batch, on the
// pass's goroutine or its helper, and otherwise one after another on
// the pass's goroutine. A group holds at most maxSims simulators;
// members past that stay pending for a later group of their stream.
// Each member still resolves its own future, records its own counters
// and emits its own event, with the Result it would have had alone, so
// neither the memo cache nor the run report can tell how members were
// grouped. A claimed member waits for its group outside the pool.

// maxSims bounds the simulators of one group. They all run in one pool
// slot, on at most two goroutines, so the bound leaves the rest of a
// stream with many members to other slots; it also caps the simulators
// alive at once in a slot, each holding state that grows with the
// stream's footprint. An experiment's own groups stay whole under it:
// the largest in the suite needs nine simulators (ladder3).
const maxSims = 16

// ticket is a group member's entry in the engine's pending set: a unit,
// or a ride's simulator builder.
type ticket struct {
	workload string
	refs     uint64
	stream   string
	ctx      context.Context
	alone    bool // ctx cannot be compared, so no group can match it

	unit  Unit                            // the member, for a unit
	build func() (*core.Simulator, error) // the member's simulator, for a ride
	// policy is the policy key of a flat unit (one TLB, no walk model),
	// which shares one simulator with the group's other flat units of
	// its policy; "" for a member that needs a simulator of its own.
	policy string

	claim chan struct{} // closed when another member's group claims this one
	done  chan struct{} // closed when res and err are set
	res   *core.Result
	err   error

	// Under Engine.mu: the group's leader once the ticket is taken (the
	// ticket itself if it leads), and the leader's group in submission
	// order.
	leader *ticket
	group  []*ticket
}

// newTicket returns a member's ticket for the stream of refs references
// of workload. A group matches its members by ctx, so a member whose
// ctx has a type that cannot be compared runs as a group of its own.
func newTicket(ctx context.Context, workload string, refs uint64) *ticket {
	return &ticket{
		workload: workload,
		refs:     refs,
		stream:   fmt.Sprintf("w=%s refs=%d", workload, refs),
		ctx:      ctx,
		alone:    !reflect.TypeOf(ctx).Comparable(),
		claim:    make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// claimed returns the channel closed when a group claims t; nil, which
// never fires, for a task without a ticket.
func (t *ticket) claimed() <-chan struct{} {
	if t == nil {
		return nil
	}
	return t.claim
}

// pend adds t to the pending set. The caller holds e.mu.
func (e *Engine) pend(t *ticket) {
	if t != nil && !t.alone {
		e.pending[t.stream] = append(e.pending[t.stream], t)
	}
}

// acquire waits for a pool slot and reports whether it holds one. A
// member stops waiting when a group claims it, and gives back a slot it
// took at the same moment: a claimed member holds no slot.
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
// the pending tickets of t's stream submitted under t's ctx, t included,
// in submission order, while they need at most maxSims simulators. It
// returns false if a group claimed t first. A task without a ticket
// always leads, and so does a member that runs alone, with itself as its
// group.
func (e *Engine) lead(t *ticket) bool {
	if t == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.leader != nil {
		return false
	}
	if t.alone {
		t.leader, t.group = t, []*ticket{t}
		return true
	}
	pending := e.pending[t.stream]
	rest := pending[:0]
	sims := map[any]bool{t.sim(): true}
	for _, o := range pending {
		k := o.sim()
		if o.ctx != t.ctx || !sims[k] && len(sims) == maxSims {
			rest = append(rest, o)
			continue
		}
		sims[k] = true
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

// sim identifies the simulator t needs in a group: its policy's, shared
// with the group's other flat units of that policy, or its own.
func (t *ticket) sim() any {
	if t.policy != "" {
		return t.policy
	}
	return t
}

// withdraw removes the ticket of a member whose ctx ended while it
// waited, unless a group has claimed it already.
func (e *Engine) withdraw(t *ticket) {
	if t == nil || t.alone {
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
// member only waits: its leader resolves every member.
func (t *ticket) result(ctx context.Context) (*core.Result, error) {
	if t.leader == t {
		runGroup(ctx, t.group)
	}
	<-t.done
	return t.res, t.err
}

// lane is one simulator of a group's pass and the members it resolves:
// one member, or the flat units of one policy, which share the
// simulator's TLBs and each take their TLB's part of its Result.
type lane struct {
	sim     *core.Simulator
	err     error // the simulator could not be built; its members fail
	members []*ticket
	split   bool
}

// runGroup drives every member of a group through one read of their
// stream and resolves each with the Result it would have had alone. A
// member whose simulator cannot be built fails alone.
func runGroup(ctx context.Context, group []*ticket) {
	defer func() {
		for _, t := range group {
			close(t.done)
		}
	}()
	s, err := workload.Get(group[0].workload)
	if err != nil {
		for _, t := range group {
			t.err = err
		}
		return
	}
	var live []*lane
	var sims []*core.Simulator
	for _, l := range lanes(group) {
		if l.err != nil {
			for _, t := range l.members {
				t.err = l.err
			}
			continue
		}
		live = append(live, l)
		sims = append(sims, l.sim)
	}
	if len(live) == 0 {
		return
	}
	results, err := core.RunMany(ctx, s.New(group[0].refs), sims)
	for i, l := range live {
		if err != nil {
			for _, t := range l.members {
				t.err = err
			}
			continue
		}
		l.resolve(results[i])
	}
}

// lanes builds a group's simulators. The flat units of each policy
// share a lane. If its simulator cannot be built — a working set under
// a policy without one fails only the member that asked — each of them
// gets a lane of its own instead.
func lanes(group []*ticket) []*lane {
	var out, shared []*lane
	byPolicy := make(map[string]*lane)
	for _, t := range group {
		if t.policy == "" {
			out = append(out, soloLane(t))
			continue
		}
		l := byPolicy[t.policy]
		if l == nil {
			l = &lane{split: true}
			byPolicy[t.policy] = l
			shared = append(shared, l)
		}
		l.members = append(l.members, t)
	}
	for _, l := range shared {
		u := l.members[0].unit
		spec := PassSpec{Workload: u.Workload, Refs: u.Refs, Policy: u.Policy}
		for _, t := range l.members {
			spec.TLBs = append(spec.TLBs, *t.unit.TLB)
			spec.WSS = spec.WSS || t.unit.WSS
		}
		if l.sim, l.err = checked(spec.newSimulator()); l.err == nil {
			out = append(out, l)
			continue
		}
		for _, t := range l.members {
			out = append(out, soloLane(t))
		}
	}
	return out
}

// soloLane builds t's own simulator: a ride's, or its unit's pass.
func soloLane(t *ticket) *lane {
	build := t.build
	if build == nil {
		build = t.unit.pass().newSimulator
	}
	l := &lane{members: []*ticket{t}}
	l.sim, l.err = checked(build())
	return l
}

// checked folds a built simulator's configuration error into err.
func checked(sim *core.Simulator, err error) (*core.Simulator, error) {
	if err == nil {
		err = sim.Err()
	}
	return sim, err
}

// resolve hands a lane's Result to its members: whole to a lone member,
// or one TLB's part to each unit of a shared lane, with the working set
// only for a unit that asked for it.
func (l *lane) resolve(res *core.Result) {
	if !l.split {
		l.members[0].res = res
		return
	}
	parts, err := res.Split()
	for i, t := range l.members {
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
