package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

// hold occupies every pool slot of e until release is called, so the
// units submitted meanwhile all wait for a slot, pending.
func hold(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var started sync.WaitGroup
	for range e.Parallelism() {
		started.Add(1)
		Go(e, context.Background(), "hold", func(ctx context.Context) (int, error) {
			started.Done()
			<-block
			return 0, nil
		})
	}
	started.Wait()
	return func() { close(block) }
}

// pendingTickets returns the tickets waiting in e's pending set.
func pendingTickets(e *Engine) []*ticket {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*ticket
	for _, ts := range e.pending {
		out = append(out, ts...)
	}
	return out
}

// leaders maps each stream of tickets to the set of leaders that
// resolved it.
func leaders(e *Engine, tickets []*ticket) map[string]map[*ticket]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]map[*ticket]bool)
	for _, tk := range tickets {
		if out[tk.stream] == nil {
			out[tk.stream] = make(map[*ticket]bool)
		}
		out[tk.stream][tk.leader] = true
	}
	return out
}

// programFile registers refs references of a generated program as a v2
// trace-file workload, whose reader reports decode counters.
func programFile(t *testing.T, program string, refs uint64) (string, *trace.File) {
	t.Helper()
	s, err := workload.Get(program)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := readAll(s.New(refs))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewV2WriterBlock(&buf, 1024)
	if err := w.Write(rs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.NewFileBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	name := "engine:fused-" + program
	if err := workload.RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(name) })
	return name, f
}

// soloResults runs each unit alone on a fresh engine, recording into
// col, the unfused run report.
func soloResults(t *testing.T, units []Unit, col *obs.Collector) []*core.Result {
	t.Helper()
	ctx := context.Background()
	out := make([]*core.Result, len(units))
	for i, u := range units {
		res, err := New(1, WithCollector(col)).unit(ctx, u).Wait(ctx)
		if err != nil {
			t.Fatalf("unit %d alone: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// ride is a ride's arguments, for the tests.
type ride struct {
	label, workload string
	refs            uint64
	build           func() (*core.Simulator, error)
}

// solo runs the ride's pass alone, with its own read of the stream.
func (r ride) solo(t *testing.T) *core.Result {
	t.Helper()
	s, err := workload.Get(r.workload)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := r.build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), s.New(r.refs))
	if err != nil {
		t.Fatalf("ride %s alone: %v", r.label, err)
	}
	return res
}

// mixedStream returns the members of one stream (li, 25,000 references)
// that a group splits across simulators: flat units of three policies,
// a TLB-less working-set unit, a walk-model unit (last) and three
// rides: one with a memory stage, one with the sampled working set and
// no TLB, and a bare 4KB count with no TLB, as table3.1 reads its RPI.
func mixedStream() ([]Unit, []ride) {
	const wl, refs = "li", 25_000
	three := addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	ladder := policy.DefaultLadderConfig(3000, three)
	fa3 := tlb.Config{Entries: 16, Ways: 16, Shifts: three.Shifts()}
	wc := walk.Default(three)
	two := policy.DefaultTwoSizeConfig(3000)
	units := []Unit{
		{Workload: wl, Refs: refs, Policy: TwoSizePolicy(two), TLB: &tlb.Config{Entries: 16}, WSS: true},
		{Workload: wl, Refs: refs, Policy: TwoSizePolicy(two), TLB: &tlb.Config{Entries: 32, Ways: 2}},
		{Workload: wl, Refs: refs, Policy: SinglePolicy(addr.Size4K), TLB: &tlb.Config{Entries: 16}},
		{Workload: wl, Refs: refs, Policy: LadderPolicy(ladder), TLB: &fa3},
		{Workload: wl, Refs: refs, Policy: TwoSizePolicy(two), WSS: true},
		{Workload: wl, Refs: refs, Policy: LadderPolicy(ladder), TLB: &fa3, Walk: &wc},
	}
	rides := []ride{
		{"memory", wl, refs, func() (*core.Simulator, error) {
			return core.NewSimulator(policy.NewTwoSize(two), []tlb.TLB{tlb.NewFullyAssoc(16)},
				core.WithMemory(core.Memory{Size: 512 << 10})), nil
		}},
		{"sampled", wl, refs, func() (*core.Simulator, error) {
			return core.NewSimulator(policy.NewLadder(ladder), nil, core.WithSampledWSS(ladder.T)), nil
		}},
		{"count", wl, refs, func() (*core.Simulator, error) {
			return core.NewSimulator(policy.NewSingle(addr.Size4K), nil), nil
		}},
	}
	return units, rides
}

// Members of one stream submitted under one ctx run as one fused group,
// one read of the stream, yet every future gets exactly the Result its
// member has alone, and the run report equals the unfused one. The
// units cover fully associative TLBs under LRU, FIFO and seeded Random
// replacement (each Random TLB keeps its own generator), 2-way TLBs
// under each index scheme, a member that asks for the working set, a v2
// trace file whose shared reader's decode counters every member
// reports, and a stream whose members need nine simulators: three
// policies' flat units, a TLB-less working-set unit, a walk-model unit,
// a static working-set unit and three rides.
func TestFusedUnitsMatchSolo(t *testing.T) {
	file, f := programFile(t, "li", 30_000)
	tlbs := []tlb.Config{
		{Entries: 16},
		{Entries: 64},
		{Entries: 16, Repl: tlb.FIFO},
		{Entries: 16, Repl: tlb.Random, Seed: 3},
		{Entries: 16, Repl: tlb.Random, Seed: 11},
		{Entries: 16, Ways: 2, Index: tlb.IndexSmall},
		{Entries: 16, Ways: 2, Index: tlb.IndexLarge},
		{Entries: 16, Ways: 2, Index: tlb.IndexExact},
	}
	two := TwoSizePolicy(policy.DefaultTwoSizeConfig(2000))
	var units []Unit
	for _, s := range []struct {
		workload string
		refs     uint64
		pol      PolicySpec
		wss      bool
	}{
		{"li", 20_000, two, true},
		{file, f.Refs(), two, false},
		{"worm", 20_000, SinglePolicy(addr.Size4K), false},
	} {
		for i := range tlbs {
			units = append(units, Unit{Workload: s.workload, Refs: s.refs, Policy: s.pol,
				TLB: &tlbs[i], WSS: s.wss && i == 1})
		}
	}
	mixed, rides := mixedStream()
	units = append(units, mixed...)
	unfused := obs.NewCollector()
	solo := soloResults(t, units, unfused)
	if solo[len(tlbs)].Counters.DecodedRefs == 0 {
		t.Fatal("the trace-file units report no decode counters")
	}
	soloRides := make([]*core.Result, len(rides))
	for i, r := range rides {
		soloRides[i] = r.solo(t)
	}
	static := StaticWSSUnit{Workload: "li", Refs: 25_000, T: 3000}
	soloStatic, err := New(1, WithCollector(unfused)).StaticWSS(context.Background(), static).Wait(context.Background())
	if err != nil {
		t.Fatalf("static unit alone: %v", err)
	}

	for _, parallelism := range []int{1, 2} {
		col := obs.NewCollector()
		e := New(parallelism, WithCollector(col))
		ctx := context.Background()
		release := hold(t, e)
		futs := make([]*Future[*core.Result], len(units))
		for i, u := range units {
			futs[i] = e.unit(ctx, u)
		}
		rideFuts := make([]*Future[*core.Result], len(rides))
		for i, r := range rides {
			rideFuts[i] = e.Ride(ctx, r.label, r.workload, r.refs, r.build)
		}
		staticFut := e.StaticWSS(ctx, static)
		tickets := pendingTickets(e)
		if want := len(units) + len(rides) + 1; len(tickets) != want {
			t.Fatalf("j=%d: %d of %d members pending", parallelism, len(tickets), want)
		}
		release()
		for i, fut := range futs {
			res, err := fut.Wait(ctx)
			if err != nil {
				t.Fatalf("j=%d unit %d: %v", parallelism, i, err)
			}
			if !reflect.DeepEqual(res, solo[i]) {
				key, _ := units[i].Key()
				t.Errorf("j=%d unit %d (%s): fused result\n%+v\nwant the solo result\n%+v",
					parallelism, i, key, res, solo[i])
			}
		}
		if res, err := staticFut.Wait(ctx); err != nil || !reflect.DeepEqual(res, soloStatic) {
			t.Errorf("j=%d static unit: err %v, fused result\n%+v\nwant the solo result\n%+v",
				parallelism, err, res, soloStatic)
		}
		for i, fut := range rideFuts {
			res, err := fut.Wait(ctx)
			if err != nil {
				t.Fatalf("j=%d ride %s: %v", parallelism, rides[i].label, err)
			}
			if !reflect.DeepEqual(res, soloRides[i]) {
				t.Errorf("j=%d ride %s: fused result\n%+v\nwant the solo result\n%+v",
					parallelism, rides[i].label, res, soloRides[i])
			}
		}
		// A group opens its stream once, for all its simulators.
		groups := leaders(e, tickets)
		if len(groups) != 4 {
			t.Errorf("j=%d: %d streams, want 4", parallelism, len(groups))
		}
		for stream, ls := range groups {
			if len(ls) != 1 {
				t.Errorf("j=%d: stream %q ran in %d groups (reads), want 1", parallelism, stream, len(ls))
			}
		}
		if got, want := col.Passes(), unfused.Passes(); !reflect.DeepEqual(got, want) {
			t.Errorf("j=%d: fused run report differs from the unfused one:\n%+v\nwant\n%+v", parallelism, got, want)
		}
	}
}

// pollCancel is a ctx that cancels itself the first time a simulation
// polls it (core's drive calls Err before every batch it reads), so the
// cancellation lands while the group that took its units is running.
type pollCancel struct {
	context.Context
	cancel context.CancelFunc
}

func (c *pollCancel) Err() error {
	c.cancel()
	return c.Context.Err()
}

// A group claims only units submitted under its leader's ctx. So when
// two requesters share a stream and one is canceled mid-run, only the
// canceled requester's units fail (and are evicted, so a retry runs);
// the live requester's units still get their solo results.
func TestCanceledRequesterKeepsOthersWhole(t *testing.T) {
	unit := func(cfg tlb.Config) Unit {
		return Unit{Workload: "li", Refs: 20_000, Policy: SinglePolicy(addr.Size4K), TLB: &cfg}
	}
	mine := []Unit{unit(tlb.Config{Entries: 16}), unit(tlb.Config{Entries: 32})}
	theirs := []Unit{unit(tlb.Config{Entries: 64}), unit(tlb.Config{Entries: 16, Ways: 2})}
	solo := soloResults(t, append(append([]Unit(nil), mine...), theirs...), obs.NewCollector())
	live := context.Background()
	// Which group gets the slot first is pool timing; repeat so that the
	// canceled requester leads in some rounds.
	for round := 0; round < 10; round++ {
		e := New(1)
		ctx, cancel := context.WithCancel(live)
		canceled := &pollCancel{Context: ctx, cancel: cancel}
		release := hold(t, e)
		var mineF, theirsF []*Future[*core.Result]
		for i := range mine {
			mineF = append(mineF, e.unit(canceled, mine[i]))
			theirsF = append(theirsF, e.unit(live, theirs[i]))
		}
		release()
		for i, f := range theirsF {
			res, err := f.Wait(live)
			if err != nil {
				t.Fatalf("round %d: live unit %d failed: %v", round, i, err)
			}
			if !reflect.DeepEqual(res, solo[len(mine)+i]) {
				t.Fatalf("round %d: live unit %d differs from its solo result", round, i)
			}
		}
		for i, f := range mineF {
			if _, err := f.Wait(live); !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: canceled unit %d: err = %v", round, i, err)
			}
			res, err := e.unit(live, mine[i]).Wait(live)
			if err != nil || !reflect.DeepEqual(res, solo[i]) {
				t.Fatalf("round %d: retry of canceled unit %d: err %v, or result differs from solo", round, i, err)
			}
		}
	}
}

// At parallelism 1, a leader and the eight units it claims resolve
// without deadlock: the claimed units wait outside the one slot. Stats
// and the Observer count each unit once, and none as a cache hit.
func TestFusedGroupAtParallelismOne(t *testing.T) {
	var mu sync.Mutex
	events := make(map[string]int)
	hits := 0
	e := New(1, WithObserver(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events[ev.Key]++
		if ev.CacheHit {
			hits++
		}
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	release := hold(t, e)
	var futs []*Future[*core.Result]
	var keys []string
	for entries := 2; entries <= 512; entries *= 2 {
		u := Unit{Workload: "li", Refs: 20_000, Policy: TwoSizePolicy(policy.DefaultTwoSizeConfig(2000)),
			TLB: &tlb.Config{Entries: entries}}
		key, err := u.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		futs = append(futs, e.unit(ctx, u))
	}
	tickets := pendingTickets(e)
	release()
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
	}
	if ls := leaders(e, tickets); len(tickets) != 9 || len(ls) != 1 {
		t.Fatalf("%d units pending in %d streams, want 9 in 1", len(tickets), len(ls))
	}
	for _, ls := range leaders(e, tickets) {
		if len(ls) != 1 {
			t.Fatalf("the stream ran in %d groups, want 1", len(ls))
		}
	}
	if st := e.Stats(); st.Submitted != 10 || st.Done != 10 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want the hold task and 9 units, no cache hits", st)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range keys {
		if events[k] != 1 {
			t.Errorf("unit %q: %d events, want 1", k, events[k])
		}
	}
	if hits != 0 || len(events) != len(keys)+1 {
		t.Errorf("events %v with %d cache hits, want one per unit and the hold task, no hits", events, hits)
	}
}

// A member whose simulator cannot be built fails alone: a unit asking
// for a working set under a fixed page size (its policy's shared
// simulator is rebuilt per member), a ride whose builder errs and a
// ride whose simulator has a configuration error. The rest of the group
// — a unit of the same policy, a walk-model unit and a good ride —
// still get their solo results from the one read of the stream.
func TestFusedGroupIsolatesAFailingMember(t *testing.T) {
	single := SinglePolicy(addr.Size4K)
	mixed, rides := mixedStream()
	good := Unit{Workload: "li", Refs: 25_000, Policy: single, TLB: &tlb.Config{Entries: 16}}
	walker := mixed[len(mixed)-1]
	bad := Unit{Workload: "li", Refs: 25_000, Policy: single, TLB: &tlb.Config{Entries: 32}, WSS: true}
	solo := soloResults(t, []Unit{good, walker}, obs.NewCollector())
	soloRide := rides[0].solo(t)
	e := New(1)
	ctx := context.Background()
	release := hold(t, e)
	goodF, walkF, badF := e.unit(ctx, good), e.unit(ctx, walker), e.unit(ctx, bad)
	rideF := e.Ride(ctx, rides[0].label, rides[0].workload, rides[0].refs, rides[0].build)
	errF := e.Ride(ctx, "build error", "li", 25_000, func() (*core.Simulator, error) {
		return nil, errors.New("no simulator for this ride")
	})
	cfgF := e.Ride(ctx, "config error", "li", 25_000, func() (*core.Simulator, error) {
		return core.NewSimulator(policy.NewSingle(addr.Size4K), nil, core.WithSampledWSS(100)), nil
	})
	tickets := pendingTickets(e)
	release()
	for i, f := range []*Future[*core.Result]{goodF, walkF} {
		if res, err := f.Wait(ctx); err != nil || !reflect.DeepEqual(res, solo[i]) {
			t.Fatalf("good unit %d: err %v, or result differs from solo", i, err)
		}
	}
	if res, err := rideF.Wait(ctx); err != nil || !reflect.DeepEqual(res, soloRide) {
		t.Fatalf("good ride: err %v, or result differs from solo", err)
	}
	for _, c := range []struct {
		name string
		f    *Future[*core.Result]
		want string
	}{
		{"unit with a working set", badF, "WithWSS"},
		{"ride whose builder errs", errF, "no simulator"},
		{"ride with a configuration error", cfgF, "WithSampledWSS"},
	} {
		if _, err := c.f.Wait(ctx); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
	for _, ls := range leaders(e, tickets) {
		if len(tickets) != 6 || len(ls) != 1 {
			t.Fatalf("%d members in %d groups, want 6 in 1", len(tickets), len(ls))
		}
	}
}

// A group holds at most maxSims simulators. Members past the bound
// stay pending and a later group reads the stream again for them, while
// a flat unit whose policy's simulator is already in a group joins it
// past the bound. Every member still gets its solo result.
func TestFusedGroupBoundsItsSimulators(t *testing.T) {
	const wl, refs = "li", 5_000
	rides := make([]ride, maxSims+maxSims/2)
	for i := range rides {
		entries := 4 + i
		rides[i] = ride{fmt.Sprintf("fa%d", entries), wl, refs, func() (*core.Simulator, error) {
			return core.NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(entries)}), nil
		}}
	}
	two := TwoSizePolicy(policy.DefaultTwoSizeConfig(1000))
	first := Unit{Workload: wl, Refs: refs, Policy: two, TLB: &tlb.Config{Entries: 16}}
	last := Unit{Workload: wl, Refs: refs, Policy: two, TLB: &tlb.Config{Entries: 32}}
	solo := soloResults(t, []Unit{first, last}, obs.NewCollector())
	for _, parallelism := range []int{1, 2} {
		e := New(parallelism)
		ctx := context.Background()
		release := hold(t, e)
		futs := []*Future[*core.Result]{e.unit(ctx, first)}
		for _, r := range rides {
			futs = append(futs, e.Ride(ctx, r.label, r.workload, r.refs, r.build))
		}
		futs = append(futs, e.unit(ctx, last))
		tickets := pendingTickets(e)
		release()
		for i, f := range futs {
			res, err := f.Wait(ctx)
			if err != nil {
				t.Fatalf("j=%d member %d: %v", parallelism, i, err)
			}
			var want *core.Result
			switch i {
			case 0:
				want = solo[0]
			case len(futs) - 1:
				want = solo[1]
			default:
				want = rides[i-1].solo(t)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("j=%d member %d: fused result differs from its solo result", parallelism, i)
			}
		}
		e.mu.Lock()
		sims := make(map[*ticket]map[any]bool)
		for _, tk := range tickets {
			if sims[tk.leader] == nil {
				sims[tk.leader] = make(map[any]bool)
			}
			sims[tk.leader][tk.sim()] = true
		}
		together := tickets[0].leader == tickets[len(tickets)-1].leader
		e.mu.Unlock()
		if len(sims) != 2 {
			t.Errorf("j=%d: %d members ran in %d groups, want 2", parallelism, len(tickets), len(sims))
		}
		for _, g := range sims {
			if len(g) > maxSims {
				t.Errorf("j=%d: a group held %d simulators, want at most %d", parallelism, len(g), maxSims)
			}
		}
		if !together {
			t.Errorf("j=%d: the two flat units of one policy ran in different groups", parallelism)
		}
	}
}

// uncomparableCtx is a ctx whose dynamic type cannot be compared, so no
// group can match it.
type uncomparableCtx struct {
	context.Context
	_ []int
}

// A member whose ctx cannot be compared runs as a group of its own, and
// still gets its solo result: a unit and a ride.
func TestUncomparableCtxRunsAlone(t *testing.T) {
	units, rides := mixedStream()
	solo := soloResults(t, units[:1], obs.NewCollector())
	soloRide := rides[0].solo(t)
	e := New(1)
	ctx := uncomparableCtx{Context: context.Background()}
	release := hold(t, e)
	unitF := e.unit(ctx, units[0])
	rideF := e.Ride(ctx, rides[0].label, rides[0].workload, rides[0].refs, rides[0].build)
	if n := len(pendingTickets(e)); n != 0 {
		t.Fatalf("%d members pending, want none", n)
	}
	release()
	if res, err := unitF.Wait(ctx); err != nil || !reflect.DeepEqual(res, solo[0]) {
		t.Fatalf("unit: err %v, or result differs from solo", err)
	}
	if res, err := rideF.Wait(ctx); err != nil || !reflect.DeepEqual(res, soloRide) {
		t.Fatalf("ride: err %v, or result differs from solo", err)
	}
}
