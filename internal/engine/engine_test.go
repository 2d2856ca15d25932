package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/window"
	"twopage/internal/workload"
)

func TestGoRunsTask(t *testing.T) {
	e := New(2)
	f := Go(e, context.Background(), "answer", func(ctx context.Context) (int, error) {
		return 42, nil
	})
	v, err := f.Wait(context.Background())
	if err != nil || v != 42 {
		t.Fatalf("Wait = (%d, %v)", v, err)
	}
	st := e.Stats()
	if st.Submitted != 1 || st.Done != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitMemoizes(t *testing.T) {
	e := New(4)
	var calls atomic.Int64
	run := func() (int, error) {
		f := submit(e, context.Background(), "k", true, false, nil, func(ctx context.Context) (int, error) {
			calls.Add(1)
			return 7, nil
		})
		return f.Wait(context.Background())
	}
	for i := 0; i < 5; i++ {
		if v, err := run(); err != nil || v != 7 {
			t.Fatalf("call %d: (%d, %v)", i, v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", calls.Load())
	}
	st := e.Stats()
	if st.Submitted != 5 || st.CacheHits != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitConcurrentSharesOneExecution(t *testing.T) {
	e := New(8)
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := submit(e, context.Background(), "slow", true, false, nil, func(ctx context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 1, nil
			})
			_, errs[i] = f.Wait(context.Background())
		}(i)
	}
	// Let the submissions race, then release the single execution.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", calls.Load())
	}
}

func TestSubmitErrorEvicts(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	fail := submit(e, context.Background(), "k", true, false, nil, func(ctx context.Context) (int, error) {
		return 0, boom
	})
	if _, err := fail.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v", err)
	}
	// The failed unit must have been evicted: a retry re-executes.
	ok := submit(e, context.Background(), "k", true, false, nil, func(ctx context.Context) (int, error) {
		return 9, nil
	})
	if v, err := ok.Wait(context.Background()); err != nil || v != 9 {
		t.Fatalf("retry = (%d, %v)", v, err)
	}
}

// An off-pool unit memoizes like a pooled one and holds no slot, so on
// a one-slot pool it can wait on a pool task of its own: the
// coordinator form of a sharded pass waiting on its sections. Run in a
// slot instead, it would deadlock until the timeout.
func TestSubmitOffPoolMemoizes(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var calls atomic.Int64
	coordinator := func(ctx context.Context) (int, error) {
		calls.Add(1)
		return Go(e, ctx, "section", func(ctx context.Context) (int, error) { return 5, nil }).Wait(ctx)
	}
	for i := 0; i < 3; i++ {
		if v, err := submit(e, ctx, "k", true, true, nil, coordinator).Wait(ctx); err != nil || v != 5 {
			t.Fatalf("call %d: (%d, %v)", i, v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", calls.Load())
	}
	// Three unit submissions, two of them hits, plus the section task.
	if st := e.Stats(); st.Submitted != 4 || st.Done != 4 || st.CacheHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFutureWaitHonorsContext(t *testing.T) {
	f := newFuture[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on canceled ctx = %v", err)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const parallelism = 2
	e := New(parallelism)
	var active, peak atomic.Int64
	futs := make([]*Future[int], 12)
	for i := range futs {
		futs[i] = Go(e, context.Background(), "work", func(ctx context.Context) (int, error) {
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			active.Add(-1)
			return 0, nil
		})
	}
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > parallelism {
		t.Fatalf("peak concurrency %d exceeds pool size %d", p, parallelism)
	}
}

func TestAcquireCancellation(t *testing.T) {
	e := New(1)
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	Go(e, context.Background(), "hold", func(ctx context.Context) (int, error) {
		close(started)
		<-block
		return 0, nil
	})
	<-started // the single slot is now held
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The slot is held; a canceled submitter must not hang waiting for it.
	f := Go(e, ctx, "starved", func(ctx context.Context) (int, error) { return 0, nil })
	if _, err := f.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("starved task err = %v", err)
	}
}

func TestObserverEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	e := New(2, WithObserver(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	ctx := context.Background()
	if _, err := submit(e, ctx, "k", true, false, nil, func(ctx context.Context) (int, error) { return 1, nil }).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(e, ctx, "k", true, false, nil, func(ctx context.Context) (int, error) { return 1, nil }).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	hits := 0
	for _, ev := range events {
		if ev.Key != "k" || ev.Err != nil {
			t.Errorf("event = %+v", ev)
		}
		if ev.Done > ev.Submitted {
			t.Errorf("Done %d > Submitted %d", ev.Done, ev.Submitted)
		}
		if ev.CacheHit {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("%d cache-hit events, want 1", hits)
	}
}

func TestUnitKeyNormalizesTLBSpellings(t *testing.T) {
	// Ways 0 defaults to fully associative; both spellings must share a
	// memo key so equivalent passes deduplicate.
	a := Unit{Workload: "li", Refs: 1000, Policy: SinglePolicy(addr.Size4K),
		TLB: &tlb.Config{Entries: 16}}
	b := Unit{Workload: "li", Refs: 1000, Policy: SinglePolicy(addr.Size4K),
		TLB: &tlb.Config{Entries: 16, Ways: 16}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equivalent configs key differently:\n%s\n%s", ka, kb)
	}
	c := Unit{Workload: "li", Refs: 1000, Policy: SinglePolicy(addr.Size4K),
		TLB: &tlb.Config{Entries: 16, Ways: 2}}
	if kc, _ := c.Key(); kc == ka {
		t.Fatal("distinct configs share a key")
	}
}

func TestPolicySpecValidation(t *testing.T) {
	if _, err := (PolicySpec{Single: 3000}).New(); err == nil {
		t.Fatal("invalid page size accepted")
	}
	if _, err := TwoSizePolicy(policy.TwoSizeConfig{}).New(); err == nil {
		t.Fatal("T=0 accepted")
	}
	if _, err := SinglePolicy(addr.Size4K).New(); err != nil {
		t.Fatal(err)
	}
	if _, err := TwoSizePolicy(policy.DefaultTwoSizeConfig(100)).New(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticIndex(t *testing.T) {
	if len(StaticShifts) != 5 {
		t.Fatalf("ladder size %d", len(StaticShifts))
	}
	for i, s := range StaticShifts {
		if StaticIndex(s) != i {
			t.Errorf("StaticIndex(%d) = %d, want %d", s, StaticIndex(s), i)
		}
	}
	if StaticIndex(99) != -1 {
		t.Fatal("unknown shift should be -1")
	}
}

// A multi-TLB pass decomposes into per-TLB units; a second pass sharing
// one configuration reuses that unit. Results merge in request order.
func TestPassDecomposesAndDedupes(t *testing.T) {
	e := New(2)
	ctx := context.Background()
	cfg16 := tlb.Config{Entries: 16}
	cfg32 := tlb.Config{Entries: 32}
	first, err := e.Pass(ctx, PassSpec{
		Workload: "li", Refs: 20_000, Policy: SinglePolicy(addr.Size4K),
		TLBs: []tlb.Config{cfg16, cfg32},
	}).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.TLBs) != 2 {
		t.Fatalf("merged TLBs = %d", len(first.TLBs))
	}
	if !strings.Contains(first.TLBs[0].Name, "16-entry") || !strings.Contains(first.TLBs[1].Name, "32-entry") {
		t.Fatalf("TLB order lost: %q, %q", first.TLBs[0].Name, first.TLBs[1].Name)
	}
	before := e.Stats()
	second, err := e.Pass(ctx, PassSpec{
		Workload: "li", Refs: 20_000, Policy: SinglePolicy(addr.Size4K),
		TLBs: []tlb.Config{cfg16},
	}).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("shared unit not served from cache: %+v -> %+v", before, after)
	}
	if got, want := second.TLBs[0].Stats, first.TLBs[0].Stats; got != want {
		t.Fatalf("cached unit stats diverge: %+v != %+v", got, want)
	}
}

// Pass on a single-slot pool must not deadlock: units run on the pool,
// the merge waits on a plain goroutine outside the semaphore.
func TestPassNoDeadlockAtParallelismOne(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.Pass(ctx, PassSpec{
		Workload: "li", Refs: 10_000,
		Policy: TwoSizePolicy(policy.DefaultTwoSizeConfig(1000)),
		TLBs:   []tlb.Config{{Entries: 8}, {Entries: 16}, {Entries: 32}},
		WSS:    true,
	}).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TLBs) != 3 || res.WSS == nil || res.PolicyStats == nil {
		t.Fatalf("merged result incomplete: %d TLBs, WSS %v, stats %v",
			len(res.TLBs), res.WSS != nil, res.PolicyStats != nil)
	}
}

// A misconfigured unit fails its own future with the option's error
// instead of panicking on a pool worker, and the engine keeps serving
// valid passes afterwards.
func TestMisconfiguredUnitFailsItsFuture(t *testing.T) {
	e := New(2)
	ctx := context.Background()
	ladder := policy.DefaultLadderConfig(1000, addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K))
	for _, pol := range []PolicySpec{SinglePolicy(addr.Size4K), LadderPolicy(ladder)} {
		_, err := e.Pass(ctx, PassSpec{
			Workload: "li", Refs: 10_000, Policy: pol,
			TLBs: []tlb.Config{{Entries: 16}}, WSS: true,
		}).Wait(ctx)
		if err == nil || !strings.Contains(err.Error(), "WithWSS") {
			t.Fatalf("%s: Wait error = %v, want one naming WithWSS", pol.key(), err)
		}
	}
	res, err := e.Pass(ctx, PassSpec{
		Workload: "li", Refs: 10_000, Policy: SinglePolicy(addr.Size4K),
		TLBs: []tlb.Config{{Entries: 16}},
	}).Wait(ctx)
	if err != nil {
		t.Fatalf("valid pass after failures: %v", err)
	}
	if res.Refs != 10_000 {
		t.Fatalf("valid pass simulated %d refs", res.Refs)
	}
}

// A unit whose policy config or window is out of range fails its own
// future with an error naming the field; it must not panic the pool
// worker, and the engine keeps serving valid units on the same pool.
func TestBadUnitFailsItsFuture(t *testing.T) {
	f, _ := sectionFile(t, 5000, 64)
	const file = "engine:bad-unit"
	if err := workload.RegisterFile(file, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(file) })

	two := func(edit func(*policy.TwoSizeConfig)) PolicySpec {
		cfg := policy.DefaultTwoSizeConfig(1000)
		edit(&cfg)
		return TwoSizePolicy(cfg)
	}
	ladder := func(classes addr.SizeClasses, edit func(*policy.LadderConfig)) PolicySpec {
		cfg := policy.DefaultLadderConfig(1000, classes)
		edit(&cfg)
		return LadderPolicy(cfg)
	}
	keep := func(*policy.LadderConfig) {}
	pass := func(pol PolicySpec) func(*Engine, context.Context) error {
		return func(e *Engine, ctx context.Context) error {
			_, err := e.Pass(ctx, PassSpec{Workload: "li", Refs: 10_000, Policy: pol,
				TLBs: []tlb.Config{{Entries: 16}}}).Wait(ctx)
			return err
		}
	}
	// forms runs a spec that sets several forms, or a short ladder,
	// through PolicySpec.New and a pass; both must reject it.
	forms := func(pol PolicySpec) func(*Engine, context.Context) error {
		return func(e *Engine, ctx context.Context) error {
			if _, err := pol.New(); err == nil {
				return errors.New("PolicySpec.New accepted the spec")
			}
			return pass(pol)(e, ctx)
		}
	}
	twoCfg := policy.DefaultTwoSizeConfig(1000)
	ladderCfg := policy.DefaultLadderConfig(1000, addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K))
	staticWSS := func(u StaticWSSUnit) func(*Engine, context.Context) error {
		return func(e *Engine, ctx context.Context) error {
			_, err := e.StaticWSS(ctx, u).Wait(ctx)
			return err
		}
	}
	cases := []struct {
		name  string
		field string // the error must name it
		run   func(*Engine, context.Context) error
	}{
		{"threshold-0", "Threshold", pass(two(func(c *policy.TwoSizeConfig) { c.Threshold = 0 }))},
		{"threshold-9", "Threshold", pass(two(func(c *policy.TwoSizeConfig) { c.Threshold = 9 }))},
		{"largeshift-12", "LargeShift", pass(two(func(c *policy.TwoSizeConfig) { c.LargeShift = addr.BlockShift }))},
		{"largeshift-25", "LargeShift", pass(two(func(c *policy.TwoSizeConfig) { c.LargeShift = 25 }))},
		{"ladder-8KB-base", "Classes", pass(ladder(addr.MustShiftClasses(addr.Shift8K, addr.Shift32K), keep))},
		{"ladder-top-shift", "Classes", pass(ladder(addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, window.MaxChunkShift+1), keep))},
		{"ladder-thresholds", "Thresholds", pass(ladder(addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K),
			func(c *policy.LadderConfig) { c.Thresholds = c.Thresholds[:1] }))},
		{"two-wss-T-0", "TwoSizeConfig.T", func(e *Engine, ctx context.Context) error {
			_, err := e.Pass(ctx, PassSpec{Workload: "li", Refs: 10_000,
				Policy: TwoSizePolicy(policy.DefaultTwoSizeConfig(0)), WSS: true}).Wait(ctx)
			return err
		}},
		{"single-and-two", "Single and Two", forms(PolicySpec{Single: addr.Size4K, Two: twoCfg})},
		{"single-and-ladder", "Single and Ladder", forms(PolicySpec{Single: addr.Size4K, Ladder: ladderCfg})},
		{"two-and-ladder", "Two and Ladder", forms(PolicySpec{Two: twoCfg, Ladder: ladderCfg})},
		{"ladder-one-class", "two size classes", forms(PolicySpec{Ladder: policy.LadderConfig{T: 1000}})},
		// The 4KB pass's memo entry must not answer a spec that also
		// sets Two.
		{"single-and-two-after-good", "Single and Two", func(e *Engine, ctx context.Context) error {
			if err := pass(SinglePolicy(addr.Size4K))(e, ctx); err != nil {
				return err
			}
			return forms(PolicySpec{Single: addr.Size4K, Two: twoCfg})(e, ctx)
		}},
		{"static-wss-T-0", "window T", staticWSS(StaticWSSUnit{Workload: "li", Refs: 10_000})},
		{"static-wss-T-0-sharded", "window T", staticWSS(StaticWSSUnit{Workload: file, Refs: f.Refs()})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(2, WithSharding(ShardPlan{Shards: 2}))
			ctx := context.Background()
			if err := tc.run(e, ctx); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Wait error = %v, want one naming %s", err, tc.field)
			}
			if err := pass(SinglePolicy(addr.Size4K))(e, ctx); err != nil {
				t.Fatalf("valid pass after the failure: %v", err)
			}
			if _, err := e.StaticWSS(ctx, StaticWSSUnit{Workload: file, Refs: f.Refs(), T: 500}).Wait(ctx); err != nil {
				t.Fatalf("valid sharded unit after the failure: %v", err)
			}
		})
	}
}

// WSS units: the static unit measures all five shifts of its ladder,
// counts instructions, carries the stream's footprint and memoizes; a
// TLB-less two-size pass couples the working set with policy counters.
func TestWSSUnits(t *testing.T) {
	e := New(2)
	ctx := context.Background()
	static, err := e.StaticWSS(ctx, StaticWSSUnit{Workload: "li", Refs: 20_000, T: 2000}).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if static.Instrs == 0 || static.Instrs >= static.Refs {
		t.Fatalf("static unit counts %d instructions of %d references", static.Instrs, static.Refs)
	}
	ladder := static.StaticWSS
	if len(static.Footprint) == 0 || uint64(len(static.Footprint)) != ladder[0].Pages {
		t.Fatalf("footprint has %d pages, want the 4KB ladder's %d", len(static.Footprint), ladder[0].Pages)
	}
	if len(ladder) != len(StaticShifts) {
		t.Fatalf("ladder has %d results", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].AvgBytes < ladder[i-1].AvgBytes {
			t.Fatalf("ladder not monotone at %d: %v < %v", i, ladder[i].AvgBytes, ladder[i-1].AvgBytes)
		}
	}
	pass, err := e.Pass(ctx, PassSpec{
		Workload: "li", Refs: 20_000, Policy: TwoSizePolicy(policy.DefaultTwoSizeConfig(2000)), WSS: true,
	}).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pass.WSS.AvgBytes <= 0 || pass.PolicyStats == nil || len(pass.TLBs) != 0 {
		t.Fatalf("TLB-less two-size pass = %+v, want a working set and policy counters only", pass)
	}
	before := e.Stats()
	again, err := e.StaticWSS(ctx, StaticWSSUnit{Workload: "li", Refs: 20_000, T: 2000}).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().CacheHits != before.CacheHits+1 || again != static {
		t.Fatal("repeated StaticWSS unit not memoized")
	}
}

// Collector contents must not depend on the pool size: every unique
// unit executes exactly once and records once, so two engines running
// the same specs at different parallelism yield identical pass lists.
func TestCollectorDeterministicAcrossParallelism(t *testing.T) {
	specs := []PassSpec{
		{Workload: "li", Refs: 20_000, Policy: SinglePolicy(addr.Size4K),
			TLBs: []tlb.Config{{Entries: 16}, {Entries: 32}}},
		{Workload: "li", Refs: 20_000, Policy: TwoSizePolicy(policy.DefaultTwoSizeConfig(2000)),
			TLBs: []tlb.Config{{Entries: 16}}},
		// Duplicate of the first spec: served from cache, recorded once.
		{Workload: "li", Refs: 20_000, Policy: SinglePolicy(addr.Size4K),
			TLBs: []tlb.Config{{Entries: 16}}},
	}
	run := func(parallelism int) []obs.Pass {
		col := obs.NewCollector()
		e := New(parallelism, WithCollector(col))
		ctx := context.Background()
		futs := make([]*Future[*core.Result], len(specs))
		for i, s := range specs {
			futs[i] = e.Pass(ctx, s)
		}
		for i, f := range futs {
			if _, err := f.Wait(ctx); err != nil {
				t.Fatalf("j=%d spec %d: %v", parallelism, i, err)
			}
		}
		return col.Passes()
	}
	p1, p4 := run(1), run(4)
	if len(p1) == 0 {
		t.Fatal("collector recorded no passes")
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Errorf("collector contents differ across parallelism:\nj=1: %+v\nj=4: %+v", p1, p4)
	}
	// Counters must be populated, not just keyed.
	for _, p := range p1 {
		if p.Refs == 0 || p.TLBAccesses == 0 {
			t.Errorf("pass %q has empty counters: %+v", p.Key, p.Counters)
		}
	}
}
