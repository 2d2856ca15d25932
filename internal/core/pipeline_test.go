package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// A schedule picks, at every read, the limit a pass weighs its busy
// count against: by the index of the decision within the pass.
type schedule struct {
	name  string
	limit func(decision int) int64
}

// spare returns a limit under which a pass takes a helper if on, and
// none (or gives its helper back) if not.
func spare(on bool) int64 {
	if on {
		return math.MaxInt32
	}
	return 0
}

// schedules are the fused loop, the staged pass throughout, and the
// staged pass taken at the second read, handed back there, or toggled
// at every one.
var schedules = []schedule{
	{"fused", func(int) int64 { return spare(false) }},
	{"pipelined", func(int) int64 { return spare(true) }},
	{"taken mid-pass", func(i int) int64 { return spare(i > 0) }},
	{"handed back mid-pass", func(i int) int64 { return spare(i == 0) }},
	{"toggled", func(i int) int64 { return spare(i%2 == 0) }},
}

// use makes every pass of the test decide by d's limits. The returned
// func restarts the decisions' count for the next pass.
func (d schedule) use(t testing.TB) (restart func()) {
	saved, decision := cpus, 0
	cpus = func() int64 {
		decision++
		return d.limit(decision - 1)
	}
	t.Cleanup(func() { cpus = saved })
	return func() { decision = 0 }
}

// A placement picks the stage each goroutine of a staged pass runs next,
// in place of place, from the index of the pick within the test.
type placement struct {
	name string
	pick func(n int, helper bool, ready *[stages]bool) int // nil: place's own rule
}

// upstream returns the most upstream ready stage, and downstream the
// most downstream one other than skip, or -1.
func upstream(ready *[stages]bool) int {
	for s := range stages {
		if ready[s] {
			return s
		}
	}
	return -1
}

func downstream(ready *[stages]bool, skip int) int {
	for s := stages - 1; s >= 0; s-- {
		if ready[s] && s != skip {
			return s
		}
	}
	return -1
}

// placements are place's own rule, upstream-first, downstream-first
// and the two alternating pick by pick.
var placements = []placement{
	{"own rule", nil},
	{"upstream-first", func(_ int, _ bool, ready *[stages]bool) int { return upstream(ready) }},
	{"downstream-first", func(_ int, _ bool, ready *[stages]bool) int { return downstream(ready, -1) }},
	{"alternating", func(n int, _ bool, ready *[stages]bool) int {
		if n%2 == 0 {
			return upstream(ready)
		}
		return downstream(ready, -1)
	}},
}

// helperReads places every read on the helper, and every other stage
// downstream-first.
var helperReads = placement{"helper reads", func(_ int, helper bool, ready *[stages]bool) int {
	if !helper {
		return downstream(ready, stageRead)
	}
	if ready[stageRead] {
		return stageRead
	}
	return downstream(ready, -1)
}}

// use makes every staged pass of the test place its stages by pl.
func (pl placement) use(t testing.TB) {
	if pl.pick == nil {
		return
	}
	saved, n := place, 0
	place = func(helper bool, _ int, ready *[stages]bool) int {
		n++
		return pl.pick(n, helper, ready)
	}
	t.Cleanup(func() { place = saved })
}

// busyReader notes the most goroutines that passes occupied while it
// was read.
type busyReader struct {
	trace.Reader
	most int64
}

func (r *busyReader) Read(batch []trace.Ref) (int, error) {
	r.most = max(r.most, busy.Load())
	return r.Reader.Read(batch)
}

// streamRefs returns the first n references of li.
func streamRefs(t testing.TB, n int) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	if _, err := trace.Drain(workload.MustNew("li", uint64(n)), func(b []trace.Ref) { out = append(out, b...) }); err != nil {
		t.Fatal(err)
	}
	return out[:n]
}

// Transitions boundaryStream places on batch boundaries: the two-size
// policy of runManyBuilds promotes a fresh chunk on the last reference
// of the first batch and another on the first of the third, and demotes
// them on the last reference of the third batch and the first of the
// fourth.
var boundaryMoves = []struct {
	at    int
	event policy.Event
}{
	{batchRefs - 1, policy.EventPromote},
	{2 * batchRefs, policy.EventPromote},
	{3*batchRefs - 1, policy.EventDemote},
	{3 * batchRefs, policy.EventDemote},
}

// boundaryStream returns the first n of 4×8192+1 references of li, with
// references to two chunks li never touches spliced in so that the
// transitions of boundaryMoves fall where they say.
func boundaryStream(t testing.TB, n int) []trace.Ref {
	t.Helper()
	const total = 4*batchRefs + 1
	refs := streamRefs(t, total)
	chunk := func(i int) addr.VA { return addr.VA(1<<44 + i<<addr.ChunkShift) }
	touch := func(at int, va addr.VA) { refs[at] = trace.Ref{Addr: va, Kind: trace.Load} }
	for i, at := range []int{boundaryMoves[0].at, boundaryMoves[1].at} {
		for b := range 4 { // four of eight blocks: the promotion threshold
			touch(at-3+b, chunk(i)+addr.VA(b)<<addr.BlockShift)
		}
	}
	touch(boundaryMoves[2].at, chunk(0)) // long out of the window: demoted
	touch(boundaryMoves[3].at, chunk(1))
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(2000))
	moves := map[int]policy.Event{}
	for i, ref := range refs {
		if res := pol.Assign(ref.Addr); res.Event != policy.EventNone {
			moves[i] = res.Event
		}
	}
	for _, m := range boundaryMoves {
		if moves[m.at] != m.event {
			t.Fatalf("reference %d carries event %d, want %d", m.at, moves[m.at], m.event)
		}
	}
	return refs[:n]
}

// warmable lists the builds that can warm up: no memory stage, sampled
// or static working set.
var warmable = map[string]bool{
	"single, three TLBs":      true,
	"two-size, WithWSS":       true,
	"two-size, WithPageTable": true,
	"ladder, WithWalkModel":   true,
}

// Every schedule and placement gives the Results of the fused loop,
// field for field: for every option mix alone and all of them in one
// RunMany, and for a warmed-up Run, at stream lengths around a batch
// and the ring, with transitions on batches' first and last references.
func TestFusedAndPipelinedAgree(t *testing.T) {
	ctx := context.Background()
	full := boundaryStream(t, 4*batchRefs+1)
	builds := runManyBuilds()
	// run drives every build on one schedule and placement: each alone,
	// a warmed-up Run of each that can warm up, and all of them in one
	// RunMany.
	run := func(t *testing.T, d schedule, pl placement, refs []trace.Ref) (solo, warmed, many []*Result) {
		restart := d.use(t)
		pl.use(t)
		pass := func(sims []*Simulator, r trace.Reader) []*Result {
			restart()
			br := &busyReader{Reader: r}
			res, err := RunMany(ctx, br, sims)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			if d.name == "fused" && br.most != 1 || d.name == "pipelined" && br.most != 2 {
				t.Fatalf("%s: passes occupied up to %d goroutines", d.name, br.most)
			}
			return res
		}
		var sims []*Simulator
		for _, b := range builds {
			solo = append(solo, pass([]*Simulator{b.build()}, trace.NewSliceReader(refs))...)
			sims = append(sims, b.build())
			if warmable[b.name] {
				s := b.build()
				restart()
				if err := s.Warm(ctx, trace.NewSliceReader(refs[:len(refs)/2])); err != nil {
					t.Fatalf("%s, %s: Warm: %v", d.name, b.name, err)
				}
				warmed = append(warmed, pass([]*Simulator{s}, trace.NewSliceReader(refs[len(refs)/2:]))...)
			}
		}
		return solo, warmed, pass(sims, trace.NewSliceReader(refs))
	}
	for _, n := range []int{0, 1, batchRefs - 1, batchRefs, batchRefs + 1, 2 * batchRefs, 4*batchRefs + 1} {
		refs := full[:n]
		var want [3][]*Result
		t.Run(schedules[0].name, func(t *testing.T) { want[0], want[1], want[2] = run(t, schedules[0], placements[0], refs) })
		if len(want[1]) != len(warmable) {
			t.Fatalf("%d warmed-up Runs, want %d", len(want[1]), len(warmable))
		}
		if n == len(full) && (want[0][1].Counters.Promotions < 2 || want[0][1].Counters.Demotions < 2) {
			t.Fatal("the two-size pass misses the stream's transitions")
		}
		for _, d := range schedules[1:] {
			t.Run(d.name, func(t *testing.T) {
				for _, pl := range placements {
					t.Run(pl.name, func(t *testing.T) {
						var got [3][]*Result
						got[0], got[1], got[2] = run(t, d, pl, refs)
						for k, kind := range []string{"alone", "warmed up", "in one RunMany"} {
							if !reflect.DeepEqual(got[k], want[k]) {
								t.Errorf("%d refs, %s: Results differ from the fused loop's", n, kind)
							}
						}
					})
				}
			})
		}
	}
}

// FuzzStagedAgreesWithFused turns its input into a short stream (a burst
// of 64 references per byte, in one of 256 4KB blocks), a mix of
// runManyBuilds' simulators, and a staged pass's choices: whether it
// holds a helper at each read, and which ready stage each goroutine
// runs at each pick. The pass must give the fused loop's Results.
func FuzzStagedAgreesWithFused(f *testing.F) {
	// edge promotes chunk 31, which nothing else touches, on the first
	// reference of the second batch: its bytes 125–128 are four of the
	// chunk's blocks.
	edge := make([]byte, 3*batchRefs/64+7)
	for i := range edge {
		edge[i] = byte(i % 0xf8)
	}
	copy(edge[batchRefs/64-3:], []byte{0xf8, 0xf9, 0xfa, 0xfb})
	f.Add(uint16(1<<9-1), uint32(math.MaxUint32), uint64(0), edge)
	f.Add(uint16(0b10010), uint32(0b0110), uint64(0x9e3779b97f4a7c15), edge[:batchRefs/64+1])
	f.Add(uint16(0b100000100), uint32(1), uint64(0xfedcba9876543210), []byte("staged"))
	builds := runManyBuilds()
	f.Fuzz(func(t *testing.T, mix uint16, helpers uint32, picks uint64, stream []byte) {
		refs := make([]trace.Ref, 0, 64*len(stream))
		for _, b := range stream {
			base := addr.VA(1<<30) + addr.VA(b)<<addr.BlockShift
			for j := range 64 {
				kind := trace.Load
				if j%4 == 0 {
					kind = trace.Instr
				}
				refs = append(refs, trace.Ref{Addr: base + addr.VA(j*64), Kind: kind})
			}
		}
		pass := func() []*Result {
			var sims []*Simulator
			for i, b := range builds {
				if mix>>i&1 == 1 || mix == 0 && i == 0 {
					sims = append(sims, b.build())
				}
			}
			res, err := RunMany(context.Background(), trace.NewSliceReader(refs), sims)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		schedules[0].use(t)
		want := pass()
		schedule{"fuzzed", func(i int) int64 { return spare(helpers>>(i%32)&1 == 1) }}.use(t)
		placement{"fuzzed", func(n int, _ bool, ready *[stages]bool) int {
			var at []int
			for s := range stages {
				if ready[s] {
					at = append(at, s)
				}
			}
			if len(at) == 0 {
				return -1
			}
			return at[int(picks>>(2*(n%32))&3)%len(at)]
		}}.use(t)
		if got := pass(); !reflect.DeepEqual(got, want) {
			t.Fatalf("staged Results differ from the fused loop's")
		}
	})
}

// A staged pass hands each assignment on as its page's shift alone, and
// rebuilds the page from the address. So every policy must keep
// policy.Assigner's contract, Assign(va).Page.Number == addr.Page(va,
// Page.Shift), with a shift that fits codeShift, on every reference of
// a stream that promotes and demotes.
func TestPageRebuildsFromAddressAndShift(t *testing.T) {
	refs := streamRefs(t, 3*batchRefs)
	three := addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	two := func(large uint) policy.Assigner {
		cfg := policy.DefaultTwoSizeConfig(2000)
		cfg.LargeShift = large
		return policy.NewTwoSize(cfg)
	}
	ladder := func(demote bool) policy.Assigner {
		cfg := policy.DefaultLadderConfig(2000, three)
		cfg.Demote = demote
		return policy.NewLadder(cfg)
	}
	var hinted []addr.PN
	for _, ref := range refs[:64] {
		hinted = append(hinted, addr.Chunk(ref.Addr))
	}
	for _, tc := range []struct {
		name              string
		pol               policy.Assigner
		promotes, demotes bool // the stream must make the policy promote, and demote
	}{
		{"single 4KB", policy.NewSingle(addr.Size4K), false, false},
		{"single 32KB", policy.NewSingle(addr.Size32K), false, false},
		{"two-size 16KB", two(addr.Shift16K), true, true},
		{"two-size 32KB", two(addr.Shift32K), true, true},
		{"two-size 64KB", two(addr.Shift64K), true, true},
		{"three-class ladder", ladder(true), true, true},
		{"three-class ladder without demotion", ladder(false), true, false},
		{"napot", policy.NewNapot(policy.NapotConfig{Classes: three, Thresholds: []int{4, 32}}), true, false},
		{"region", policy.NewRegion(hinted), false, false},
	} {
		var promotions, demotions int
		for i, ref := range refs {
			res := tc.pol.Assign(ref.Addr)
			if res.Page.Shift > codeShift || res.Page.Number != addr.Page(ref.Addr, res.Page.Shift) {
				t.Fatalf("%s, reference %d (%#x): page %v breaks the contract", tc.name, i, uint64(ref.Addr), res.Page)
			}
			switch res.Event {
			case policy.EventPromote:
				promotions++
			case policy.EventDemote:
				demotions++
			}
		}
		if tc.promotes && promotions == 0 || tc.demotes && demotions == 0 {
			t.Errorf("%s: %d promotions and %d demotions: the stream exercises too few transitions", tc.name, promotions, demotions)
		}
	}
}

// settled waits until the helpers of finished passes have exited: the
// goroutine count is back to base and no pass counts as busy.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= base && busy.Load() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines (%d before the pass), busy %d", runtime.NumGoroutine(), base, busy.Load())
		}
	}
}

// cancelingReader cancels its ctx on its third read.
type cancelingReader struct {
	trace.Reader
	cancel context.CancelFunc
	reads  int
}

func (r *cancelingReader) Read(batch []trace.Ref) (int, error) {
	if r.reads++; r.reads == 3 {
		r.cancel()
	}
	return r.Reader.Read(batch)
}

// errTape is the error tapeReader fails with.
var errTape = errors.New("tape ran out")

// tapeReader yields whole batches of li, then fails on its third read.
type tapeReader struct {
	trace.Reader
	reads int
}

func (r *tapeReader) Read(batch []trace.Ref) (int, error) {
	if r.reads++; r.reads == 3 {
		return 0, errTape
	}
	return r.Reader.Read(batch)
}

// A pass that is canceled, or whose reader fails, mid-stream returns the
// error, and by then its helper has exited and the process-wide count
// is back to zero.
func TestPipelineStopsOnError(t *testing.T) {
	schedules[1].use(t)
	build := func() *Simulator {
		return NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(2000)),
			[]tlb.TLB{tlb.NewFullyAssoc(16)}, WithPageTable())
	}
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		pass func(ctx context.Context, r trace.Reader) error
	}{
		{"RunMany", func(ctx context.Context, r trace.Reader) error {
			_, err := RunMany(ctx, r, []*Simulator{build(), build()})
			return err
		}},
		{"Warm", func(ctx context.Context, r trace.Reader) error { return build().Warm(ctx, r) }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		err := tc.pass(ctx, &cancelingReader{Reader: workload.MustNew("li", 100_000), cancel: cancel})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s, canceled mid-pass: err = %v, want context.Canceled", tc.name, err)
		}
		settled(t, base)
		err = tc.pass(context.Background(), &tapeReader{Reader: workload.MustNew("li", 100_000)})
		if !errors.Is(err, errTape) {
			t.Errorf("%s, reader failing mid-stream: err = %v, want %v", tc.name, err, errTape)
		}
		settled(t, base)
	}
}

// A staged pass canceled while its helper is reading stops at its next
// read, returns the context's error, and leaves no helper behind.
func TestCancelWhileHelperReads(t *testing.T) {
	schedules[1].use(t)
	helperReads.use(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancelingReader{Reader: workload.MustNew("li", 100_000), cancel: cancel}
	sim := NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(2000)),
		[]tlb.TLB{tlb.NewFullyAssoc(16)}, WithPageTable(), WithWSS())
	if _, err := sim.Run(ctx, r); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if r.reads != 3 {
		t.Errorf("%d reads, want 3: the pass reads nothing once canceled", r.reads)
	}
	settled(t, base)
}

// At GOMAXPROCS 1 a pass never takes a helper; at 2 a lone pass does.
func TestHelperNeedsASpareCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs, want := range map[int]int64{1: 1, 2: 2} {
		runtime.GOMAXPROCS(procs)
		r := &busyReader{Reader: workload.MustNew("li", 20_000)}
		sim := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
		if _, err := sim.Run(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		if r.most != want {
			t.Errorf("GOMAXPROCS %d: passes occupied up to %d goroutines, want %d", procs, r.most, want)
		}
	}
}

// A goroutine that Occupy counts holds a CPU as a pass does: at
// GOMAXPROCS 3 a pass beside it takes a helper, making three busy
// goroutines, while a pass under the context Occupy returns counts
// once, its helper making two. Once released, nothing counts as busy.
func TestOccupyCountsOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	base := runtime.NumGoroutine()
	ctx, release := Occupy(context.Background())
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want int64
	}{
		{"beside it", context.Background(), 3},
		{"under its context", ctx, 2},
	} {
		r := &busyReader{Reader: workload.MustNew("li", 20_000)}
		sim := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
		if _, err := sim.Run(tc.ctx, r); err != nil {
			t.Fatal(err)
		}
		if r.most != tc.want {
			t.Errorf("a pass %s: up to %d busy goroutines, want %d", tc.name, r.most, tc.want)
		}
	}
	release()
	settled(t, base)
}

// A pass holding a helper gives it back once another pass starts and
// the two would occupy more goroutines than GOMAXPROCS, and the second
// pass takes none.
func TestHelperYieldsToAnotherPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	release, started := make(chan struct{}), make(chan struct{})
	first := &gatedReader{Reader: workload.MustNew("li", 60_000), release: release, gate: started, at: 3}
	second := &gatedReader{Reader: workload.MustNew("worm", 60_000), open: started}
	errs := make(chan error, 1)
	go func() {
		<-release
		_, err := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)}).Run(context.Background(), second)
		errs <- err
	}()
	if _, err := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)}).Run(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if first.before != 2 || first.after != 2 {
		t.Errorf("busy: up to %d while the first pass ran alone and %d beside the second, want 2 and 2",
			first.before, first.after)
	}
}

// gatedReader closes open on its first read; or, at its read number at,
// closes release and waits on gate, and notes the most busy goroutines
// of its reads before and after.
type gatedReader struct {
	trace.Reader
	open, release, gate chan struct{}
	at, reads           int
	before, after       int64
}

func (r *gatedReader) Read(batch []trace.Ref) (int, error) {
	r.reads++
	if r.open != nil && r.reads == 1 {
		close(r.open)
	}
	if r.gate != nil {
		if r.reads == r.at {
			close(r.release)
			<-r.gate
		}
		b := busy.Load()
		switch {
		case r.reads < r.at:
			r.before = max(r.before, b)
		case r.reads > r.at:
			r.after = max(r.after, b)
		}
	}
	return r.Reader.Read(batch)
}
