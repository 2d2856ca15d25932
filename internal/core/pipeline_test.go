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

// A schedule picks, at every sub-batch, the limit a pass weighs its busy
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

// schedules are the fused loop, the pipeline, and the pipeline taken at
// the second sub-batch, handed back there, or toggled at every one.
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

// warmable lists the builds that can warm up: no memory stage, sampled
// or static working set.
var warmable = map[string]bool{
	"single, three TLBs":      true,
	"two-size, WithWSS":       true,
	"two-size, WithPageTable": true,
	"ladder, WithWalkModel":   true,
}

// Every schedule gives the Results of the fused loop, field for field:
// for every option mix alone and all of them in one RunMany, for a
// warmed-up Run, at stream lengths around the sub-batch and the ring.
func TestFusedAndPipelinedAgree(t *testing.T) {
	ctx := context.Background()
	full := streamRefs(t, 8193)
	builds := runManyBuilds()
	// run drives every build on one schedule: each alone, a warmed-up
	// Run of each that can warm up, and all of them in one RunMany.
	run := func(t *testing.T, d schedule, refs []trace.Ref) (solo, warmed, many []*Result) {
		restart := d.use(t)
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
	for _, n := range []int{0, 1, 2047, 2048, 2049, 8192, 8193} {
		refs := full[:n]
		var want [3][]*Result
		t.Run(schedules[0].name, func(t *testing.T) { want[0], want[1], want[2] = run(t, schedules[0], refs) })
		if len(want[1]) != len(warmable) {
			t.Fatalf("%d warmed-up Runs, want %d", len(want[1]), len(warmable))
		}
		if n == len(full) && want[0][1].Counters.Promotions == 0 {
			t.Fatal("the two-size pass promotes nothing; the stream exercises no transition")
		}
		for _, d := range schedules[1:] {
			t.Run(d.name, func(t *testing.T) {
				var got [3][]*Result
				got[0], got[1], got[2] = run(t, d, refs)
				for k, kind := range []string{"alone", "warmed up", "in one RunMany"} {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Errorf("%d refs, %s: Results differ from the fused loop's", n, kind)
					}
				}
			})
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

// tapeReader yields whole sub-batches of li, then fails on its third
// read.
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
