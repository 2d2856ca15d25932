package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/metrics"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

// makeTrace builds a tiny hand-rolled stream: instruction fetches to one
// page plus data refs cycling over nPages data pages.
func makeTrace(n, nPages int) []trace.Ref {
	refs := make([]trace.Ref, 0, 2*n)
	for i := 0; i < n; i++ {
		refs = append(refs, trace.Ref{Addr: 0x1000, Kind: trace.Instr})
		va := addr.VA(0x100000 + (i%nPages)*addr.BlockSize)
		refs = append(refs, trace.Ref{Addr: va, Kind: trace.Load})
	}
	return refs
}

func TestSingleSizeSimulation(t *testing.T) {
	refs := makeTrace(1000, 4)
	sim := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(8)})
	res, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 2000 || res.Instrs != 1000 {
		t.Fatalf("refs=%d instrs=%d", res.Refs, res.Instrs)
	}
	if res.RPI() != 2.0 {
		t.Fatalf("RPI = %v", res.RPI())
	}
	if res.Policy != "4KB" {
		t.Fatalf("policy = %q", res.Policy)
	}
	tr := res.TLBs[0]
	// 5 compulsory misses (1 code + 4 data), everything else hits.
	if tr.Stats.Misses() != 5 {
		t.Fatalf("misses = %d", tr.Stats.Misses())
	}
	if tr.MissPenalty != metrics.MissPenaltySingle {
		t.Fatalf("penalty = %v", tr.MissPenalty)
	}
	wantMPI := 5.0 / 1000.0
	if math.Abs(tr.MPI-wantMPI) > 1e-12 {
		t.Fatalf("MPI = %v", tr.MPI)
	}
	if math.Abs(tr.CPITLB-wantMPI*20) > 1e-12 {
		t.Fatalf("CPITLB = %v", tr.CPITLB)
	}
	if res.WSS != nil || res.PolicyStats != nil {
		t.Fatal("single-size run should not carry two-size extras")
	}
}

func TestTwoSizeDefaultsToHigherPenalty(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(100))
	sim := NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(8)})
	res, err := sim.Run(context.Background(), trace.NewSliceReader(makeTrace(100, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.TLBs[0].MissPenalty != metrics.MissPenaltyTwo {
		t.Fatalf("penalty = %v", res.TLBs[0].MissPenalty)
	}
	if res.PolicyStats == nil {
		t.Fatal("two-size run should report policy stats")
	}
}

// Every option that does not fit the simulator's policy or TLBs is a
// configuration error that both Warm and Run return, never a panic.
func TestOptionErrors(t *testing.T) {
	three := addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K)
	single := func() policy.Assigner { return policy.NewSingle(addr.Size4K) }
	two := func() policy.Assigner { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(100)) }
	ladder := func() policy.Assigner { return policy.NewLadder(policy.DefaultLadderConfig(100, three)) }
	fa := func() []tlb.TLB { return []tlb.TLB{tlb.NewFullyAssoc(8)} }
	flatWalk := walk.Config{MissCycles: 24}
	both := func(a, b Option) Option { return func(s *Simulator) { a(s); b(s) } }
	tests := []struct {
		name    string
		pol     policy.Assigner
		tlbs    []tlb.TLB
		opt     Option
		wantErr string // substring of the error; empty for a valid configuration
	}{
		{name: "WithWSS on a single size", pol: single(), tlbs: fa(), opt: WithWSS(), wantErr: "WithWSS"},
		{name: "WithWSS on a ladder", pol: ladder(), tlbs: fa(), opt: WithWSS(), wantErr: "WithWSS"},
		{name: "WithWSS on two sizes", pol: two(), opt: WithWSS()},
		{name: "WithPageTable on a single size", pol: single(), tlbs: fa(), opt: WithPageTable(), wantErr: "WithPageTable"},
		{name: "WithPageTable without a TLB", pol: two(), opt: WithPageTable(), wantErr: "WithPageTable"},
		{name: "WithPageTable on a ladder", pol: ladder(), tlbs: fa(), opt: WithPageTable()},
		{name: "WithWalkModel without a TLB", pol: two(), opt: WithWalkModel(flatWalk), wantErr: "WithWalkModel"},
		{name: "WithWalkModel with disagreeing classes", pol: two(), tlbs: fa(),
			opt: WithWalkModel(walk.Default(three)), wantErr: "disagree"},
		{name: "WithWalkModel with an invalid cache geometry", pol: two(), tlbs: fa(),
			opt: WithWalkModel(walk.Config{MemBytes: 3000, MemWays: 4, MissCycles: 24}), wantErr: "cache"},
		{name: "WithWalkModel on two sizes", pol: two(), tlbs: fa(), opt: WithWalkModel(flatWalk)},
		{name: "WithSampledWSS on a single size", pol: single(), tlbs: fa(), opt: WithSampledWSS(100), wantErr: "WithSampledWSS"},
		{name: "WithSampledWSS with WithWSS", pol: two(), tlbs: fa(), opt: both(WithWSS(), WithSampledWSS(100)), wantErr: "combine"},
		{name: "WithWSS after WithSampledWSS", pol: two(), opt: both(WithSampledWSS(100), WithWSS()), wantErr: "combine"},
		{name: "WithSampledWSS with a zero window", pol: two(), tlbs: fa(), opt: WithSampledWSS(0), wantErr: "WithSampledWSS"},
		{name: "WithSampledWSS followed by Warm", pol: ladder(), tlbs: fa(), opt: WithSampledWSS(100), wantErr: "Warm"},
		{name: "WithStaticWSS with a zero window", pol: single(), opt: WithStaticWSS(0, addr.Size4K), wantErr: "WithStaticWSS"},
		{name: "WithStaticWSS without sizes", pol: single(), opt: WithStaticWSS(100), wantErr: "WithStaticWSS"},
		{name: "WithStaticWSS with an invalid size", pol: single(), opt: WithStaticWSS(100, addr.Size4K, 3000), wantErr: "WithStaticWSS"},
		{name: "WithStaticWSS followed by Warm", pol: two(), tlbs: fa(), opt: WithStaticWSS(100, addr.Size4K), wantErr: "Warm"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSimulator(tc.pol, tc.tlbs, tc.opt)
			refs := makeTrace(50, 4)
			check := func(op string, err error) {
				if tc.wantErr == "" {
					if err != nil {
						t.Errorf("%s: unexpected error: %v", op, err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s error = %v, want one naming %q", op, err, tc.wantErr)
				}
			}
			check("Warm", sim.Warm(context.Background(), trace.NewSliceReader(refs)))
			_, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
			check("Run", err)
		})
	}
}

// WithWSS needs a TwoSize policy that has no working-set calculator and
// has assigned no reference. A second WithWSS on one simulator, a second
// simulator with WithWSS on the same policy, and a policy that already
// assigned references are configuration errors that Err, Warm and Run
// return before they read a reference.
func TestWithWSSNeedsAFreshPolicy(t *testing.T) {
	two := func() *policy.TwoSize { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(100)) }
	for _, tc := range []struct {
		name    string
		build   func() *Simulator
		wantErr string
	}{
		{"a second WithWSS on one simulator", func() *Simulator {
			return NewSimulator(two(), nil, WithWSS(), WithWSS())
		}, "already has a working-set calculator"},
		{"a second simulator with WithWSS on the same policy", func() *Simulator {
			pol := two()
			NewSimulator(pol, nil, WithWSS())
			return NewSimulator(pol, nil, WithWSS())
		}, "already has a working-set calculator"},
		{"a policy that assigned references", func() *Simulator {
			pol := two()
			pol.Assign(0x1000)
			return NewSimulator(pol, nil, WithWSS())
		}, "already assigned references"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(op string, err error, r *countingReader) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s error = %v, want one saying %q", op, err, tc.wantErr)
				}
				if r != nil && r.reads != 0 {
					t.Errorf("%s read %d batches before failing", op, r.reads)
				}
			}
			check("Err", tc.build().Err(), nil)
			r := &countingReader{Reader: workload.MustNew("li", 1000)}
			check("Warm", tc.build().Warm(context.Background(), r), r)
			r = &countingReader{Reader: workload.MustNew("li", 1000)}
			_, err := tc.build().Run(context.Background(), r)
			check("Run", err, r)
		})
	}
}

// TestSampledWSSMatchesDirect checks core's sampled working set against
// the same sampler driven by hand, for a policy whose window it shares
// (TwoSize) and a windowless one (a two-size Napot at the paper's
// threshold), and that attaching it changes neither the TLB's nor the
// policy's counters.
func TestSampledWSSMatchesDirect(t *testing.T) {
	ctx := context.Background()
	var refs []trace.Ref
	if _, err := trace.DrainContext(ctx, workload.MustNew("li", 40000), func(b []trace.Ref) {
		refs = append(refs, b...)
	}); err != nil {
		t.Fatal(err)
	}
	const T = 5000
	for _, mk := range []func() policy.MultiSize{
		func() policy.MultiSize { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)) },
		func() policy.MultiSize {
			return policy.NewNapot(policy.NapotConfig{
				Classes:    addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift),
				Thresholds: []int{4},
			})
		},
	} {
		name := mk().Name()
		got, err := NewSimulator(mk(), []tlb.TLB{tlb.NewFullyAssoc(16)}, WithSampledWSS(T)).Run(ctx, trace.NewSliceReader(refs))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewSimulator(mk(), []tlb.TLB{tlb.NewFullyAssoc(16)}).Run(ctx, trace.NewSliceReader(refs))
		if err != nil {
			t.Fatal(err)
		}
		pol := mk()
		s, err := wss.NewSampled(pol, T, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			pol.Assign(r.Addr)
			s.Step(r.Addr)
		}
		if want := s.Result(); got.WSS == nil || *got.WSS != want || want.AvgBytes == 0 {
			t.Errorf("%s: WSS = %+v, want the hand-driven sampler's %+v", name, got.WSS, want)
		}
		if plain.WSS != nil {
			t.Errorf("%s: WSS = %+v without the option", name, plain.WSS)
		}
		if got.TLBs[0].Stats != plain.TLBs[0].Stats || !reflect.DeepEqual(got.PolicyStats, plain.PolicyStats) ||
			!reflect.DeepEqual(got.LadderStats, plain.LadderStats) || got.Counters != plain.Counters {
			t.Errorf("%s: the sampler moved counters: TLB %+v vs %+v, policy %+v vs %+v, ladder %+v vs %+v, report %+v vs %+v", name,
				got.TLBs[0].Stats, plain.TLBs[0].Stats, got.PolicyStats, plain.PolicyStats,
				got.LadderStats, plain.LadderStats, got.Counters, plain.Counters)
		}
		if got.Counters.Promotions == 0 {
			t.Errorf("%s: no promotion reported: %+v", name, got.Counters)
		}
	}
}

// Promotion must invalidate the chunk's small-page TLB entries: after a
// chunk is promoted, its old small entries may not produce hits.
func TestPromotionInvalidatesSmallEntries(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(1000))
	tl := tlb.NewFullyAssoc(16)
	sim := NewSimulator(pol, []tlb.TLB{tl})

	// Touch 4 blocks of chunk 0 → 3 small misses, promotion on the 4th,
	// which then misses as a large page.
	var refs []trace.Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, trace.Ref{Addr: addr.VA(i * addr.BlockSize), Kind: trace.Load})
	}
	// Re-touch block 0: now on the large page, which is resident → hit.
	refs = append(refs, trace.Ref{Addr: 0, Kind: trace.Load})
	res, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	st := res.TLBs[0].Stats
	if st.MissesByClass[0] != 3 || st.MissesByClass[1] != 1 || st.HitsByClass[1] != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Invalidations != 3 {
		// The three resident small entries are shot down at promotion.
		t.Fatalf("invalidations = %d, want 3", st.Invalidations)
	}
	// No stale small entries remain.
	for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
		if tl.Contains(policy.Page{Number: i, Shift: addr.BlockShift}) {
			t.Fatalf("stale small entry for block %d", i)
		}
	}
	if !tl.Contains(policy.Page{Number: 0, Shift: addr.ChunkShift}) {
		t.Fatal("large entry should be resident")
	}
}

func TestDemotionInvalidatesLargeEntry(t *testing.T) {
	cfg := policy.DefaultTwoSizeConfig(8)
	pol := policy.NewTwoSize(cfg)
	tl := tlb.NewFullyAssoc(16)
	sim := NewSimulator(pol, []tlb.TLB{tl})
	var refs []trace.Ref
	for i := 0; i < 4; i++ { // promote chunk 0
		refs = append(refs, trace.Ref{Addr: addr.VA(i * addr.BlockSize), Kind: trace.Load})
	}
	for i := 0; i < 8; i++ { // age chunk 0 out of the window
		refs = append(refs, trace.Ref{Addr: addr.VA(100<<addr.ChunkShift) + addr.VA(i*addr.BlockSize), Kind: trace.Load})
	}
	refs = append(refs, trace.Ref{Addr: 0, Kind: trace.Load}) // demotes
	_, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	if tl.Contains(policy.Page{Number: 0, Shift: addr.ChunkShift}) {
		t.Fatal("large entry should have been invalidated on demotion")
	}
	if !tl.Contains(policy.Page{Number: 0, Shift: addr.BlockShift}) {
		t.Fatal("the demoting access should have installed a small entry")
	}
}

func TestMultipleTLBsShareOnePass(t *testing.T) {
	refs := makeTrace(2000, 32)
	newTLBs := func() []tlb.TLB {
		return []tlb.TLB{tlb.NewFullyAssoc(8), tlb.MustNew(tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexSmall})}
	}
	pol := func() policy.Assigner { return policy.NewSingle(addr.Size4K) }
	res, err := NewSimulator(pol(), newTLBs()).Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	// Split gives each TLB the Result of the same pass with it alone.
	parts, err := res.Split()
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range newTLBs() {
		solo, err := NewSimulator(pol(), []tlb.TLB{tl}).Run(context.Background(), trace.NewSliceReader(refs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parts[i], solo) {
			t.Errorf("Split part %d = %+v, want the one-TLB pass's %+v", i, parts[i], solo)
		}
	}
	if len(res.TLBs) != 2 {
		t.Fatalf("got %d TLB results", len(res.TLBs))
	}
	if res.TLBs[0].Stats.Accesses != res.TLBs[1].Stats.Accesses {
		t.Fatal("both TLBs must see every reference")
	}
	// 32-page cyclic data + 8-entry FA: data thrashes the small TLB but
	// fits the larger one.
	if res.TLBs[0].MPI <= res.TLBs[1].MPI {
		t.Fatalf("8-entry MPI %v should exceed 32-entry MPI %v",
			res.TLBs[0].MPI, res.TLBs[1].MPI)
	}
}

// The page-table shadow and the walk model follow the first TLB's
// misses, so a result carrying their counters cannot be split per TLB.
func TestSplitRefusesFirstTLBCounters(t *testing.T) {
	fa := []tlb.TLB{tlb.NewFullyAssoc(8), tlb.NewFullyAssoc(16)}
	sim := NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(100)), fa, WithPageTable())
	res, err := sim.Run(context.Background(), trace.NewSliceReader(makeTrace(50, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Split(); err == nil {
		t.Fatal("Split accepted a result with page-table counters")
	}
}

func TestWithWSSProducesResult(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(500))
	sim := NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(8)}, WithWSS())
	res, err := sim.Run(context.Background(), workload.MustNew("li", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.WSS == nil || res.WSS.AvgBytes <= 0 {
		t.Fatalf("WSS = %+v", res.WSS)
	}
	if res.WSS.Scheme != "4KB/32KB" {
		t.Fatalf("scheme = %q", res.WSS.Scheme)
	}
}

// A warm-up is an ordinary pass that ends by restarting the working
// set's average: a WithWSS simulator warmed up over the first part of a
// stream that promotes and demotes, then run over the rest, reports the
// Result.WSS of a policy and calculator driven by hand over the whole
// stream and restarted at the cut, fused, staged, and with the helper
// taken or given back mid-pass.
func TestWarmRestartsTheWorkingSet(t *testing.T) {
	ctx := context.Background()
	refs := boundaryStream(t, 4*batchRefs+1)
	two := func() *policy.TwoSize { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(2000)) }
	// Two promotions before the first cut and two demotions after it;
	// the second cut falls between the demotions.
	for _, cut := range []int{2*batchRefs + 1, 3 * batchRefs} {
		pol := two()
		calc := wss.NewTwoSize(pol)
		for i, ref := range refs {
			if i == cut {
				calc.Restart()
			}
			calc.Observe(pol.Assign(ref.Addr))
		}
		want := calc.Result()
		if st := pol.Stats(); st.Promotions < 2 || st.Demotions < 2 {
			t.Fatalf("the stream carries %d promotions and %d demotions, want 2 of each", st.Promotions, st.Demotions)
		}
		for _, d := range schedules {
			t.Run(d.name, func(t *testing.T) {
				restart := d.use(t)
				s := NewSimulator(two(), []tlb.TLB{tlb.NewFullyAssoc(16)}, WithWSS())
				if err := s.Warm(ctx, trace.NewSliceReader(refs[:cut])); err != nil {
					t.Fatal(err)
				}
				restart()
				res, err := s.Run(ctx, trace.NewSliceReader(refs[cut:]))
				if err != nil {
					t.Fatal(err)
				}
				if *res.WSS != want {
					t.Errorf("cut at %d: WSS %+v, want %+v", cut, *res.WSS, want)
				}
			})
		}
	}
}

// WithStaticWSS reports what wss.Static stepped over the same
// addresses reports and the stream's distinct 4KB blocks, whatever else
// the simulator drives, and it changes none of the other counters.
func TestWithStaticWSS(t *testing.T) {
	const T = 3000
	sizes := []addr.PageSize{addr.Size4K, addr.Size8K, addr.Size32K, addr.Size64K}
	shifts := make([]uint, len(sizes))
	for i, size := range sizes {
		shifts[i] = size.Shift()
	}
	var refs []trace.Ref
	if _, err := trace.DrainContext(context.Background(), workload.MustNew("li", 50_000), func(b []trace.Ref) {
		refs = append(refs, b...)
	}); err != nil {
		t.Fatal(err)
	}
	calc := wss.NewStatic(T, 0, shifts...)
	for _, ref := range refs {
		calc.Step(ref.Addr)
	}
	want := calc.Finish()

	run := func(opts ...Option) *Result {
		pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
		res, err := NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(16)}, opts...).Run(context.Background(), trace.NewSliceReader(refs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got := run(WithStaticWSS(T, sizes...))
	if !reflect.DeepEqual(got.StaticWSS, want) {
		t.Fatalf("StaticWSS = %+v, want wss.Static's %+v", got.StaticWSS, want)
	}
	if got.Counters.WSSPages != want[0].Pages {
		t.Errorf("wss_pages = %d, want the first size's %d", got.Counters.WSSPages, want[0].Pages)
	}
	if uint64(len(got.Footprint)) != want[0].Pages {
		t.Errorf("footprint has %d pages, want the first size's %d", len(got.Footprint), want[0].Pages)
	}
	blocks := map[addr.PN]bool{}
	for _, ref := range refs {
		blocks[addr.Block(ref.Addr)] = true
	}
	var wantFootprint []addr.PN
	for b := range blocks {
		wantFootprint = append(wantFootprint, b)
	}
	slices.Sort(wantFootprint)
	if !slices.Equal(got.Footprint, wantFootprint) {
		t.Errorf("footprint is not the stream's %d sorted distinct 4KB blocks", len(wantFootprint))
	}
	plain := run()
	got.StaticWSS, got.Footprint, got.Counters.WSSPages = nil, nil, 0
	if !reflect.DeepEqual(got, plain) {
		t.Errorf("WithStaticWSS changed the pass's other results:\n%+v\nwant\n%+v", got, plain)
	}

	// A stream cycling over 4 data pages and 1 code page with T
	// covering everything: the averages converge to the pages touched.
	res, err := NewSimulator(policy.NewSingle(addr.Size4K), nil, WithStaticWSS(1<<20, addr.Size4K, addr.Size32K)).
		Run(context.Background(), trace.NewSliceReader(makeTrace(4000, 4)))
	if err != nil {
		t.Fatal(err)
	}
	want4K := 5.0 * float64(addr.BlockSize)
	if got := res.StaticWSS[0].AvgBytes; math.Abs(got-want4K) > 0.05*want4K {
		t.Fatalf("4KB WSS = %v, want ≈%v", got, want4K)
	}
	// Data pages 0x100000-0x104000 lie in chunk 32, code in chunk 0.
	want32K := 2.0 * float64(addr.ChunkSize)
	if got := res.StaticWSS[1].AvgBytes; math.Abs(got-want32K) > 0.05*want32K {
		t.Fatalf("32KB WSS = %v, want ≈%v", got, want32K)
	}
}

// Sections of one stream, each run by a static simulator told where it
// starts and merged by MergeResults, report the serial pass's static
// working sets and run-report counters exactly, however the stream is
// cut: unevenly, and with an empty section.
func TestSectionedStaticWSSMergesExactly(t *testing.T) {
	const n = 50_000
	var refs []trace.Ref
	if _, err := trace.DrainContext(context.Background(), workload.MustNew("li", n), func(b []trace.Ref) {
		refs = append(refs, b...)
	}); err != nil {
		t.Fatal(err)
	}
	run := func(start, end int) *Result {
		sim := NewSimulator(policy.NewSingle(addr.Size4K), nil, WithStaticWSS(3000, addr.Size4K, addr.Size16K, addr.Size64K))
		sim.Section(uint64(start))
		res, err := sim.Run(context.Background(), trace.NewSliceReader(refs[start:end]))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(0, n)
	// Section boundaries, from the first reference to the last.
	for _, bounds := range [][]int{
		{0, n},
		{0, 7_001, n},
		{0, 20_000, 20_000, n},
		{0, 1, 999, 15_000, 15_000, 30_517, 31_000, 44_444, n},
	} {
		var parts []*Result
		for i := range len(bounds) - 1 {
			parts = append(parts, run(bounds[i], bounds[i+1]))
		}
		got := MergeResults(parts)
		if !reflect.DeepEqual(got.StaticWSS, serial.StaticWSS) {
			t.Errorf("%d sections: StaticWSS = %+v, want the serial pass's %+v", len(parts), got.StaticWSS, serial.StaticWSS)
		}
		if !reflect.DeepEqual(got.Counters, serial.Counters) {
			t.Errorf("%d sections: counters = %+v, want the serial pass's %+v", len(parts), got.Counters, serial.Counters)
		}
	}
}

// Without static working sets, Section changes nothing a pass reports.
func TestSectionWithoutStaticWSS(t *testing.T) {
	run := func(section bool) *Result {
		sim := NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(3000)), []tlb.TLB{tlb.NewFullyAssoc(16)}, WithWSS())
		if section {
			sim.Section(12_345)
		}
		res, err := sim.Run(context.Background(), workload.MustNew("li", 30_000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Errorf("Section changed the pass:\n%+v\nwant\n%+v", got, want)
	}
}

// A simulator with no TLBs and WithWSS is the dynamic scheme's
// working-set pass: policy and WSS calculator only.
func TestWSSOnlyPass(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(20_000))
	res, err := NewSimulator(pol, nil, WithWSS()).Run(context.Background(), workload.MustNew("matrix300", 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.WSS.AvgBytes <= 0 {
		t.Fatalf("avg = %v", res.WSS.AvgBytes)
	}
	if res.PolicyStats.Promotions == 0 {
		t.Fatal("matrix300 must promote")
	}
	if len(res.TLBs) != 0 {
		t.Fatalf("got %d TLB results, want none", len(res.TLBs))
	}
}

// End-to-end sanity on a real generator: the headline result. For
// matrix300, a 16-entry FA TLB with 32KB pages must dramatically beat
// 4KB pages, and the two-page scheme must land near the 32KB result.
func TestMatrix300Headline(t *testing.T) {
	const n = 400_000
	run := func(pol policy.Assigner) float64 {
		sim := NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(16)})
		res, err := sim.Run(context.Background(), workload.MustNew("matrix300", n))
		if err != nil {
			t.Fatal(err)
		}
		return res.TLBs[0].CPITLB
	}
	cpi4 := run(policy.NewSingle(addr.Size4K))
	cpi32 := run(policy.NewSingle(addr.Size32K))
	cpiTwo := run(policy.NewTwoSize(policy.DefaultTwoSizeConfig(100_000)))
	if cpi4 < 4*cpi32 {
		t.Fatalf("32KB should win big: cpi4=%v cpi32=%v", cpi4, cpi32)
	}
	if cpiTwo > cpi4/2 {
		t.Fatalf("two-page should approach 32KB: cpi4=%v cpiTwo=%v cpi32=%v",
			cpi4, cpiTwo, cpi32)
	}
}

// failingReader errors mid-stream; the simulator must propagate it.
type failingReader struct{ n int }

func (f *failingReader) Read(batch []trace.Ref) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("tape ran out")
	}
	f.n--
	batch[0] = trace.Ref{Addr: 0x1000, Kind: trace.Load}
	return 1, nil
}

func TestRunPropagatesReaderErrors(t *testing.T) {
	sim := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(4)})
	if _, err := sim.Run(context.Background(), &failingReader{n: 5}); err == nil {
		t.Fatal("reader error should propagate")
	}
	static := NewSimulator(policy.NewSingle(addr.Size4K), nil, WithStaticWSS(10, addr.Size4K))
	if _, err := static.Run(context.Background(), &failingReader{n: 2}); err == nil {
		t.Fatal("WSS pass should propagate reader errors")
	}
	wssOnly := NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(10)), nil, WithWSS())
	if err := wssOnly.Warm(context.Background(), &failingReader{n: 2}); err == nil {
		t.Fatal("warm-up should propagate reader errors")
	}
}
