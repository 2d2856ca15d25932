package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/metrics"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
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
	if res.RPI != 2.0 {
		t.Fatalf("RPI = %v", res.RPI)
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
	a := tlb.NewFullyAssoc(8)
	b := tlb.MustNew(tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexSmall})
	sim := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{a, b})
	res, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
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

func TestMeasureStaticWSS(t *testing.T) {
	// A stream cycling over 4 pages with T covering everything: average
	// WSS converges to 4 pages (x page size).
	refs := makeTrace(4000, 4)
	got, err := MeasureStaticWSS(context.Background(), trace.NewSliceReader(refs), 1<<20, addr.Size4K, addr.Size32K)
	if err != nil {
		t.Fatal(err)
	}
	// 4 data pages + 1 code page.
	want4K := 5.0 * float64(addr.BlockSize)
	if math.Abs(got[0].AvgBytes-want4K) > 0.05*want4K {
		t.Fatalf("4KB WSS = %v, want ≈%v", got[0].AvgBytes, want4K)
	}
	// At 32KB: data pages 0x100000.. span one 32KB page... data pages
	// 0x100000-0x104000 lie in chunk 32; code in chunk 0 → 2 pages.
	want32K := 2.0 * float64(addr.ChunkSize)
	if math.Abs(got[1].AvgBytes-want32K) > 0.05*want32K {
		t.Fatalf("32KB WSS = %v, want ≈%v", got[1].AvgBytes, want32K)
	}
	if _, err := MeasureStaticWSS(context.Background(), trace.NewSliceReader(refs), 10, addr.PageSize(3000)); err == nil {
		t.Fatal("invalid page size should error")
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
	if _, err := MeasureStaticWSS(context.Background(), &failingReader{n: 2}, 10, addr.Size4K); err == nil {
		t.Fatal("WSS pass should propagate reader errors")
	}
	wssOnly := NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(10)), nil, WithWSS())
	if err := wssOnly.Warm(context.Background(), &failingReader{n: 2}); err == nil {
		t.Fatal("warm-up should propagate reader errors")
	}
}
