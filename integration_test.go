package twopage_test

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/allassoc"
	"twopage/internal/core"
	"twopage/internal/experiments"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/window"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

// The direct TLB simulator and the all-associativity (tycho-style)
// simulator must report identical miss counts for single-page-size
// LRU TLBs, across real workload streams.
func TestDirectVsAllAssociativity(t *testing.T) {
	for _, name := range []string{"li", "matrix300", "tomcatv"} {
		const refs = 150_000
		// Direct simulation of 16- and 32-entry fully associative TLBs.
		fa16 := tlb.NewFullyAssoc(16)
		fa32 := tlb.NewFullyAssoc(32)
		sim := core.NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{fa16, fa32})
		if _, err := sim.Run(context.Background(), workload.MustNew(name, refs)); err != nil {
			t.Fatal(err)
		}
		// One stack-simulation pass covering both sizes.
		sa := allassoc.MustNew(1, addr.Shift4K, 32)
		if _, err := trace.Drain(workload.MustNew(name, refs), func(b []trace.Ref) {
			for _, ref := range b {
				sa.Access(ref.Addr)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := sa.Misses(16), fa16.Stats().Misses(); got != want {
			t.Errorf("%s: allassoc FA16 misses %d != direct %d", name, got, want)
		}
		if got, want := sa.Misses(32), fa32.Stats().Misses(); got != want {
			t.Errorf("%s: allassoc FA32 misses %d != direct %d", name, got, want)
		}
	}
}

// The O(1)-counter working-set calculator must agree with an exact
// sliding-window recomputation on a real workload stream.
func TestStaticWSSVsWindowTracker(t *testing.T) {
	const refs = 60_000
	const T = 4_000
	calc := wss.NewStatic(T, 0, addr.Shift4K)
	win := window.New(T)
	var winAccum float64
	if _, err := trace.Drain(workload.MustNew("espresso", refs), func(b []trace.Ref) {
		for _, ref := range b {
			calc.Step(ref.Addr)
			win.StepVA(ref.Addr)
			winAccum += float64(win.ActiveBlocks()) * addr.BlockSize
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := calc.Finish()[0].AvgBytes
	want := winAccum / refs
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Static WSS %v != window-tracker WSS %v", got, want)
	}
}

// Encoding a workload to the binary trace format and simulating the
// decoded stream must produce byte-identical results to simulating the
// generator directly (the tracegen → tlbsim path).
func TestTraceFileRoundTripPreservesSimulation(t *testing.T) {
	const refs = 120_000
	runTLB := func(src trace.Reader) tlb.Stats {
		pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(refs / 8))
		hw := tlb.NewFullyAssoc(16)
		sim := core.NewSimulator(pol, []tlb.TLB{hw})
		if _, err := sim.Run(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		return hw.Stats()
	}
	direct := runTLB(workload.MustNew("doduc", refs))

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := trace.Drain(workload.MustNew("doduc", refs), func(b []trace.Ref) {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed := runTLB(trace.NewBinaryReader(&buf))
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("replay diverged:\ndirect:   %+v\nreplayed: %+v", direct, replayed)
	}
}

// Every registered experiment must be deterministic: two runs at the
// same options produce identical output. The designspace experiment
// reports a wall-clock ratio (the point of its methodology claim), so
// its timing column is masked before comparison.
func TestExperimentsDeterministic(t *testing.T) {
	maskTiming := regexp.MustCompile(`\d+\.\d+x`)
	for _, e := range experiments.All() {
		render := func() string {
			var sb bytes.Buffer
			err := experiments.NewRunner(
				experiments.WithScale(0.01),
				experiments.WithOut(&sb),
				experiments.WithWorkloads("li", "worm"),
			).Run(context.Background(), e.ID)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := sb.String()
			if e.ID == "designspace" {
				out = maskTiming.ReplaceAllString(out, "T")
			}
			return out
		}
		if a, b := render(), render(); a != b {
			t.Errorf("%s: nondeterministic output", e.ID)
		}
	}
}

// Every registered experiment honours the CSV option and produces at
// least a header and one data row.
func TestExperimentsCSV(t *testing.T) {
	for _, e := range experiments.All() {
		var sb bytes.Buffer
		err := experiments.NewRunner(
			experiments.WithScale(0.01),
			experiments.WithOut(&sb),
			experiments.WithCSV(true),
			experiments.WithWorkloads("li"),
		).Run(context.Background(), e.ID)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		lines := bytes.Count(sb.Bytes(), []byte("\n"))
		if lines < 2 {
			t.Errorf("%s: CSV output too short (%d lines)", e.ID, lines)
		}
	}
}

// A full two-page simulation over every workload must satisfy global
// accounting invariants end to end.
func TestAllWorkloadsAccounting(t *testing.T) {
	for _, spec := range workload.All() {
		const refs = 60_000
		pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(refs / 8))
		hw := tlb.NewFullyAssoc(16)
		sim := core.NewSimulator(pol, []tlb.TLB{hw}, core.WithWSS(), core.WithStaticWSS(refs/8, addr.Size4K))
		res, err := sim.Run(context.Background(), workload.MustNew(spec.Name, refs))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Refs != refs {
			t.Errorf("%s: refs = %d", spec.Name, res.Refs)
		}
		st := res.TLBs[0].Stats
		if st.Accesses != refs || st.Hits()+st.Misses() != st.Accesses {
			t.Errorf("%s: TLB accounting: %+v", spec.Name, st)
		}
		ps := res.PolicyStats
		if ps.Refs != refs || ps.LargeRefs+ps.SmallRefs != ps.Refs {
			t.Errorf("%s: policy accounting: %+v", spec.Name, ps)
		}
		if ps.Demotions > ps.Promotions {
			t.Errorf("%s: more demotions than promotions", spec.Name)
		}
		if res.WSS.AvgBytes <= 0 {
			t.Errorf("%s: WSS = %v", spec.Name, res.WSS.AvgBytes)
		}
		// The two-page working set is bounded by twice the 4KB one
		// (Section 3.4's worst case), measured over the same stream.
		static := res.StaticWSS
		if res.WSS.AvgBytes > 2*static[0].AvgBytes+1 {
			t.Errorf("%s: two-page WSS %v exceeds 2x 4KB WSS %v",
				spec.Name, res.WSS.AvgBytes, static[0].AvgBytes)
		}
	}
}
