package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/disk"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

// runManyBuild names a builder of a fresh simulator.
type runManyBuild struct {
	name  string
	build func() *Simulator
}

// runManyBuilds returns builders of fresh simulators that cover every
// stage of the per-reference loop: several TLBs, the exact, sampled
// and static working sets, the page-table shadow, the walk model and the
// memory stage with and without the disk model.
func runManyBuilds() []runManyBuild {
	three := addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	two := func() *policy.TwoSize { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(2000)) }
	ladder := func() *policy.Ladder { return policy.NewLadder(policy.DefaultLadderConfig(2000, three)) }
	faN := func(entries int) tlb.TLB {
		return tlb.MustNew(tlb.Config{Entries: entries, Ways: entries, Shifts: three.Shifts()})
	}
	dm := disk.Default()
	return []runManyBuild{
		{"single, three TLBs", func() *Simulator {
			return NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16),
				tlb.NewFullyAssoc(64), tlb.MustNew(tlb.Config{Entries: 32, Ways: 2})})
		}},
		{"two-size, WithWSS", func() *Simulator {
			return NewSimulator(two(), []tlb.TLB{tlb.NewFullyAssoc(16),
				tlb.MustNew(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact})}, WithWSS())
		}},
		{"two-size, WithSampledWSS", func() *Simulator {
			return NewSimulator(two(), []tlb.TLB{tlb.NewFullyAssoc(16)}, WithSampledWSS(2000))
		}},
		{"ladder, WithSampledWSS, no TLB", func() *Simulator {
			return NewSimulator(ladder(), nil, WithSampledWSS(1000))
		}},
		{"single, WithStaticWSS, no TLB", func() *Simulator {
			return NewSimulator(policy.NewSingle(addr.Size4K), nil, WithStaticWSS(2000, addr.Size4K, addr.Size32K))
		}},
		{"two-size, WithPageTable", func() *Simulator {
			return NewSimulator(two(), []tlb.TLB{tlb.MustNew(tlb.Config{Entries: 32, Ways: 2,
				Index: tlb.IndexExact}), tlb.NewFullyAssoc(16)}, WithPageTable())
		}},
		{"ladder, WithWalkModel", func() *Simulator {
			return NewSimulator(ladder(), []tlb.TLB{faN(16), faN(32)}, WithWalkModel(walk.Default(three)))
		}},
		{"single, WithMemory", func() *Simulator {
			return NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)},
				WithMemory(Memory{Size: 256 << 10}))
		}},
		{"two-size, WithMemory and disk", func() *Simulator {
			return NewSimulator(two(), []tlb.TLB{tlb.NewFullyAssoc(16)},
				WithMemory(Memory{Size: 256 << 10, Disk: &dm}))
		}},
	}
}

// v2Workload registers refs references of a generated program as a v2
// trace-file workload, whose readers report decode counters.
func v2Workload(t testing.TB, program string, refs uint64) workload.Spec {
	t.Helper()
	var rs []trace.Ref
	if _, err := trace.DrainContext(context.Background(), workload.MustNew(program, refs), func(b []trace.Ref) {
		rs = append(rs, b...)
	}); err != nil {
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
	name := "core:runmany-" + program
	if err := workload.RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(name) })
	s, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countingReader counts the Read calls made on it, and passes on the
// decode counters of a reader that keeps them.
type countingReader struct {
	trace.Reader
	reads int
}

func (c *countingReader) Read(batch []trace.Ref) (int, error) {
	c.reads++
	return c.Reader.Read(batch)
}

func (c *countingReader) DecodeStats() trace.DecodeStats {
	if dc, ok := c.Reader.(trace.DecodeCounter); ok {
		return dc.DecodeStats()
	}
	return trace.DecodeStats{}
}

// RunMany drives simulators of different policies, stages and TLB sets
// through one read of a stream, and each Result equals, field for
// field, its simulator's own Run over the same stream: a generated
// program, and a registered v2 file whose shared reader's decode
// counters every Result reports.
func TestRunManyMatchesRun(t *testing.T) {
	ctx := context.Background()
	li, err := workload.Get("li")
	if err != nil {
		t.Fatal(err)
	}
	file := v2Workload(t, "worm", 30_000)
	builds := runManyBuilds()
	for _, src := range []struct {
		name string
		open func() trace.Reader
	}{
		{"generated li", func() trace.Reader { return li.New(30_000) }},
		{"v2 file", func() trace.Reader { return file.New(0) }},
	} {
		want := make([]*Result, len(builds))
		sims := make([]*Simulator, len(builds))
		for i, b := range builds {
			res, err := b.build().Run(ctx, src.open())
			if err != nil {
				t.Fatalf("%s, %s alone: %v", src.name, b.name, err)
			}
			want[i] = res
			sims[i] = b.build()
		}
		if src.name == "v2 file" && want[0].Counters.DecodedRefs == 0 {
			t.Fatal("the v2 file's passes report no decode counters")
		}
		r := &countingReader{Reader: src.open()}
		got, err := RunMany(ctx, r, sims)
		if err != nil {
			t.Fatalf("%s: RunMany: %v", src.name, err)
		}
		for i, b := range builds {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s, %s: RunMany result\n%+v\nwant its own Run's\n%+v", src.name, b.name, got[i], want[i])
			}
		}
		solo := &countingReader{Reader: src.open()}
		if _, err := builds[0].build().Run(ctx, solo); err != nil {
			t.Fatal(err)
		}
		if r.reads != solo.reads {
			t.Errorf("%s: RunMany of %d simulators read %d batches, one Run reads %d", src.name, len(sims), r.reads, solo.reads)
		}
	}
}

// A configuration error in any simulator fails RunMany before it reads a
// reference.
func TestRunManyConfigErrorReadsNothing(t *testing.T) {
	good := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
	bad := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)}, WithWSS())
	if bad.Err() == nil || good.Err() != nil {
		t.Fatalf("Err: bad %v, good %v", bad.Err(), good.Err())
	}
	r := &countingReader{Reader: workload.MustNew("li", 10_000)}
	_, err := RunMany(context.Background(), r, []*Simulator{good, bad})
	if err == nil || !strings.Contains(err.Error(), "WithWSS") {
		t.Fatalf("err = %v, want the WithWSS configuration error", err)
	}
	if r.reads != 0 {
		t.Fatalf("RunMany read %d batches before failing", r.reads)
	}
}

// A simulator is single-use: a second Run or RunMany, a RunMany that
// lists a simulator twice, and a Warm after Run each fail before they
// read a reference.
func TestSimulatorIsSingleUse(t *testing.T) {
	ctx := context.Background()
	fresh := func() *Simulator {
		return NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
	}
	ran := fresh()
	if _, err := ran.Run(ctx, workload.MustNew("li", 10_000)); err != nil {
		t.Fatal(err)
	}
	twice := fresh()
	for _, tc := range []struct {
		name string
		call func(r trace.Reader) error
	}{
		{"Run after Run", func(r trace.Reader) error {
			_, err := ran.Run(ctx, r)
			return err
		}},
		{"RunMany after Run", func(r trace.Reader) error {
			_, err := RunMany(ctx, r, []*Simulator{fresh(), ran})
			return err
		}},
		{"RunMany listing a simulator twice", func(r trace.Reader) error {
			_, err := RunMany(ctx, r, []*Simulator{twice, fresh(), twice})
			return err
		}},
		{"Warm after Run", func(r trace.Reader) error { return ran.Warm(ctx, r) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &countingReader{Reader: workload.MustNew("li", 10_000)}
			if err := tc.call(r); err == nil {
				t.Error("no error")
			}
			if r.reads != 0 {
				t.Errorf("read %d batches before failing", r.reads)
			}
		})
	}
	// The refused RunMany left twice unused.
	res, err := twice.Run(ctx, workload.MustNew("li", 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 10_000 || res.TLBs[0].Stats.Accesses != 10_000 {
		t.Fatalf("Refs %d, TLB accesses %d, want 10000 each", res.Refs, res.TLBs[0].Stats.Accesses)
	}
}

// BenchmarkRunMany drives the eight threshold-experiment passes (the
// two-size scheme at thresholds 1–8 with its working set, one 16-entry
// fully associative TLB each) over one li stream, as one RunMany
// ("lockstep") against eight Runs that each generate the stream
// ("separate"). B/op and allocs/op show what the lockstep loop costs in
// allocations.
func BenchmarkRunMany(b *testing.B) {
	const refs = 200_000
	sims := func() []*Simulator {
		out := make([]*Simulator, 8)
		for i := range out {
			cfg := policy.TwoSizeConfig{T: refs / 8, Threshold: i + 1, Demote: true, LargeShift: addr.ChunkShift}
			out[i] = NewSimulator(policy.NewTwoSize(cfg), []tlb.TLB{tlb.NewFullyAssoc(16)}, WithWSS())
		}
		return out
	}
	ctx := context.Background()
	b.Run("lockstep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunMany(ctx, workload.MustNew("li", refs), sims()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sims() {
				if _, err := s.Run(ctx, workload.MustNew("li", refs)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
