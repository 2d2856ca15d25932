package multiprog

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

func refs(n int, base addr.VA) []trace.Ref {
	out := make([]trace.Ref, n)
	for i := range out {
		out[i] = trace.Ref{Addr: base + addr.VA(i*16), Kind: trace.Load}
	}
	return out
}

func readAll(t *testing.T, r trace.Reader) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	buf := make([]trace.Ref, 37)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, 10); err == nil {
		t.Fatal("empty process list should fail")
	}
	if _, err := New([]Process{{Name: "a", Source: trace.NewSliceReader(nil)}}, 0); err == nil {
		t.Fatal("zero quantum should fail")
	}
	if _, err := New([]Process{{Name: "a"}}, 10); err == nil {
		t.Fatal("nil source should fail")
	}
}

func TestTagAndASID(t *testing.T) {
	va := Tag(0x1234, 3)
	if ASID(va) != 3 {
		t.Fatalf("ASID = %d", ASID(va))
	}
	// Tagging preserves all index-relevant low bits.
	if uint64(va)&(1<<ASIDShift-1) != 0x1234 {
		t.Fatalf("low bits disturbed: %#x", uint64(va))
	}
	if addr.Index(va, addr.Shift4K, 4) != addr.Index(0x1234, addr.Shift4K, 4) {
		t.Fatal("set index changed by tagging")
	}
}

func TestRoundRobinInterleaving(t *testing.T) {
	a := trace.NewSliceReader(refs(6, 0x1000))
	b := trace.NewSliceReader(refs(6, 0x2000))
	r, err := New([]Process{{"a", a}, {"b", b}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	if len(out) != 12 {
		t.Fatalf("got %d refs", len(out))
	}
	wantASID := []int{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	for i, ref := range out {
		if ASID(ref.Addr) != wantASID[i] {
			t.Fatalf("ref %d: asid %d, want %d", i, ASID(ref.Addr), wantASID[i])
		}
	}
	if r.Switches() < 5 {
		t.Fatalf("switches = %d", r.Switches())
	}
}

func TestUnevenStreamLengths(t *testing.T) {
	a := trace.NewSliceReader(refs(3, 0x1000))
	b := trace.NewSliceReader(refs(10, 0x2000))
	r, err := New([]Process{{"a", a}, {"b", b}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	if len(out) != 13 {
		t.Fatalf("got %d refs, want 13", len(out))
	}
	// After a finishes, only b's refs appear.
	tail := out[len(out)-6:]
	for _, ref := range tail {
		if ASID(ref.Addr) != 1 {
			t.Fatalf("tail ref from asid %d", ASID(ref.Addr))
		}
	}
}

// flushRecorder is a TLB that notes, at each flush, how many accesses
// it had seen.
type flushRecorder struct {
	tlb.TLB
	accesses uint64
	flushes  []uint64
}

func (r *flushRecorder) Access(va addr.VA, p policy.Page) bool {
	r.accesses++
	return r.TLB.Access(va, p)
}

func (r *flushRecorder) Flush() {
	r.flushes = append(r.flushes, r.accesses)
	r.TLB.Flush()
}

// FlushOnSwitch empties its TLB once at each switch the Reader counts,
// never between two accesses of the same address space.
func TestOnSwitchHook(t *testing.T) {
	a := trace.NewSliceReader(refs(4, 0x1000))
	b := trace.NewSliceReader(refs(4, 0x2000))
	r, err := New([]Process{{"a", a}, {"b", b}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	rec := &flushRecorder{TLB: tlb.NewFullyAssoc(4)}
	f := NewFlushOnSwitch(rec)
	for _, ref := range out {
		f.Access(ref.Addr, policy.Page{Number: addr.Page(ref.Addr, addr.Shift4K), Shift: addr.Shift4K})
	}
	if len(rec.flushes) == 0 {
		t.Fatal("no flushes")
	}
	for _, at := range rec.flushes {
		if at == 0 || ASID(out[at-1].Addr) == ASID(out[at].Addr) {
			t.Fatalf("flush after %d accesses is not at a switch", at)
		}
	}
	if uint64(len(rec.flushes)) != r.Switches() {
		t.Fatalf("flush count %d != Switches %d", len(rec.flushes), r.Switches())
	}
}

// FlushOnSwitch empties its TLB between quanta, however they fall across
// batches and however far core reads the stream ahead of the TLBs:
// after the outgoing process's last reference and before the incoming
// one's first, at every switch the Reader counts.
func TestOnSwitchFiresBetweenQuanta(t *testing.T) {
	r, err := New([]Process{
		{"li", workload.MustNew("li", 35_000)},
		{"worm", workload.MustNew("worm", 35_000)},
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	rec := &flushRecorder{TLB: tlb.NewFullyAssoc(16)}
	sim := core.NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{NewFlushOnSwitch(rec)})
	res, err := core.RunMany(context.Background(), r, []*core.Simulator{sim})
	if err != nil {
		t.Fatal(err)
	}
	// li ends after its fourth quantum's 5000 references.
	want := []uint64{10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 65_000}
	if !reflect.DeepEqual(rec.flushes, want) || r.Switches() != uint64(len(want)) {
		t.Fatalf("TLB emptied after %v references (%d switches), want %v", rec.flushes, r.Switches(), want)
	}
	if res[0].Refs != 70_000 || rec.accesses != 70_000 {
		t.Fatalf("simulated %d references, the TLB saw %d, want 70000", res[0].Refs, rec.accesses)
	}
}

func TestSingleProcessNoSwitches(t *testing.T) {
	a := trace.NewSliceReader(refs(10, 0x1000))
	r, err := New([]Process{{"a", a}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	if len(out) != 10 || r.Switches() != 0 {
		t.Fatalf("refs=%d switches=%d", len(out), r.Switches())
	}
	for _, ref := range out {
		if ASID(ref.Addr) != 0 {
			t.Fatal("single process should keep asid 0")
		}
	}
}

// Distinct processes referencing the same virtual page must produce
// distinct TLB tags (different page numbers once tagged).
func TestASIDDisambiguatesIdenticalAddresses(t *testing.T) {
	a := trace.NewSliceReader(refs(2, 0x5000))
	b := trace.NewSliceReader(refs(2, 0x5000))
	r, err := New([]Process{{"a", a}, {"b", b}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	pages := map[addr.PN]bool{}
	untagged := map[addr.PN]bool{}
	for _, ref := range out {
		pages[addr.Page(ref.Addr, addr.Shift4K)] = true
		untagged[addr.Page(ref.Addr&(1<<ASIDShift-1), addr.Shift4K)] = true
	}
	// Both processes touch virtual page 0x5: one untagged page, but two
	// distinct tagged pages (TLB tags differ by ASID).
	if len(untagged) != 1 {
		t.Fatalf("untagged pages = %d, want 1", len(untagged))
	}
	if len(pages) != 2 {
		t.Fatalf("distinct tagged pages = %d, want 2", len(pages))
	}
}
