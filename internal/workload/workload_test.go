package workload

import (
	"context"
	"errors"
	"io"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/trace"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("want 12 programs, got %d", len(names))
	}
	wantOrder := []string{"li", "espresso", "fpppp", "doduc", "x11perf",
		"eqntott", "worm", "nasa7", "xnews", "matrix300", "tomcatv", "verilog"}
	for i, w := range wantOrder {
		if names[i] != w {
			t.Fatalf("order[%d] = %q, want %q", i, names[i], w)
		}
	}
	for _, s := range All() {
		if s.DefaultRefs == 0 || s.Description == "" || s.New == nil {
			t.Errorf("spec %q incomplete", s.Name)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get of unknown program should error")
	}
	s, err := Get("tomcatv")
	if err != nil || !s.LargeWS {
		t.Fatalf("tomcatv: %v, LargeWS=%v", err, s.LargeWS)
	}
	if s2, _ := Get("li"); s2.LargeWS {
		t.Fatal("li should be in the small class")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("nope", 0)
}

func collect(t *testing.T, r trace.Reader, want uint64) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	buf := make([]trace.Ref, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(out)) > want {
			t.Fatalf("generator exceeded requested length")
		}
	}
	if uint64(len(out)) != want {
		t.Fatalf("generated %d refs, want %d", len(out), want)
	}
	return out
}

func TestGeneratorsProduceExactLengths(t *testing.T) {
	for _, name := range Names() {
		r := MustNew(name, 10_000)
		collect(t, r, 10_000)
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := collect(t, MustNew(name, 20_000), 20_000)
		b := collect(t, MustNew(name, 20_000), 20_000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ref %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

func TestRPIInPlausibleRange(t *testing.T) {
	// Every instruction is fetched, plus ~0.3-0.4 data refs: RPI in
	// roughly [1.25, 1.45] like SPARC traces of the era.
	for _, name := range Names() {
		refs := collect(t, MustNew(name, 100_000), 100_000)
		c, err := trace.CountRefs(context.Background(), trace.NewSliceReader(refs))
		if err != nil {
			t.Fatal(err)
		}
		rpi := c.RPI()
		if rpi < 1.2 || rpi > 1.5 {
			t.Errorf("%s: RPI = %.3f outside [1.2, 1.5]", name, rpi)
		}
		if c.Store == 0 {
			t.Errorf("%s: no stores generated", name)
		}
		if c.Load == 0 {
			t.Errorf("%s: no loads generated", name)
		}
	}
}

// Distinct 4KB footprint ordering should follow the paper's small/large
// classification: every LargeWS program touches more blocks than every
// small-class program over the same horizon.
func TestFootprintClasses(t *testing.T) {
	const n = 400_000
	foot := map[string]int{}
	for _, s := range All() {
		refs := collect(t, s.New(n), n)
		blocks := map[addr.PN]bool{}
		for _, r := range refs {
			blocks[addr.Block(r.Addr)] = true
		}
		foot[s.Name] = len(blocks)
	}
	minLarge, maxSmall := 1<<30, 0
	for _, s := range All() {
		if s.LargeWS {
			if foot[s.Name] < minLarge {
				minLarge = foot[s.Name]
			}
		} else if foot[s.Name] > maxSmall {
			maxSmall = foot[s.Name]
		}
	}
	if minLarge <= maxSmall {
		t.Errorf("class overlap: min large-class footprint %d <= max small-class %d (%v)",
			minLarge, maxSmall, foot)
	}
}

// worm is constructed to sit below the promotion threshold: the default
// policy must promote (almost) nothing, while matrix300 must promote
// heavily. This is the paper's espresso/worm-vs-matrix300 contrast.
func TestPromotionContrast(t *testing.T) {
	// Instruction fetches to small loopy code dominate raw reference
	// counts and (rightly) promote dense code chunks, so the contrast
	// that drives CPI lives in the data references: measure the fraction
	// of data refs that land on large pages.
	dataLargeFrac := func(name string) float64 {
		const n = 600_000
		pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(100_000))
		refs := collect(t, MustNew(name, n), n)
		var data, large uint64
		for _, r := range refs {
			res := pol.Assign(r.Addr)
			if r.Kind == trace.Instr {
				continue
			}
			data++
			if res.Page.Shift == addr.ChunkShift {
				large++
			}
		}
		return float64(large) / float64(data)
	}
	worm := dataLargeFrac("worm")
	m300 := dataLargeFrac("matrix300")
	if worm > 0.1 {
		t.Errorf("worm data large-page fraction = %.2f, want ~0", worm)
	}
	if m300 < 0.7 {
		t.Errorf("matrix300 data large-page fraction = %.2f, want high", m300)
	}
}

// tomcatv's seven arrays must share the large-page-index set for both 8
// and 16 sets while spreading under the small-page index.
func TestTomcatvSetGeometry(t *testing.T) {
	const spacing = 516 * kb
	for _, sets := range []uint{8, 16} {
		setBits := uint(3)
		if sets == 16 {
			setBits = 4
		}
		largeSets := map[uint64]bool{}
		smallSets := map[uint64]bool{}
		for k := 0; k < 7; k++ {
			base := dataBase + addr.VA(k*spacing)
			largeSets[addr.Index(base, addr.Shift32K, setBits)] = true
			smallSets[addr.Index(base, addr.Shift4K, setBits)] = true
		}
		if len(largeSets) != 1 {
			t.Errorf("sets=%d: arrays span %d large-index sets, want 1", sets, len(largeSets))
		}
		if len(smallSets) < 7 && sets == 8 {
			// With 8 sets the seven offsets k*4KB give 7 distinct sets.
			t.Errorf("sets=%d: arrays span only %d small-index sets", sets, len(smallSets))
		}
	}
}

func TestScatterClustersNonOverlapping(t *testing.T) {
	r := newRNG(7)
	cl := scatterClusters(&r, 0, 8*mb, 50, 16*kb, addr.ChunkSize)
	if len(cl) != 50 {
		t.Fatalf("got %d clusters", len(cl))
	}
	seen := map[addr.VA]bool{}
	for _, c := range cl {
		if !addr.Aligned(c, addr.ChunkShift) {
			t.Fatalf("cluster %#x not chunk-aligned", uint64(c))
		}
		if uint64(c) >= 8*mb {
			t.Fatalf("cluster %#x outside span", uint64(c))
		}
		if seen[c] {
			t.Fatalf("duplicate cluster at %#x", uint64(c))
		}
		seen[c] = true
	}
}

func TestCodeWalkerLoopsAndSwitches(t *testing.T) {
	w := newCodeWalker(0x1000, 2, 4, 6, 0x100)
	var got []addr.VA
	for i := 0; i < 14; i++ {
		got = append(got, w.next())
	}
	// Function 0 at 0x1000 body 4 instrs, visit 6: 0,4,8,c,0,4 then
	// switch to function 1 at 0x1100.
	want := []addr.VA{
		0x1000, 0x1004, 0x1008, 0x100c, 0x1000, 0x1004,
		0x1100, 0x1104, 0x1108, 0x110c, 0x1100, 0x1104,
		0x1000, 0x1004,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instr %d = %#x, want %#x (full: %v)", i, uint64(got[i]), uint64(want[i]), got)
		}
	}
}

func TestStreamsStayInBounds(t *testing.T) {
	r := newRNG(3)
	checks := []struct {
		name string
		s    stream
		lo   addr.VA
		hi   addr.VA
	}{
		{"seq", &seqStream{base: 0x1000, size: 0x800, stride: 24}, 0x1000, 0x1800},
		{"colWalk", &colWalk{base: 0x4000, rows: 16, cols: 8, rowBytes: 256, elem: 8},
			0x4000, 0x4000 + 16*256},
		{"uniform", &uniformStream{base: 0x8000, size: 0x1000, align: 8}, 0x8000, 0x9000},
		{"roundRobin", &roundRobin{bases: []addr.VA{0x10000, 0x20000},
			size: 0x400, stride: 16, elem: 8, burst: 2}, 0x10000, 0x20400},
	}
	for _, c := range checks {
		for i := 0; i < 10000; i++ {
			va := c.s.next(&r)
			if va < c.lo || va >= c.hi {
				t.Fatalf("%s: address %#x outside [%#x, %#x)", c.name, uint64(va), uint64(c.lo), uint64(c.hi))
			}
		}
	}
}

func TestClusterStreamHotSkew(t *testing.T) {
	r := newRNG(5)
	clusters := make([]addr.VA, 10)
	for i := range clusters {
		clusters[i] = addr.VA(i * 0x10000)
	}
	s := &clusterStream{clusters: clusters, size: 0x1000, align: 8,
		hotFrac: 0.2, hotProb: 0.9, burstLen: 1}
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		va := s.next(&r)
		if va < 0x20000 { // clusters 0 and 1 are the hot 20%
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.85 {
		t.Errorf("hot fraction = %.2f, want >= 0.85", frac)
	}
}

func TestChaseStreamCyclesDeterministically(t *testing.T) {
	order := []addr.VA{0x1000, 0x5000, 0x3000}
	s := &chaseStream{order: order, burst: 2, span: 8}
	var got []addr.VA
	for i := 0; i < 8; i++ {
		got = append(got, s.next(nil))
	}
	want := []addr.VA{0x1000, 0x1008, 0x5000, 0x5008, 0x3000, 0x3008, 0x1000, 0x1008}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chase[%d] = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(1), newRNG(1)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	c := newRNG(2)
	same := true
	a = newRNG(1)
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func BenchmarkGenerateMatrix300(b *testing.B) {
	r := MustNew("matrix300", uint64(b.N)+1)
	buf := make([]trace.Ref, 8192)
	b.ResetTimer()
	n := 0
	for n < b.N {
		m, err := r.Read(buf)
		n += m
		if err != nil {
			break
		}
	}
}

func TestScatterClustersDensePacking(t *testing.T) {
	// Exactly-fitting configuration: 22 one-slot clusters in 22 slots.
	r := newRNG(3)
	cl := scatterClusters(&r, 0, 22*addr.ChunkSize, 22, 4*kb, addr.ChunkSize)
	seen := map[addr.VA]bool{}
	for _, c := range cl {
		if seen[c] {
			t.Fatalf("duplicate at %#x", uint64(c))
		}
		seen[c] = true
	}
	if len(seen) != 22 {
		t.Fatalf("placed %d clusters", len(seen))
	}
	// Multi-slot clusters in a tight span.
	r2 := newRNG(4)
	cl2 := scatterClusters(&r2, 0, 8*addr.ChunkSize, 4, 2*addr.ChunkSize, addr.ChunkSize)
	for i, a := range cl2 {
		for j, b := range cl2 {
			if i != j && a < b+addr.VA(2*addr.ChunkSize) && b < a+addr.VA(2*addr.ChunkSize) {
				t.Fatalf("clusters %d and %d overlap: %#x %#x", i, j, uint64(a), uint64(b))
			}
		}
	}
}

func TestScatterClustersImpossiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("impossible placement should panic")
		}
	}()
	r := newRNG(5)
	scatterClusters(&r, 0, 4*addr.ChunkSize, 5, addr.ChunkSize, addr.ChunkSize)
}
