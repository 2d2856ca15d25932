package workload

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/trace"
)

const goodSpec = `
# a matrix-multiply-like program
code funcs=2 body=512 visit=16K spacing=4K base=0x1000000
dpi 0.4
colwalk base=16M rows=300 cols=300 rowbytes=2400 elem=8 weight=0.45 store=0
seq     base=32M size=720000 stride=8 weight=0.40
uniform base=48M size=16K align=8 weight=0.15 store=0.5
`

func TestParseGoodSpec(t *testing.T) {
	r, err := Parse("custom-m300", 50_000, goodSpec)
	if err != nil {
		t.Fatal(err)
	}
	refs := collect(t, r, 50_000)
	c, err := trace.CountRefs(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	if rpi := c.RPI(); rpi < 1.3 || rpi > 1.5 {
		t.Fatalf("RPI = %v", rpi)
	}
	// Addresses land in the declared regions.
	sawCol, sawSeq, sawCode := false, false, false
	for _, ref := range refs {
		switch {
		case ref.Addr >= 0x1000000 && ref.Addr < 0x1002000:
			sawCode = true
		case ref.Addr >= 16<<20 && ref.Addr < 17<<20:
			sawCol = true
		case ref.Addr >= 32<<20 && ref.Addr < 33<<20:
			sawSeq = true
		}
	}
	if !sawCol || !sawSeq || !sawCode {
		t.Fatalf("regions missing: col=%v seq=%v code=%v", sawCol, sawSeq, sawCode)
	}
}

func TestParseDeterministic(t *testing.T) {
	a := collect(t, MustParse("x", 10_000, goodSpec), 10_000)
	b := collect(t, MustParse("x", 10_000, goodSpec), 10_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
	// A different name seeds differently (stream choices diverge).
	c := collect(t, MustParse("y", 10_000, goodSpec), 10_000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different names should produce different streams")
	}
}

func TestParseDefaults(t *testing.T) {
	// Minimal spec: one stream; code and dpi default.
	r, err := Parse("min", 5_000, "uniform base=1M size=64K weight=1\n")
	if err != nil {
		t.Fatal(err)
	}
	refs := collect(t, r, 5_000)
	c, _ := trace.CountRefs(context.Background(), trace.NewSliceReader(refs))
	if c.Instr == 0 || c.Data() == 0 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestParseAllStreamKinds(t *testing.T) {
	spec := `
seed value=42
clusters base=512M span=16M n=16 size=12K align=8 hot=0.3 hotprob=0.8 burst=6 weight=0.3
robin bases=16M,17M,18M size=256K stride=520 elem=8 burst=3 weight=0.3
chase base=768M span=8M clusters=16 csize=24K nodes=256 span2=16 burst=2 weight=0.4
`
	r, err := Parse("kinds", 20_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	refs := collect(t, r, 20_000)
	// Cluster bases are chunk-scattered with jitter; chase nodes in the
	// 768M region; robin in 16-19M.
	sawCluster, sawRobin, sawChase := false, false, false
	for _, ref := range refs {
		switch {
		case ref.Addr >= 512<<20 && ref.Addr < 528<<20:
			sawCluster = true
		case ref.Addr >= 16<<20 && ref.Addr < 19<<20:
			sawRobin = true
		case ref.Addr >= 768<<20 && ref.Addr < 776<<20:
			sawChase = true
		}
	}
	if !sawCluster || !sawRobin || !sawChase {
		t.Fatalf("streams missing: clusters=%v robin=%v chase=%v", sawCluster, sawRobin, sawChase)
	}
}

func TestParseSizeSuffixes(t *testing.T) {
	cases := map[string]uint64{
		"128":    128,
		"4K":     4096,
		"16M":    16 << 20,
		"1G":     1 << 30,
		"0x1000": 4096,
		"2k":     2048,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "4KB", "-3", "17592186044417M", "0x400000000G"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"bogus a=1\nuniform base=1M size=4K weight=1", "unknown directive"},
		{"dpi\nuniform base=1M size=4K weight=1", "dpi wants one value"},
		{"dpi 9\nuniform base=1M size=4K weight=1", "bad dpi"},
		{"uniform base=1M size=4K", "positive weight"},
		{"uniform size=4K weight=1", `missing required field "base"`},
		{"seq base=1M size=64 stride=128 weight=1", "stride < size"},
		{"colwalk base=1M rows=0 cols=2 rowbytes=64 weight=1", "must be positive"},
		{"uniform base=1M size=4 align=8 weight=1", "size >= align"},
		{"clusters base=1M span=8K n=4 size=4K weight=1", "span >= n*size"},
		{"robin size=4K weight=1", "missing bases"},
		{"chase base=1M span=8K clusters=4 csize=4K weight=1", "span >= clusters*csize"},
		{"uniform base=1M size=4K weight=1 junk", "malformed field"},
		{"uniform base=1M size=17592186044417M weight=1", "overflows 64 bits"},
		{"", "no data streams"},
	}
	for _, c := range cases {
		_, err := Parse("t", 1000, c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: err = %v, want contains %q", c.spec, err, c.want)
		}
	}
	if _, err := Parse("t", 0, "uniform base=1M size=4K weight=1"); err == nil {
		t.Error("zero refs should fail")
	}
}

// A one-line spec must fail in Parse, never exhaust memory or panic in
// the generator. Each size case sits just above maxSpecSlots (1<<20):
// it crosses the bound without the gigabytes its shape can ask for.
func TestParseRejectsUnsafeSpecs(t *testing.T) {
	const overSlots = 1<<20 + 1
	bucketSpan := overSlots * addr.ChunkSize
	cases := []struct {
		spec string
		want string
	}{
		{fmt.Sprintf("chase base=512M span=16M clusters=4 csize=24K nodes=%d weight=1", overSlots), "nodes"},
		{fmt.Sprintf("clusters base=0 span=%d n=2 size=8 weight=1", bucketSpan), "buckets"},
		{fmt.Sprintf("chase base=0 span=%d clusters=2 csize=64 weight=1", bucketSpan), "buckets"},
		{"clusters base=0 span=80K n=2 size=40K weight=1", "do not fit"},
		{"clusters base=1M span=1M n=4 size=4 weight=1", "size >= align"},
		{"clusters base=1M span=1M n=4 size=4K align=0 weight=1", "size >= align"},
		{"clusters base=1M span=1M n=4 size=4K hot=2 weight=1", "hot"},
		{"clusters base=1M span=1M n=4 size=4K hot=NaN weight=1", "hot"},
		{"chase base=1M span=1M clusters=4 csize=32 weight=1", "csize >= 64"},
	}
	parse := func(spec string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		_, err = Parse("t", 1000, spec)
		return err
	}
	for _, c := range cases {
		if err := parse(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: err = %v, want contains %q", c.spec, err, c.want)
		}
	}

	// The code walker keeps no per-function state: a million functions
	// cost what four do.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Parse("t", 1000, "code funcs=1M\nuniform base=1M size=4K weight=1"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("Parse of code funcs=1M allocated %d bytes, want < 1MB", d)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("t", 1000, "nope")
}

// A parsed spec mimicking matrix300 must show the same qualitative TLB
// behaviour class as the built-in model: dense chunks, promotable.
func TestParsedSpecBehavesLikeBuiltin(t *testing.T) {
	r := MustParse("m300ish", 200_000, goodSpec)
	blocks := map[addr.PN]bool{}
	buf := make([]trace.Ref, 4096)
	for {
		n, err := r.Read(buf)
		for _, ref := range buf[:n] {
			if ref.Kind != trace.Instr {
				blocks[addr.Block(ref.Addr)] = true
			}
		}
		if err != nil {
			break
		}
	}
	perChunk := map[addr.PN]int{}
	for b := range blocks {
		perChunk[addr.ChunkOfBlock(b)]++
	}
	dense := 0
	for _, k := range perChunk {
		if k >= 4 {
			dense++
		}
	}
	if frac := float64(dense) / float64(len(perChunk)); frac < 0.7 {
		t.Fatalf("dense-chunk fraction = %v, want high for a matrix spec", frac)
	}
}
