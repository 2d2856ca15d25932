package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"twopage/internal/addr"
)

// encodeV2 writes refs through a V2Writer and returns the bytes.
func encodeV2(t testing.TB, refs []Ref, blockRefs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewV2WriterBlock(&buf, blockRefs)
	if err := w.Write(refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != uint64(len(refs)) {
		t.Fatalf("Written() = %d, want %d", w.Written(), len(refs))
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	for _, blockRefs := range []int{1, 7, 100, V2BlockRefs} {
		refs := genRefs(5000, 2)
		f, err := NewFileBytes(encodeV2(t, refs, blockRefs))
		if err != nil {
			t.Fatalf("blockRefs %d: %v", blockRefs, err)
		}
		if f.Refs() != uint64(len(refs)) {
			t.Fatalf("blockRefs %d: Refs() = %d, want %d", blockRefs, f.Refs(), len(refs))
		}
		wantBlocks := (len(refs) + blockRefs - 1) / blockRefs
		if f.Blocks() != wantBlocks {
			t.Fatalf("blockRefs %d: Blocks() = %d, want %d", blockRefs, f.Blocks(), wantBlocks)
		}
		got := readAll(t, f.Reader(), 513)
		if len(got) != len(refs) {
			t.Fatalf("blockRefs %d: decoded %d refs, want %d", blockRefs, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("blockRefs %d: ref %d = %v, want %v", blockRefs, i, got[i], refs[i])
			}
		}
	}
}

func TestV2EmptyTrace(t *testing.T) {
	f, err := NewFileBytes(encodeV2(t, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if f.Refs() != 0 || f.Blocks() != 0 {
		t.Fatalf("empty trace: Refs() = %d, Blocks() = %d", f.Refs(), f.Blocks())
	}
	n, err := f.Reader().Read(make([]Ref, 8))
	if n != 0 || err != io.EOF {
		t.Fatalf("Read on empty trace = (%d, %v), want (0, EOF)", n, err)
	}
}

func TestV2WriterRejectsBadKind(t *testing.T) {
	w := NewV2Writer(io.Discard)
	if err := w.Write([]Ref{{Kind: 3}}); err == nil {
		t.Fatal("Write accepted kind 3")
	}
}

// Sections must partition the stream: concatenating every section in
// order reproduces the full trace exactly, for any split count —
// including splits with more sections than blocks.
func TestV2SectionsPartition(t *testing.T) {
	refs := genRefs(10_000, 9)
	f, err := NewFileBytes(encodeV2(t, refs, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 8, f.Blocks(), f.Blocks() + 5} {
		var got []Ref
		var total uint64
		for i := 0; i < n; i++ {
			sec := readAll(t, f.Section(i, n), 1000)
			if uint64(len(sec)) != f.SectionRefs(i, n) {
				t.Fatalf("n=%d section %d: %d refs, SectionRefs says %d",
					n, i, len(sec), f.SectionRefs(i, n))
			}
			total += uint64(len(sec))
			got = append(got, sec...)
		}
		if total != f.Refs() {
			t.Fatalf("n=%d: sections total %d refs, file has %d", n, total, f.Refs())
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("n=%d: ref %d = %v, want %v", n, i, got[i], refs[i])
			}
		}
	}
}

// Degenerate section coordinates — zero or negative counts, indices
// outside [0, n) — return empty readers rather than panicking or
// producing misaligned cursors, so shard counts computed from flag
// values need no pre-validation.
func TestV2SectionDegenerateInputsAreEmpty(t *testing.T) {
	f, err := NewFileBytes(encodeV2(t, genRefs(10, 1), 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-1, 4}, {4, 4}, {0, 0}, {0, -1}, {-7, -3}, {1000, 2}} {
		i, n := c[0], c[1]
		got, gerr := f.Section(i, n).Read(make([]Ref, 16))
		if got != 0 || gerr != io.EOF {
			t.Errorf("Section(%d, %d).Read = (%d, %v), want (0, EOF)", i, n, got, gerr)
		}
		if refs := f.SectionRefs(i, n); refs != 0 {
			t.Errorf("SectionRefs(%d, %d) = %d, want 0", i, n, refs)
		}
		if r := f.Preroll(i, n, 100); r.Refs() != 0 {
			t.Errorf("Preroll(%d, %d, 100) covers %d refs, want 0", i, n, r.Refs())
		}
	}
}

// SectionStart must equal the sum of all earlier sections' refs — the
// global timestamp of the section's first reference — for any split.
func TestV2SectionStart(t *testing.T) {
	refs := genRefs(10_000, 9)
	f, err := NewFileBytes(encodeV2(t, refs, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 8, f.Blocks(), f.Blocks() + 5} {
		var cum uint64
		for i := 0; i < n; i++ {
			if start := f.SectionStart(i, n); start != cum {
				t.Fatalf("n=%d: SectionStart(%d) = %d, want %d", n, i, start, cum)
			}
			cum += f.SectionRefs(i, n)
		}
	}
}

// Preroll(i, n, w) must end exactly where section i begins and cover at
// least w references whenever the file holds that many before the
// section; replaying preroll then section therefore replays a suffix of
// the serial stream ending at the section's end.
func TestV2Preroll(t *testing.T) {
	refs := genRefs(10_000, 9)
	f, err := NewFileBytes(encodeV2(t, refs, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 8} {
		for i := 0; i < n; i++ {
			for _, w := range []uint64{0, 1, 100, 5_000, 1 << 40} {
				pr := f.Preroll(i, n, w)
				start := f.SectionStart(i, n)
				covered := pr.Refs()
				if i == 0 || w == 0 {
					if covered != 0 {
						t.Fatalf("n=%d i=%d w=%d: preroll covers %d refs, want 0", n, i, w, covered)
					}
					continue
				}
				if covered < w && covered != start {
					t.Fatalf("n=%d i=%d w=%d: preroll covers %d refs (< w) without reaching file start (%d preceding)",
						n, i, w, covered, start)
				}
				got := readAll(t, pr, 777)
				if uint64(len(got)) != covered {
					t.Fatalf("n=%d i=%d w=%d: preroll yielded %d refs, Refs() says %d", n, i, w, len(got), covered)
				}
				for j, r := range got {
					want := refs[start-covered+uint64(j)]
					if r != want {
						t.Fatalf("n=%d i=%d w=%d: preroll ref %d = %v, want %v", n, i, w, j, r, want)
					}
				}
			}
		}
	}
}

func TestV2Reset(t *testing.T) {
	refs := genRefs(3000, 4)
	f, err := NewFileBytes(encodeV2(t, refs, 512))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Section(1, 2)
	first := readAll(t, r, 700)
	r.Reset()
	second := readAll(t, r, 131)
	if len(first) != len(second) {
		t.Fatalf("after Reset: %d refs, first pass %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("after Reset: ref %d = %v, want %v", i, second[i], first[i])
		}
	}
	if r.Refs() != uint64(len(first)) {
		t.Fatalf("Refs() = %d, want %d", r.Refs(), len(first))
	}
}

// Corrupt and truncated inputs must fail with an error, never a panic
// or a silent wrong decode past the corruption.
func TestV2Corrupt(t *testing.T) {
	good := encodeV2(t, genRefs(1000, 7), 128)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("TP92\x00")},
		{"magic only", []byte(v2Magic)},
		{"bad version", append([]byte(v2Magic), 0xFF, 0x01)},
		{"zero refs block", append(append([]byte(v2Magic), 1), 0, 0, 0, 0, 0)},
		{"huge refs block", append(append([]byte(v2Magic), 1), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)},
		{"truncated header", good[:len(v2Magic)+3]},
		{"truncated payload", good[:len(good)/2]},
		{"lane overrun", append(append([]byte(v2Magic), 1), 4, 0xFF, 0xFF, 0, 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := NewFileBytes(c.data)
			if err != nil {
				return // rejected at parse: fine
			}
			batch := make([]Ref, 64)
			for i := 0; i < 1000; i++ {
				if _, err := f.Reader().Read(batch); err != nil {
					return // rejected at decode: fine
				}
			}
		})
	}
}

// Corrupting lane bytes (not just headers) must surface as a decode
// error or wrong-but-bounded refs, never a panic.
func TestV2CorruptLaneBytes(t *testing.T) {
	good := encodeV2(t, genRefs(500, 11), 64)
	for i := len(v2Magic) + 1; i < len(good); i += 7 {
		data := append([]byte(nil), good...)
		data[i] ^= 0xA5
		f, err := NewFileBytes(data)
		if err != nil {
			continue
		}
		r := f.Reader()
		batch := make([]Ref, 256)
		for {
			if _, err := r.Read(batch); err != nil {
				break
			}
		}
	}
}

func TestOpenFileAndClose(t *testing.T) {
	refs := genRefs(4000, 3)
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, encodeV2(t, refs, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, f.Reader(), 999)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %v, want %v", i, got[i], refs[i])
		}
	}
	if f.Size() == 0 || f.BytesPerRef() <= 0 {
		t.Fatalf("Size() = %d, BytesPerRef() = %f", f.Size(), f.BytesPerRef())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

// A file with the v1 magic but a corrupt body fails to open: it is
// neither mapped as v2 nor read as text.
func TestOpenFileNotV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, []byte("TP92 nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(context.Background(), path); err == nil {
		t.Fatal("OpenFile accepted a corrupt v1 file")
	}
}

// The format of a trace file does not change what it replays: the same
// references written as v2, v1 and text open to Files with the same
// bytes, so every consumer sees the same references, sections and
// decode counters.
func TestOpenFileFormats(t *testing.T) {
	refs := genRefs(3*V2BlockRefs+100, 5)
	type encoder interface {
		Write([]Ref) error
		Flush() error
	}
	encoders := map[string]func(io.Writer) encoder{
		"v2":   func(w io.Writer) encoder { return NewV2Writer(w) },
		"v1":   func(w io.Writer) encoder { return NewWriter(w) },
		"text": func(w io.Writer) encoder { return NewTextWriter(w) },
	}
	dir := t.TempDir()
	paths := map[string]string{}
	for format, enc := range encoders {
		var buf bytes.Buffer
		w := enc(&buf)
		if err := w.Write(refs); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		paths[format] = filepath.Join(dir, format+".trc")
		if err := os.WriteFile(paths[format], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := OpenFile(context.Background(), paths["v2"])
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	for _, format := range []string{"v2", "v1", "text"} {
		f, err := OpenFile(context.Background(), paths[format])
		if err != nil {
			t.Fatalf("OpenFile(%s): %v", format, err)
		}
		if !bytes.Equal(f.data, want.data) || f.Size() != want.Size() || f.Blocks() != want.Blocks() {
			t.Errorf("OpenFile(%s): %d bytes in %d blocks, want the v2 file's %d in %d",
				format, f.Size(), f.Blocks(), want.Size(), want.Blocks())
		}
		got := readAll(t, f.Reader(), 100)
		if len(got) != len(refs) {
			t.Fatalf("OpenFile(%s): %d refs, want %d", format, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("OpenFile(%s): ref %d = %v, want %v", format, i, got[i], refs[i])
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OpenFile(ctx, paths["text"]); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenFile(text) under a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := OpenFile(context.Background(), filepath.Join(dir, "missing.trc")); err == nil {
		t.Fatal("OpenFile opened a missing file")
	}
}

// The tentpole's zero-allocation guarantee: steady-state MapReader.Read
// must not allocate at all.
func TestMapReaderReadAllocs(t *testing.T) {
	f, err := NewFileBytes(encodeV2(t, genRefs(200_000, 6), V2BlockRefs))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Reader()
	batch := make([]Ref, 8192)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Read(batch); err != nil {
			r.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("MapReader.Read allocates %v times per batch, want 0", allocs)
	}
}

// benchRefs builds a deterministic mixed instruction/data stream whose
// shape — sequential code with occasional branches, bursty sequential
// scans, strided column walks and scattered lookups — matches the
// synthetic workloads without importing them (workload imports trace).
func benchRefs(n int) []Ref {
	refs := make([]Ref, 0, n)
	var pc, a, b int64 = 0x0100_0000, 0x1000_0000, 0x2000_0000
	rng := uint64(99)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng
	}
	for len(refs) < n {
		for j := 2 + int(next()>>62); j > 0; j-- {
			refs = append(refs, Ref{Addr: addr.VA(pc), Kind: Instr})
			pc += 4
		}
		if next()&0x1F == 0 {
			pc += int64(next()>>52) &^ 3 // branch
		}
		switch next() >> 62 {
		case 0, 1: // sequential scan burst (cluster streams)
			for j := 0; j < 6; j++ {
				refs = append(refs, Ref{Addr: addr.VA(a), Kind: Load})
				a += 8
			}
		case 2: // strided column walk
			for j := 0; j < 3; j++ {
				refs = append(refs, Ref{Addr: addr.VA(b), Kind: Store})
				b += 4096
			}
		default: // scattered lookup
			refs = append(refs, Ref{Addr: addr.VA(0x3000_0000 + int64(next()>>40)), Kind: Load})
		}
	}
	return refs[:n]
}

// BenchmarkMapReader measures single-cursor v2 decode throughput;
// ns/op is per reference. Compare against BenchmarkBinaryReader (the
// v1 streaming decoder over the same references; ~3x slower per ref,
// with the gap bounded by the 16-byte-per-Ref output store traffic
// both decoders share) and BenchmarkFileParallel for the
// section-per-worker scaling that motivates the format. Must run at 0
// allocs/op.
func BenchmarkMapReader(b *testing.B) {
	refs := benchRefs(1 << 20)
	data := encodeV2(b, refs, V2BlockRefs)
	f, err := NewFileBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Ref, 8192)
	r := f.Reader()
	b.ResetTimer()
	for n := 0; n < b.N; { // ns/op is per reference
		m, err := r.Read(batch)
		n += m
		if err != nil {
			r.Reset()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(len(data))/float64(len(refs)), "bytes/ref")
}

// BenchmarkBinaryReader is the v1 streaming decoder baseline over the
// same references.
func BenchmarkBinaryReader(b *testing.B) {
	refs := benchRefs(1 << 20)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(refs); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	batch := make([]Ref, 8192)
	rd := bytes.NewReader(data)
	r := NewBinaryReader(rd)
	b.ResetTimer()
	for n := 0; n < b.N; { // ns/op is per reference
		m, err := r.Read(batch)
		n += m
		if err != nil {
			rd.Reset(data)
			r = NewBinaryReader(rd)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(len(data))/float64(len(refs)), "bytes/ref")
}

// BenchmarkFileParallel decodes disjoint sections of one shared File
// from GOMAXPROCS goroutines — the parallel-engine access pattern the
// block index exists for. ns/op is per reference summed over workers.
func BenchmarkFileParallel(b *testing.B) {
	refs := benchRefs(1 << 20)
	data := encodeV2(b, refs, V2BlockRefs)
	f, err := NewFileBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		// Each worker cycles over the whole file via its own cursor;
		// cursors share the mapping but no mutable state.
		r := f.Reader()
		batch := make([]Ref, 8192)
		for pb.Next() {
			for n := 0; n < 8192; {
				m, err := r.Read(batch)
				n += m
				if err != nil {
					r.Reset()
				}
			}
		}
	})
	b.ReportMetric(float64(b.N)*8192/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkV2Writer measures encode throughput (ns/op per 1000 refs).
func BenchmarkV2Writer(b *testing.B) {
	refs := benchRefs(1 << 20)
	b.ResetTimer()
	w := NewV2Writer(io.Discard)
	for n := 0; n < b.N; n += 1000 {
		lo := n % (len(refs) - 1000)
		if err := w.Write(refs[lo : lo+1000]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}
