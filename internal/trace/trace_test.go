package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"twopage/internal/addr"
)

func genRefs(n int, seed int64) []Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]Ref, n)
	pc := addr.VA(0x10000)
	data := addr.VA(0x400000)
	for i := range refs {
		switch rng.Intn(4) {
		case 0:
			data += addr.VA(rng.Intn(8192)) - 4096
			refs[i] = Ref{Addr: data, Kind: Load}
		case 1:
			refs[i] = Ref{Addr: data + addr.VA(rng.Intn(64)), Kind: Store}
		default:
			pc += 4
			if rng.Intn(16) == 0 {
				pc = addr.VA(0x10000 + rng.Intn(1<<16)&^3)
			}
			refs[i] = Ref{Addr: pc, Kind: Instr}
		}
	}
	return refs
}

func readAll(t *testing.T, r Reader, batch int) []Ref {
	t.Helper()
	var out []Ref
	buf := make([]Ref, batch)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

func TestKindString(t *testing.T) {
	if Instr.String() != "I" || Load.String() != "L" || Store.String() != "S" {
		t.Errorf("kind strings wrong: %v %v %v", Instr, Load, Store)
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestSliceReader(t *testing.T) {
	refs := genRefs(1000, 1)
	sr := NewSliceReader(refs)
	got := readAll(t, sr, 77)
	if !reflect.DeepEqual(got, refs) {
		t.Fatal("slice reader did not round-trip")
	}
	// After EOF, further reads keep returning EOF.
	if n, err := sr.Read(make([]Ref, 4)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("post-EOF read = %d, %v", n, err)
	}
	sr.Reset()
	if got := readAll(t, sr, 1000); len(got) != 1000 {
		t.Fatalf("after reset read %d refs", len(got))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	refs := genRefs(5000, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Write in uneven batches.
	for i := 0; i < len(refs); {
		end := i + 1 + i%97
		if end > len(refs) {
			end = len(refs)
		}
		if err := w.Write(refs[i:end]); err != nil {
			t.Fatal(err)
		}
		i = end
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != uint64(len(refs)) {
		t.Fatalf("Written = %d, want %d", w.Written(), len(refs))
	}
	got := readAll(t, NewBinaryReader(&buf), 313)
	if !reflect.DeepEqual(got, refs) {
		t.Fatal("binary codec did not round-trip")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, NewBinaryReader(&buf), 16)
	if len(got) != 0 {
		t.Fatalf("empty trace yielded %d refs", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("XXXX\x00"))
	if _, err := r.Read(make([]Ref, 1)); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestBinaryTruncated(t *testing.T) {
	refs := genRefs(100, 3)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	trunc := b[:len(b)-1]
	r := NewBinaryReader(bytes.NewReader(trunc))
	var err error
	buf2 := make([]Ref, 32)
	for err == nil {
		_, err = r.Read(buf2)
	}
	if errors.Is(err, io.EOF) {
		// Acceptable only if truncation fell exactly on a record boundary;
		// chopping one byte off a varint must not produce clean EOF unless
		// the final record was a single kind byte... it cannot be, so:
		t.Fatal("truncated trace read cleanly")
	}
}

func TestTextRoundTrip(t *testing.T) {
	refs := genRefs(2000, 4)
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	if err := w.Write(refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, NewTextReader(&buf), 129)
	if !reflect.DeepEqual(got, refs) {
		t.Fatal("text codec did not round-trip")
	}
}

func TestTextComments(t *testing.T) {
	in := "# header\n\nI 0x1000\nR 0x2000\nW 0x3000\nl 0x4000\n"
	got := readAll(t, NewTextReader(strings.NewReader(in)), 8)
	want := []Ref{
		{0x1000, Instr}, {0x2000, Load}, {0x3000, Store}, {0x4000, Load},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTextErrors(t *testing.T) {
	for _, in := range []string{"X 0x10\n", "I\n", "I zzz\n", "I 0x10 extra\n"} {
		r := NewTextReader(strings.NewReader(in))
		if _, err := r.Read(make([]Ref, 4)); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("input %q: expected parse error, got %v", in, err)
		}
	}
}

func TestLimit(t *testing.T) {
	refs := genRefs(500, 5)
	lim := NewLimit(NewSliceReader(refs), 123)
	got := readAll(t, lim, 50)
	if len(got) != 123 {
		t.Fatalf("limited read = %d refs, want 123", len(got))
	}
	if !reflect.DeepEqual(got, refs[:123]) {
		t.Fatal("limit changed content")
	}
	// Limit larger than the stream passes everything through.
	lim = NewLimit(NewSliceReader(refs), 10000)
	if got := readAll(t, lim, 64); len(got) != 500 {
		t.Fatalf("over-limit read = %d refs, want 500", len(got))
	}
	// Zero limit: immediate EOF.
	lim = NewLimit(NewSliceReader(refs), 0)
	if n, err := lim.Read(make([]Ref, 4)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("zero limit read = %d, %v", n, err)
	}
}

func TestConcat(t *testing.T) {
	a := genRefs(100, 7)
	b := genRefs(50, 8)
	c := genRefs(0, 9)
	cat := NewConcat(NewSliceReader(a), NewSliceReader(c), NewSliceReader(b))
	got := readAll(t, cat, 33)
	want := append(append([]Ref{}, a...), b...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concat did not chain streams")
	}
}

func TestDrainAndCount(t *testing.T) {
	refs := genRefs(1000, 10)
	var wantCount Count
	for _, r := range refs {
		switch r.Kind {
		case Instr:
			wantCount.Instr++
		case Load:
			wantCount.Load++
		default:
			wantCount.Store++
		}
	}
	got, err := CountRefs(context.Background(), NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCount {
		t.Fatalf("CountRefs = %+v, want %+v", got, wantCount)
	}
	if got.Total() != 1000 {
		t.Fatalf("Total = %d", got.Total())
	}
	if got.Data() != wantCount.Load+wantCount.Store {
		t.Fatalf("Data = %d", got.Data())
	}
	rpi := got.RPI()
	if rpi <= 1.0 || rpi > 3.0 {
		t.Fatalf("RPI = %v out of plausible range", rpi)
	}
	var zero Count
	if zero.RPI() != 0 {
		t.Fatal("zero count RPI should be 0")
	}
}

// Property: binary round trip preserves arbitrary addresses, including
// extremes, for any kind sequence.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, kinds []uint8) bool {
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		refs := make([]Ref, n)
		for i := 0; i < n; i++ {
			refs[i] = Ref{Addr: addr.VA(addrs[i]), Kind: Kind(kinds[i] % 3)}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(refs); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewBinaryReader(&buf)
		out := make([]Ref, 0, n)
		tmp := make([]Ref, 17)
		for {
			m, err := r.Read(tmp)
			out = append(out, tmp[:m]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return false
			}
		}
		return reflect.DeepEqual(out, refs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// failWriter fails after n successful writes, exercising error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestWriterErrorPaths(t *testing.T) {
	// Invalid kind rejected.
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write([]Ref{{Addr: 1, Kind: Kind(7)}}); err == nil {
		t.Fatal("invalid kind should error")
	}
	// Downstream failure surfaces via Flush (bufio buffers first).
	fw := &failWriter{n: 0}
	w2 := NewWriter(fw)
	big := genRefs(100000, 1) // larger than the bufio buffer
	err := w2.Write(big)
	if err == nil {
		err = w2.Flush()
	}
	if err == nil {
		t.Fatal("write to failing sink should error")
	}
	// Flush of never-written writer emits a valid empty header.
	fw3 := &failWriter{n: 0}
	if err := NewWriter(fw3).Flush(); err == nil {
		t.Fatal("header flush to failing sink should error")
	}
}

func TestTextWriterErrorPath(t *testing.T) {
	fw := &failWriter{n: 0}
	w := NewTextWriter(fw)
	err := w.Write(genRefs(100000, 2))
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		t.Fatal("text write to failing sink should error")
	}
}

func TestBinaryReaderHeaderErrors(t *testing.T) {
	// Empty input: missing header.
	r := NewBinaryReader(strings.NewReader(""))
	if _, err := r.Read(make([]Ref, 1)); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("empty input should be a header error, got %v", err)
	}
	// Magic only, count truncated.
	r2 := NewBinaryReader(strings.NewReader("TP92"))
	if _, err := r2.Read(make([]Ref, 1)); err == nil {
		t.Fatal("truncated header count should error")
	}
	// Invalid kind byte mid-stream.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write([]Ref{{Addr: 0x100, Kind: Instr}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xFF) // corrupt kind
	r3 := NewBinaryReader(&buf)
	refs := make([]Ref, 8)
	_, err := r3.Read(refs)
	for err == nil {
		_, err = r3.Read(refs)
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("corrupt kind byte should not read as clean EOF")
	}
	// Errors are sticky.
	if _, err2 := r3.Read(refs); err2 == nil {
		t.Fatal("reader error should be sticky")
	}
}
