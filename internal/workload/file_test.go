package workload

import (
	"bytes"
	"io"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/trace"
)

func drain(t *testing.T, r trace.Reader) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	batch := make([]trace.Ref, 256)
	for {
		n, err := r.Read(batch)
		out = append(out, batch[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotRegistry undoes test registrations so the shared registry
// stays the twelve modelled programs for other tests.
func snapshotRegistry(t *testing.T) {
	t.Helper()
	old := specs[:len(specs):len(specs)]
	t.Cleanup(func() { specs = old })
}

// testFile encodes refs as an in-memory v2 trace of 128-reference
// blocks.
func testFile(t *testing.T, refs []trace.Ref) *trace.File {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewV2WriterBlock(&buf, 128)
	if err := w.Write(refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.NewFileBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterFile(t *testing.T) {
	snapshotRegistry(t)
	refs := make([]trace.Ref, 1000)
	for i := range refs {
		refs[i] = trace.Ref{Addr: addr.VA(0x1000 + i*64), Kind: trace.Kind(i % 3)}
	}
	f := testFile(t, refs)

	const name = "trace:file_test"
	if err := RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	if err := RegisterFile(name, f); err == nil {
		t.Fatal("duplicate RegisterFile succeeded, want error")
	}

	spec, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if spec.DefaultRefs != 1000 {
		t.Fatalf("DefaultRefs = %d, want 1000", spec.DefaultRefs)
	}
	got := drain(t, MustNew(name, 0))
	if len(got) != len(refs) {
		t.Fatalf("full read: %d refs, want %d", len(got), len(refs))
	}
	for i := range got {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %v, want %v", i, got[i], refs[i])
		}
	}
	// A scaled-down run sees a truncated prefix, like the modelled
	// programs at scale < 1.
	if got := drain(t, MustNew(name, 250)); len(got) != 250 {
		t.Fatalf("limited read: %d refs, want 250", len(got))
	}
	// Independent cursors over the shared mapping don't interfere.
	r1, r2 := MustNew(name, 0), MustNew(name, 0)
	b1, b2 := make([]trace.Ref, 64), make([]trace.Ref, 64)
	if _, err := r1.Read(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Read(b2); err != nil {
		t.Fatal(err)
	}
	if b1[0] != b2[0] || b1[0] != refs[0] {
		t.Fatalf("cursors disagree: %v vs %v", b1[0], b2[0])
	}
}

func TestUnregister(t *testing.T) {
	snapshotRegistry(t)
	if err := RegisterFile("trace:tmp", testFile(t, nil)); err != nil {
		t.Fatal(err)
	}
	if !Unregister("trace:tmp") {
		t.Fatal("Unregister missed a registered source")
	}
	if _, err := Get("trace:tmp"); err == nil {
		t.Fatal("source still resolvable after Unregister")
	}
	if Unregister("li") {
		t.Fatal("Unregister removed a built-in program")
	}
	if Unregister("trace:tmp") {
		t.Fatal("Unregister reported success twice")
	}
}

func TestRegisterFileValidation(t *testing.T) {
	snapshotRegistry(t)
	f := testFile(t, nil)
	if err := RegisterFile("", f); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterFile("li", f); err == nil {
		t.Fatal("collision with built-in workload accepted")
	}
}
