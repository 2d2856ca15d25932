package workload

import (
	"errors"
	"io"
	"testing"

	"twopage/internal/trace"
)

// FuzzParse feeds arbitrary spec text to the workload parser: it must
// either return an error or a generator that produces exactly the
// requested number of references without panicking.
func FuzzParse(f *testing.F) {
	f.Add("uniform base=1M size=64K weight=1\n")
	f.Add(goodSpec)
	f.Add("code funcs=2 body=8 visit=16\ndpi 0.5\nseq base=0 size=1K stride=8 weight=1")
	f.Add("clusters base=1M span=1M n=4 size=4K weight=0.5")
	f.Add("robin bases=1M,2M size=4K stride=8 burst=2 weight=1")
	f.Add("chase base=1M span=1M clusters=4 csize=4K nodes=64 weight=1")
	f.Add("colwalk base=16M rows=30 cols=30 rowbytes=240 weight=1")
	f.Add("seq base=1M size=0 stride=8 weight=1")
	f.Add("dpi nope")
	f.Add("#")
	f.Add("seed value=7\nuniform base=0 size=4K weight=0.1")

	f.Fuzz(func(t *testing.T, spec string) {
		defer func() {
			if r := recover(); r != nil {
				// Panics are reserved for impossible cluster placement,
				// which Parse's validation should have rejected first.
				t.Fatalf("Parse panicked: %v (spec %q)", r, spec)
			}
		}()
		r, err := Parse("fuzz", 2_000, spec)
		if err != nil {
			return
		}
		buf := make([]trace.Ref, 256)
		var total int
		for {
			n, rerr := r.Read(buf)
			total += n
			if rerr != nil {
				if !errors.Is(rerr, io.EOF) {
					t.Fatalf("generator error: %v", rerr)
				}
				break
			}
			if total > 2_000 {
				t.Fatalf("generator exceeded requested refs")
			}
		}
		if total != 2_000 {
			t.Fatalf("generated %d refs, want 2000", total)
		}
	})
}
