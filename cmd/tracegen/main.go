// Command tracegen writes a synthetic workload's reference stream to a
// trace file, so external tools (or the -trace flags of paper, tlbsim,
// and wsssim) can replay identical traces. Format v2 is the
// block-structured columnar encoding that trace.MapReader decodes
// zero-copy from an mmap; "binary" is the v1 streaming format and
// "text" a one-line-per-ref form for interop.
//
// Example:
//
//	tracegen -workload matrix300 -refs 1000000 -o m300.trc
//	tracegen -workload li -format v2 -o li.trc
//	tracegen -workload li -format text -o li.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"twopage/internal/trace"
	"twopage/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "", "synthetic workload name")
		specF  = flag.String("spec", "", "custom workload spec file (see workload.Parse)")
		refs   = flag.Uint64("refs", 0, "trace length (0 = workload default)")
		out    = flag.String("o", "", "output file (default <workload>.trc)")
		format = flag.String("format", "binary", "v2, binary, or text")
	)
	flag.Parse()
	newWriter, ok := writers[*format]
	if !ok {
		// A usage error, like a bad flag: exit 2 before any file exists.
		fmt.Fprintf(os.Stderr, "tracegen: -format must be v2, binary, or text, got %q\n", *format)
		os.Exit(2)
	}

	var src trace.Reader
	var n uint64
	name := ""
	switch {
	case *specF != "":
		text, err := os.ReadFile(*specF)
		if err != nil {
			fatal("%v", err)
		}
		n = *refs
		if n == 0 {
			n = 4_000_000
		}
		src, err = workload.Parse(*specF, n, string(text))
		if err != nil {
			fatal("%v", err)
		}
		name = "custom"
	case *wl != "":
		spec, err := workload.Get(*wl)
		if err != nil {
			fatal("%v", err)
		}
		n = *refs
		if n == 0 {
			n = spec.DefaultRefs
		}
		src = spec.New(n)
		name = spec.Name
	default:
		fatal("need -workload or -spec (workloads: %v)", workload.Names())
	}
	path := *out
	if path == "" {
		path = name + ".trc"
	}
	written, size, err := write(path, src, newWriter)
	if err != nil {
		fatal("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %d references to %s (%d bytes, %.2f bytes/ref)\n",
		written, path, size, float64(size)/float64(written))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}

// traceWriter is what the three trace encoders share.
type traceWriter interface {
	Write(batch []trace.Ref) error
	Flush() error
}

// writers maps each -format value to its encoder.
var writers = map[string]func(io.Writer) traceWriter{
	"v2":     func(w io.Writer) traceWriter { return trace.NewV2Writer(w) },
	"binary": func(w io.Writer) traceWriter { return trace.NewWriter(w) },
	"text":   func(w io.Writer) traceWriter { return trace.NewTextWriter(w) },
}

// write encodes src into a new file at path, returning how many
// references it wrote and the file's size. On any error, Close's
// included, it removes the partial file; a path that is not a regular
// file (a device, a pipe, a symlink) is left alone.
func write(path string, src trace.Reader, newWriter func(io.Writer) traceWriter) (written uint64, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			if st, serr := os.Lstat(path); serr == nil && st.Mode().IsRegular() {
				_ = os.Remove(path) // best effort; the write error is what gets reported
			}
		}
	}()
	w := newWriter(f)
	var werr error
	if written, err = trace.Drain(src, func(batch []trace.Ref) {
		if werr == nil {
			werr = w.Write(batch)
		}
	}); err != nil {
		return 0, 0, err
	}
	if werr != nil {
		return 0, 0, werr
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	return written, st.Size(), nil
}
