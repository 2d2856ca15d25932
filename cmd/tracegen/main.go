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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"twopage/internal/trace"
	"twopage/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single os.Exit. Every bad flag
// value or combination is a usage error (exit 2) reported before any
// file exists.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl     = fs.String("workload", "", "synthetic workload name")
		specF  = fs.String("spec", "", "custom workload spec file (see workload.Parse)")
		refs   = fs.Uint64("refs", 0, "trace length (0 = workload default)")
		out    = fs.String("o", "", "output file (default <workload>.trc)")
		format = fs.String("format", "binary", "v2, binary, or text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", args...)
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", args...)
		return 1
	}
	newWriter, ok := writers[*format]
	switch {
	case !ok:
		return usage("-format must be v2, binary, or text, got %q", *format)
	case *wl == "" && *specF == "":
		return usage("need -workload or -spec (workloads: %v)", workload.Names())
	case *wl != "" && *specF != "":
		return usage("-workload does not combine with -spec")
	}

	var src trace.Reader
	var n uint64
	name := ""
	if *specF != "" {
		text, err := os.ReadFile(*specF)
		if err != nil {
			return fail("%v", err)
		}
		n = *refs
		if n == 0 {
			n = 4_000_000
		}
		src, err = workload.Parse(*specF, n, string(text))
		if err != nil {
			return fail("%v", err)
		}
		name = "custom"
	} else {
		spec, err := workload.Get(*wl)
		if err != nil {
			return usage("-workload: %v", err)
		}
		n = *refs
		if n == 0 {
			n = spec.DefaultRefs
		}
		src = spec.New(n)
		name = spec.Name
	}
	path := *out
	if path == "" {
		path = name + ".trc"
	}
	written, size, err := write(path, src, newWriter)
	if err != nil {
		return fail("writing %s: %v", path, err)
	}
	fmt.Fprintf(stdout, "wrote %d references to %s (%d bytes, %.2f bytes/ref)\n",
		written, path, size, float64(size)/float64(written))
	return 0
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
