package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"time"

	"twopage/internal/trace"
	"twopage/internal/workload"
)

//go:embed specs/*.spec
var specFS embed.FS

const (
	// defaultSeed is the seed the pinned digests were taken at.
	defaultSeed = 1
	// defaultRefs is the length of every pass workload's input.
	defaultRefs = 4_000_000
	// testRefs is the shorter length the tests run the pass workloads at.
	testRefs = 100_000
)

// loadSpec returns the named workload spec with the seed directive
// prepended. The seed must come first: cluster placement is drawn while
// the spec is parsed.
func loadSpec(name string, seed uint64) (string, error) {
	b, err := specFS.ReadFile("specs/" + name + ".spec")
	if err != nil {
		return "", fmt.Errorf("perfbench: spec %s: %w", name, err)
	}
	return fmt.Sprintf("seed value=%d\n%s", seed, b), nil
}

// buildInput generates refs references from the spec and encodes them
// as an in-memory v2 trace, which is all the simulator ever sees. A
// corrupt index >= 0 moves that reference to another page: the hook the
// tests use to show a wrong input is caught by the output checks.
func buildInput(ctx context.Context, name, spec string, refs uint64, corrupt int64) (*trace.File, error) {
	gen, err := workload.Parse(name, refs, spec)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", name, err)
	}
	var buf bytes.Buffer
	w := trace.NewV2Writer(&buf)
	var seen int64
	var werr error
	if _, err := trace.DrainContext(ctx, gen, func(batch []trace.Ref) {
		if i := corrupt - seen; i >= 0 && i < int64(len(batch)) {
			batch[i].Addr ^= 1 << 30
		}
		seen += int64(len(batch))
		if werr == nil {
			werr = w.Write(batch)
		}
	}); err != nil {
		return nil, fmt.Errorf("perfbench: generating %s: %w", name, err)
	}
	if werr != nil {
		return nil, fmt.Errorf("perfbench: encoding %s: %w", name, werr)
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("perfbench: encoding %s: %w", name, err)
	}
	f, err := trace.NewFileBytes(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", name, err)
	}
	if f.Refs() != refs {
		return nil, fmt.Errorf("perfbench: %s: encoded %d references, want %d", name, f.Refs(), refs)
	}
	return f, nil
}

// timeGenerate drains a fresh generator for the spec without encoding
// it, returning host nanoseconds per generated reference.
func timeGenerate(ctx context.Context, name, spec string, refs uint64) (float64, error) {
	gen, err := workload.Parse(name, refs, spec)
	if err != nil {
		return 0, fmt.Errorf("perfbench: %s: %w", name, err)
	}
	return timeDrain(ctx, gen)
}

// timeDrain pulls r to the end and returns nanoseconds per reference.
func timeDrain(ctx context.Context, r trace.Reader) (float64, error) {
	start := time.Now()
	n, err := trace.DrainContext(ctx, r, func([]trace.Ref) {})
	if err != nil {
		return 0, fmt.Errorf("perfbench: draining: %w", err)
	}
	if n == 0 {
		return 0, fmt.Errorf("perfbench: empty stream")
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}
