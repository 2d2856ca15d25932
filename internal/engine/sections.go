package engine

import (
	"context"
	"fmt"

	"twopage/internal/trace"
)

// MapSections fans a memory-mapped trace out across the pool: the file
// is split into n disjoint block sections (see trace.File.Section) and
// fn runs once per section with its own cursor, returning one T. n <= 0
// selects the engine's parallelism, clamped to the file's block count
// so no worker receives an empty section (a file with zero blocks runs
// one worker on an empty cursor). The future resolves to the per-
// section results in section order — the concatenation order of the
// underlying references — so callers can merge deterministically
// regardless of completion order.
//
// fn receives the section index alongside the cursor; it must not wait
// on other engine futures (the Go rule), and each invocation sees an
// independent MapReader, so no locking is needed on the trace side.
func MapSections[T any](e *Engine, ctx context.Context, f *trace.File, n int, label string, fn func(ctx context.Context, r *trace.MapReader, section int) (T, error)) *Future[[]T] {
	n = e.sections(f, n)
	futs := make([]*Future[T], n)
	for i := range futs {
		futs[i] = Go(e, ctx, fmt.Sprintf("%s[%d/%d]", label, i, n), func(ctx context.Context) (T, error) {
			return fn(ctx, f.Section(i, n), i)
		})
	}
	return collect(ctx, futs, func(parts []T) []T { return parts })
}

// sections is the section count MapSections uses for a request of n:
// n <= 0 selects the engine's parallelism, and the count is clamped to
// the file's block count (at least one section, the whole file).
// Callers that index sections themselves (SectionStart, Preroll) ask
// it for the same n MapSections will use.
func (e *Engine) sections(f *trace.File, n int) int {
	if n <= 0 {
		n = e.parallelism
	}
	return max(1, min(n, f.Blocks()))
}
