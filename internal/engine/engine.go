// Package engine schedules simulation work units across a bounded
// worker pool, memoizing repeated units so that experiments sharing a
// (workload, refs, policy, TLB-configuration) pass simulate it once.
//
// The paper's evaluation is embarrassingly parallel: every per-workload
// simulation pass is independent of every other, the same property that
// lets one stack-simulation pass stand in for 84 TLB configurations
// (Section 3.3). The engine exploits the coarser grain: experiments
// submit their work units up front (Unit, PassSpec, opaque core passes
// via Ride, or opaque funcs via Go), the pool executes them on up to
// Parallelism goroutines, and the experiments reassemble rows from the
// returned futures in their own deterministic order — so output is
// byte-identical regardless of the parallelism level. Parallelism
// bounds passes, not CPUs: a pool slot's pass may use a second CPU
// while one is idle, sharing its batches' work with a helper goroutine
// (core's staged pass: a chain of stages for one simulator, a lane for
// each of several).
//
// Units are the memoization and reporting granularity; fused groups are
// the execution granularity. Pending units and rides (Engine.Ride) that
// share a workload and length, submitted under one ctx, run in one read
// of that stream, and each gets the Result it would have had alone
// (fuse.go).
//
// Two rules keep the pool deadlock-free:
//
//   - Work submitted to the pool must never block on another future;
//     only the submitting (coordinator) goroutine waits.
//   - Waiting never occupies a pool slot: Future.Wait parks outside the
//     semaphore.
//
// Results returned by memoized units are shared between all requesters
// and must be treated as read-only.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"twopage/internal/core"
	"twopage/internal/obs"
)

// Event describes one completed unit of work, for progress reporting.
// Observers are invoked from worker goroutines and must be safe for
// concurrent use.
type Event struct {
	// Key identifies the unit: a memoization key for keyed passes, or
	// the submitter-provided label for opaque tasks.
	Key string
	// CacheHit reports that the unit was served from the memo cache
	// without simulating.
	CacheHit bool
	// Done and Submitted are cumulative counters at the time of the
	// event (Done <= Submitted).
	Done, Submitted int64
	// Err is the unit's failure, if any.
	Err error
}

// Observer receives an Event per completed unit.
type Observer func(Event)

// Engine is a bounded worker pool with a memoizing result cache.
// The zero value is not usable; construct with New. An Engine may be
// shared by any number of concurrent experiments — sharing one across
// a whole `paper all` run is what deduplicates passes between
// experiments (e.g. fig5.1 and deltamp both need the 4KB/FA16 pass per
// workload).
type Engine struct {
	sem         chan struct{}
	parallelism int
	observer    Observer
	collector   *obs.Collector
	shard       ShardPlan

	mu      sync.Mutex
	units   map[string]any       // memo key -> the unit's *Future[T]
	pending map[string][]*ticket // stream -> fusable units waiting for a slot

	submitted atomic.Int64
	done      atomic.Int64
	hits      atomic.Int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithObserver registers a progress callback invoked once per completed
// unit. The callback runs on worker goroutines.
func WithObserver(fn Observer) Option {
	return func(e *Engine) { e.observer = fn }
}

// WithCollector attaches a run-report collector. Each keyed unit records
// its counters under its memoization key when it actually executes —
// cache hits record nothing — so the collected set is identical at any
// parallelism level.
func WithCollector(c *obs.Collector) Option {
	return func(e *Engine) { e.collector = c }
}

// Record forwards one executed unit's counters to the engine's
// collector, if any. Exposed for opaque Go tasks (which the engine
// cannot introspect); keyed units record automatically. Safe for
// concurrent use; a no-op without a collector.
func (e *Engine) Record(key string, c obs.Counters) {
	if e.collector != nil {
		e.collector.Record(key, c)
	}
}

// New returns an engine executing at most parallelism units at once.
// parallelism <= 0 selects runtime.NumCPU().
func New(parallelism int, opts ...Option) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	e := &Engine{
		sem:         make(chan struct{}, parallelism),
		parallelism: parallelism,
		units:       make(map[string]any),
		pending:     make(map[string][]*ticket),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Parallelism returns the pool size.
func (e *Engine) Parallelism() int { return e.parallelism }

// Stats is a snapshot of engine counters.
type Stats struct {
	Submitted int64 // units submitted (including cache hits)
	Done      int64 // units completed
	CacheHits int64 // units served from the memo cache
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted: e.submitted.Load(),
		Done:      e.done.Load(),
		CacheHits: e.hits.Load(),
	}
}

// Future is the pending result of a submitted unit.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newFuture[T any]() *Future[T] { return &Future[T]{done: make(chan struct{})} }

// Wait blocks until the unit completes or ctx is canceled, returning
// the result. Waiting does not occupy a pool slot.
func (f *Future[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// resolved returns a future already carrying (v, err).
func resolved[T any](v T, err error) *Future[T] {
	f := newFuture[T]()
	f.val, f.err = v, err
	close(f.done)
	return f
}

func (e *Engine) emit(key string, hit bool, err error) {
	done := e.done.Add(1)
	if e.observer != nil {
		e.observer(Event{
			Key:       key,
			CacheHit:  hit,
			Done:      done,
			Submitted: e.submitted.Load(),
			Err:       err,
		})
	}
}

// Go submits an opaque task to the pool and returns its future. The
// label only identifies the task in progress events. fn must not wait
// on other futures (it would hold a pool slot while parked, which can
// deadlock a pool of size 1); coordinators that need staged work wait
// between stages themselves.
//
// fn counts as busy in core's count of goroutines that keep a CPU busy
// (core.Occupy), as a pass does, so that no pass takes a helper for the
// CPU fn holds; a pass fn runs itself under its ctx is counted once.
func Go[T any](e *Engine, ctx context.Context, label string, fn func(context.Context) (T, error)) *Future[T] {
	return submit(e, ctx, label, false, false, nil, func(ctx context.Context) (T, error) {
		ctx, release := core.Occupy(ctx)
		defer release()
		return fn(ctx)
	})
}

// submit is the one way the engine starts work: Go tasks, memoized
// units, rides and MapSections' sections all come through it. It counts
// the submission, runs fn on a goroutine of its own and emits one Event
// when the future resolves.
//
// With memo set, key is a memoization key: the first submitter runs fn
// and every concurrent or later submitter of key waits on that unit's
// future, counted and reported as a cache hit. A failed unit is evicted
// before its future resolves, so a retry runs again (a canceled first
// requester must not poison the cache for live ones). Without memo, key
// only labels the event.
//
// fn runs in a pool slot unless offPool is set. offPool is for a unit
// that waits on pool futures itself, like a sharded pass waiting on its
// sections: waiting inside a slot would deadlock a pool of size 1. A
// unit or ride with a ticket t is fusable (fuse.go): it joins the
// pending set (a unit with its memo entry), and if a group claims it
// before it gets a slot, fn runs outside the pool and only waits for
// the group.
func submit[T any](e *Engine, ctx context.Context, key string, memo, offPool bool, t *ticket, fn func(context.Context) (T, error)) *Future[T] {
	e.submitted.Add(1)
	f := newFuture[T]()
	if memo || t != nil {
		e.mu.Lock()
		if memo {
			if cached, ok := e.units[key].(*Future[T]); ok {
				e.mu.Unlock()
				e.hits.Add(1)
				go func() {
					defer close(f.done)
					f.val, f.err = cached.Wait(ctx)
					e.emit(key, true, f.err)
				}()
				return f
			}
			e.units[key] = f
		}
		e.pend(t)
		e.mu.Unlock()
	}
	go func() {
		defer close(f.done)
		held := false
		if !offPool {
			held, f.err = e.acquire(ctx, t)
		}
		if f.err == nil {
			f.val, f.err = fn(ctx)
		}
		if held {
			<-e.sem
		}
		if f.err != nil && memo {
			e.mu.Lock()
			delete(e.units, key)
			e.mu.Unlock()
		}
		e.emit(key, false, f.err)
	}()
	return f
}

// collect waits on futs from a plain goroutine (no pool slot) and
// resolves to fn of their values, in order, or to the first error.
func collect[T, U any](ctx context.Context, futs []*Future[T], fn func([]T) U) *Future[U] {
	out := newFuture[U]()
	go func() {
		defer close(out.done)
		vals := make([]T, len(futs))
		for i, f := range futs {
			v, err := f.Wait(ctx)
			if err != nil {
				out.err = err
				return
			}
			vals[i] = v
		}
		out.val = fn(vals)
	}()
	return out
}
