package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/timeseries"
)

// OfflineRunner wires an Ingester to an OfflineEngine with a dedicated
// compression goroutine, reproducing the paper's thread architecture (§V:
// "one for ingestion, one for compression, one for recoding…"): the caller
// is the ingestion thread pushing raw points; the runner's worker drains
// the uncompressed buffer and drives the engine (which performs recoding
// inline, preserving the engine's determinism for a fixed arrival order).
//
// Backpressure is explicit: if the uncompressed buffer fills because
// compression falls behind, the Ingester counts spilled segments — the
// paper's "flushed to the disk" path.
type OfflineRunner struct {
	ingester *Ingester
	engine   *OfflineEngine

	wake   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc

	mu        sync.Mutex
	processed int   // guarded by mu
	failed    error // guarded by mu
}

// NewOfflineRunner builds a runner over an existing engine and ingester
// configuration.
func NewOfflineRunner(engine *OfflineEngine, cfg IngesterConfig) *OfflineRunner {
	return &OfflineRunner{
		ingester: NewIngester(cfg),
		engine:   engine,
		wake:     make(chan struct{}, 1),
	}
}

// Ingester exposes the ingest front.
func (r *OfflineRunner) Ingester() *Ingester { return r.ingester }

// Start launches the compression worker.
func (r *OfflineRunner) Start(ctx context.Context) {
	ctx, r.cancel = context.WithCancel(ctx)
	r.done = make(chan struct{})
	// The compression worker is the engine's decision goroutine; the
	// caller only pushes raw points through the ingester.
	// adaedge:decision-goroutine
	go func() {
		defer close(r.done)
		for {
			seg, ok := r.ingester.Next()
			if !ok {
				select {
				case <-ctx.Done():
					// Drain whatever is left before exiting.
					for {
						seg, ok := r.ingester.Next()
						if !ok {
							return
						}
						r.ingest(seg)
					}
				case <-r.wake:
					continue
				}
			}
			r.ingest(seg)
		}
	}()
}

// ingest drives one segment through the engine on the worker goroutine.
//
// adaedge:decision-goroutine
func (r *OfflineRunner) ingest(seg *timeseries.Segment) {
	err := r.engine.Ingest(seg.Values, seg.Label)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && r.failed == nil {
		r.failed = err
		return
	}
	if err == nil {
		r.processed++
	}
}

// Push feeds raw points from the ingestion thread and nudges the worker.
func (r *OfflineRunner) Push(points []float64) {
	r.ingester.PushBatch(points)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Stop flushes the ingester, waits for the worker to drain, and returns
// the first engine error, if any.
func (r *OfflineRunner) Stop() error {
	r.ingester.Flush()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Processed returns the number of segments the engine accepted.
func (r *OfflineRunner) Processed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.processed
}

// ErrRunnerFailed wraps engine errors surfaced through Stop.
var ErrRunnerFailed = errors.New("core: offline runner failed")
