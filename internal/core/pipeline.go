package core

import (
	"context"
	"sync"
)

// LabeledSegment is one unit of pipeline work: a fixed-size segment plus
// its (optional) class label.
type LabeledSegment struct {
	Values []float64
	Label  int
}

// Pipeline runs online compression selection across multiple workers, the
// configuration behind the paper's scalability claim (§V-C: "AdaEdge
// successfully managed an ingestion rate of approximately 8 million points
// per second using 8 threads"). Each worker owns an independent engine —
// sharing nothing, as concurrent sensors' signals are independent — and
// stats are merged at the end. Together with OfflineRunner it is the only
// concurrency around an engine: a single stream's decisions always run on
// one goroutine.
type Pipeline struct {
	engines []*OnlineEngine
	jobs    chan LabeledSegment
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error // guarded by mu
}

// NewPipeline builds a pipeline of `workers` engines with per-worker
// deterministic seeds derived from cfg.Seed.
func NewPipeline(cfg Config, workers int) (*Pipeline, error) {
	if workers < 1 {
		workers = 1
	}
	p := &Pipeline{jobs: make(chan LabeledSegment, 4*workers)}
	for i := 0; i < workers; i++ {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + int64(i)*1000
		// Each worker needs its own registry: codec instances are
		// stateless but cheap, and sharing-nothing avoids any contention.
		wcfg.Registry = nil
		e, err := NewOnlineEngine(wcfg)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, e)
	}
	return p, nil
}

// Start launches the workers. Submit segments with Submit, then call
// Close/Wait.
func (p *Pipeline) Start(ctx context.Context) {
	for _, e := range p.engines {
		p.wg.Add(1)
		// Share-nothing workers: each owns an engine outright, so each
		// worker is its engine's decision goroutine.
		// adaedge:decision-goroutine
		go func(eng *OnlineEngine) {
			defer p.wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job, ok := <-p.jobs:
					if !ok {
						return
					}
					if _, _, err := eng.Process(job.Values, job.Label); err != nil {
						p.mu.Lock()
						p.errs = append(p.errs, err)
						p.mu.Unlock()
					}
				}
			}
		}(e)
	}
}

// Submit enqueues one segment; blocks if all workers are busy.
func (p *Pipeline) Submit(job LabeledSegment) { p.jobs <- job }

// Close signals that no more work is coming and waits for the workers.
func (p *Pipeline) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// Errors returns the processing errors collected across workers.
func (p *Pipeline) Errors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]error, len(p.errs))
	copy(out, p.errs)
	return out
}

// Stats merges all workers' statistics.
func (p *Pipeline) Stats() OnlineStats {
	merged := OnlineStats{CodecUse: make(map[string]int)}
	for _, e := range p.engines {
		st := e.Stats()
		merged.Segments += st.Segments
		merged.LosslessSegments += st.LosslessSegments
		merged.LossySegments += st.LossySegments
		merged.TotalRawBytes += st.TotalRawBytes
		merged.TotalCompressedBytes += st.TotalCompressedBytes
		merged.AccuracyLossSum += st.AccuracyLossSum
		merged.BandwidthViolations += st.BandwidthViolations
		for k, v := range st.CodecUse {
			merged.CodecUse[k] += v
		}
	}
	return merged
}

// Workers returns the number of workers.
func (p *Pipeline) Workers() int { return len(p.engines) }

// RunOnlineSegments pushes segments through eng in order on the calling
// goroutine, which is the decision goroutine for the whole batch. Results
// come back in input order; failed segments hold a zero Result. The first
// error is returned after the whole stream has been attempted.
//
// adaedge:decision-goroutine
func RunOnlineSegments(eng *OnlineEngine, segs []LabeledSegment) ([]Result, error) {
	results := make([]Result, 0, len(segs))
	var first error
	for _, s := range segs {
		res, enc, err := eng.Process(s.Values, s.Label)
		if err != nil && first == nil {
			first = err
		}
		results = append(results, res)
		// Only the Result survives this loop; hand the encoding's buffer
		// back so steady-state segments allocate nothing.
		RecycleEncoded(enc)
	}
	return results, first
}
