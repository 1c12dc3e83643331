package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
)

func TestPipelineProcessesAllSegments(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.25,
		Objective:           AggTarget(query.Sum),
		Seed:                1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 4 {
		t.Fatalf("workers = %d", p.Workers())
	}
	p.Start(context.Background())
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 2})
	const n = 200
	for i := 0; i < n; i++ {
		series, label := stream.Next()
		p.Submit(LabeledSegment{Values: series, Label: label})
	}
	p.Close()
	if errs := p.Errors(); len(errs) != 0 {
		t.Fatalf("pipeline errors: %v", errs)
	}
	st := p.Stats()
	if st.Segments != n {
		t.Fatalf("processed %d segments, want %d", st.Segments, n)
	}
	if st.OverallRatio() > 0.3 {
		t.Fatalf("overall ratio %v exceeds target band", st.OverallRatio())
	}
}

func TestPipelineContextCancel(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                3,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	cancel()
	// Workers must exit; Close must not hang even with pending jobs space.
	p.Close()
}

func TestPipelineMinWorkers(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                4,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 1 {
		t.Fatalf("workers = %d, want clamp to 1", p.Workers())
	}
	p.Start(context.Background())
	p.Close()
}

func TestPipelinePropagatesConfigError(t *testing.T) {
	if _, err := NewPipeline(Config{Objective: SingleTarget(TargetRatio)}, 2); err == nil {
		t.Fatal("expected error: no bandwidth or override")
	}
}

// segOutcome is the determinism-relevant slice of a Result: everything
// except Duration, which is wall time and legitimately varies run to run.
type segOutcome struct {
	SegmentID    uint64
	Codec        string
	Lossy        bool
	Ratio        float64
	Reward       float64
	AccuracyLoss float64
}

func outcomeOf(r Result) segOutcome {
	return segOutcome{
		SegmentID: r.SegmentID, Codec: r.Codec, Lossy: r.Lossy,
		Ratio: r.Ratio, Reward: r.Reward, AccuracyLoss: r.AccuracyLoss,
	}
}

func cbfSegments(t testing.TB, n int, seed int64) []LabeledSegment {
	t.Helper()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
	segs := make([]LabeledSegment, n)
	for i := range segs {
		v, label := stream.Next()
		segs[i] = LabeledSegment{Values: v, Label: label}
	}
	return segs
}

// runSequential is the reference path: one Process call per segment on
// the test goroutine.
func runSequential(t *testing.T, cfg Config, segs []LabeledSegment) ([]segOutcome, OnlineStats) {
	t.Helper()
	eng, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []segOutcome
	for _, s := range segs {
		res, _, err := eng.Process(s.Values, s.Label)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, outcomeOf(res))
	}
	return out, eng.Stats()
}

// TestParallelOnlineMatchesSequential is the share-nothing guarantee
// Pipeline rests on: k same-seed engines, each on its own goroutine and
// running at the same time as the others, each produce the identical
// selected-codec sequence, rewards and stats as one engine run alone.
// Any state shared between engines (pools, registries, scratch) that
// leaked into a decision would make them diverge, and under -race any
// unsynchronised sharing is reported.
func TestParallelOnlineMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lossy-maxquery", Config{TargetRatioOverride: 0.15, Objective: AggTarget(query.Max), Seed: 42}},
		{"lossy-ratio", Config{TargetRatioOverride: 0.3, Objective: SingleTarget(TargetRatio), Seed: 7}},
		{"lossless-unconstrained", Config{TargetRatioOverride: 1, Objective: SingleTarget(TargetRatio), Seed: 11}},
		{"ucb", Config{TargetRatioOverride: 0.2, Objective: AggTarget(query.Sum), Seed: 5, UseUCB: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			segs := cbfSegments(t, 100, 90)
			wantRes, wantStats := runSequential(t, tc.cfg, segs)
			for _, workers := range []int{2, 4, 8} {
				engines := make([]*OnlineEngine, workers)
				for i := range engines {
					eng, err := NewOnlineEngine(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					engines[i] = eng
				}
				results := make([][]Result, workers)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for i, eng := range engines {
					wg.Add(1)
					go func(i int, eng *OnlineEngine) {
						defer wg.Done()
						results[i], errs[i] = RunOnlineSegments(eng, segs)
					}(i, eng)
				}
				wg.Wait()
				for i, eng := range engines {
					if errs[i] != nil {
						t.Fatalf("workers=%d engine %d: %v", workers, i, errs[i])
					}
					got := make([]segOutcome, len(results[i]))
					for j, r := range results[i] {
						got[j] = outcomeOf(r)
					}
					if !reflect.DeepEqual(wantRes, got) {
						t.Fatalf("workers=%d engine %d: result sequence diverged from sequential", workers, i)
					}
					if gotStats := eng.Stats(); !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("workers=%d engine %d: stats diverged:\nseq: %+v\npar: %+v", workers, i, wantStats, gotStats)
					}
				}
			}
		})
	}
}

// TestRunOnlineSegmentsMatchesProcess pins RunOnlineSegments to a plain
// Process loop: for a fixed seed, the batch runner and a second engine
// fed one segment at a time produce the identical selected-codec
// sequence, rewards and stats.
func TestRunOnlineSegmentsMatchesProcess(t *testing.T) {
	cfg := Config{TargetRatioOverride: 0.2, Objective: SingleTarget(TargetRatio), Seed: 3}
	segs := cbfSegments(t, 60, 91)
	want, wantStats := runSequential(t, cfg, segs)

	batch, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunOnlineSegments(batch, segs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]segOutcome, len(results))
	for i, r := range results {
		got[i] = outcomeOf(r)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunOnlineSegments result sequence diverged from the Process loop")
	}
	if gotStats := batch.Stats(); !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("stats diverged:\nProcess: %+v\nbatch:   %+v", wantStats, gotStats)
	}
}
