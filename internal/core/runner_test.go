package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/sim"
)

func TestOfflineRunnerEndToEnd(t *testing.T) {
	engine, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    AggTarget(query.Sum),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewOfflineRunner(engine, IngesterConfig{SegmentLength: 128})
	r.Start(context.Background())

	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 2})
	const segments = 60
	for i := 0; i < segments; i++ {
		series, _ := stream.Next()
		r.Push(series)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if r.Processed() != segments {
		t.Fatalf("processed %d/%d", r.Processed(), segments)
	}
	if engine.Segments() != segments {
		t.Fatalf("engine holds %d segments", engine.Segments())
	}
	if _, err := engine.Query(query.Sum); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineRunnerSurfacesEngineFailure(t *testing.T) {
	engine, err := NewOfflineEngine(Config{
		StorageBytes: 64, // impossible budget
		Objective:    SingleTarget(TargetRatio),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewOfflineRunner(engine, IngesterConfig{SegmentLength: 128})
	r.Start(context.Background())
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 4})
	for i := 0; i < 10; i++ {
		series, _ := stream.Next()
		r.Push(series)
	}
	err = r.Stop()
	if !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestOfflineRunnerDrainsBacklogOnStop(t *testing.T) {
	engine, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewOfflineRunner(engine, IngesterConfig{SegmentLength: 32})
	r.Start(context.Background())
	// Push a burst and stop immediately: Stop must drain everything.
	burst := make([]float64, 32*20)
	for i := range burst {
		burst[i] = float64(i % 9)
	}
	r.Push(burst)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if r.Processed() != 20 {
		t.Fatalf("processed %d/20 after Stop", r.Processed())
	}
}

func TestOfflineRunnerConcurrentPushers(t *testing.T) {
	engine, err := NewOfflineEngine(Config{
		StorageBytes: 2 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewOfflineRunner(engine, IngesterConfig{SegmentLength: 128, BufferSegments: 4096})
	r.Start(context.Background())
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
			for i := 0; i < 25; i++ {
				series, _ := stream.Next()
				r.Push(series)
			}
		}(int64(10 + w))
	}
	for w := 0; w < 4; w++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("pushers hung")
		}
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if r.Processed()+r.Ingester().Spilled() != 100 {
		t.Fatalf("processed %d + spilled %d != 100", r.Processed(), r.Ingester().Spilled())
	}
}
