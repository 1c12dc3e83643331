package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
)

// Regression tests for data races in the engines' cross-goroutine
// surface. Stats() once returned struct copies whose maps (CodecUse,
// LosslessUse, LossyUse) were the engine's live maps, so any monitor
// polling stats while segments flowed raced with the accounting writes.
// Same story for the offline accLoss cache read by Snapshot(). Stats now
// deep-copies under a mutex; these tests fail under -race against the
// old code.

// TestOnlineStatsPollRace polls Stats and both estimate maps from monitor
// goroutines while the engine processes segments.
func TestOnlineStatsPollRace(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           SingleTarget(TargetRatio),
		Seed:                31,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.CodecUse {
					_ = name
				}
				_ = eng.LossyEstimates()
				_ = eng.LosslessEstimates()
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 98})
	for i := 0; i < 150; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := eng.Stats().Segments; got != 150 {
		t.Fatalf("Segments = %d, want 150", got)
	}
}

// TestOnlineStatsSnapshotIsolated proves the returned stats are a snapshot:
// mutating the copy's map must not leak into the engine.
func TestOnlineStatsSnapshotIsolated(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 1,
		Objective:           SingleTarget(TargetRatio),
		Seed:                37,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 99})
	for i := 0; i < 20; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	for name := range st.CodecUse {
		st.CodecUse[name] = -1000
	}
	st.CodecUse["bogus"] = 1
	var sum int
	for _, n := range eng.Stats().CodecUse {
		sum += n
	}
	if sum != 20 {
		t.Fatalf("engine stats corrupted through returned copy: codec-use sum = %d, want 20", sum)
	}
}

// TestOnlineSnapshotMutateWhileRunning goes one step beyond polling: the
// monitors actively WRITE to every map a snapshot accessor returns while
// the engine is deciding segments. If any accessor ever leaks a live
// engine map again, -race flags the write against the accounting
// goroutine immediately.
func TestOnlineSnapshotMutateWhileRunning(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           SingleTarget(TargetRatio),
		Seed:                53,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.CodecUse {
					st.CodecUse[name] = -1
				}
				st.CodecUse["mutated"] = 1
				for name, est := range eng.LossyEstimates() {
					_ = est
					delete(eng.LossyEstimates(), name)
				}
				le := eng.LosslessEstimates()
				for name := range le {
					le[name] = -99
				}
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 101})
	const segments = 150
	for i := 0; i < segments; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st := eng.Stats()
	if st.Segments != segments {
		t.Fatalf("Segments = %d, want %d", st.Segments, segments)
	}
	sum := 0
	for name, n := range st.CodecUse {
		if name == "mutated" {
			t.Fatal("monitor mutation leaked into the engine's codec-use map")
		}
		sum += n
	}
	if sum != segments {
		t.Fatalf("codec-use sum = %d, want %d (mutations corrupted the engine)", sum, segments)
	}
}

// TestOnlineDegradeRace drives the one engine write that legitimately
// comes from another goroutine: the resilient uplink's spool watcher
// calls Degrade while the decision goroutine runs Process. Degrade swaps
// the pressure throttle and, when it loosens, re-arms losslessViable, so
// both must stay atomic; -race flags either one turning into a plain
// field.
func TestOnlineDegradeRace(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.3,
		Objective:           SingleTarget(TargetRatio),
		Seed:                59,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Alternate tightening and restoring, so Degrade writes both the
		// throttle and (on every restore) losslessViable.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				eng.Degrade(0.5)
			} else {
				eng.Degrade(1)
			}
		}
	}()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 103})
	const segments = 150
	for i := 0; i < segments; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	st := eng.Stats()
	if st.Segments != segments {
		t.Fatalf("Segments = %d, want %d", st.Segments, segments)
	}
	if st.LosslessSegments+st.LossySegments != segments {
		t.Fatalf("lossless %d + lossy %d != %d", st.LosslessSegments, st.LossySegments, segments)
	}
}

// TestOfflineSnapshotMutateWhileRunning is the offline counterpart:
// monitors write into the maps Stats returns while the runner ingests.
func TestOfflineSnapshotMutateWhileRunning(t *testing.T) {
	eng, err := NewOfflineEngine(Config{
		StorageBytes: 20 << 10,
		Objective:    AggTarget(query.Sum),
		Seed:         59,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := NewOfflineRunner(eng, IngesterConfig{SegmentLength: 128})
	runner.Start(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.LosslessUse {
					st.LosslessUse[name] = -1
				}
				for name := range st.LossyUse {
					delete(st.LossyUse, name)
				}
				st.LossyUse["mutated"] = 1
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 102})
	const segments = 100
	for i := 0; i < segments; i++ {
		v, _ := stream.Next()
		runner.Push(v)
	}
	if err := runner.Stop(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	st := eng.Stats()
	if st.SegmentsIngested != segments {
		t.Fatalf("SegmentsIngested = %d, want %d", st.SegmentsIngested, segments)
	}
	if _, ok := st.LossyUse["mutated"]; ok {
		t.Fatal("monitor mutation leaked into the engine's lossy-use map")
	}
}

// TestOfflineStatsPollRace runs an OfflineRunner (the engine's real
// concurrent client: the paper's collector thread) while monitors poll
// Stats and Snapshot, the exact interleaving that raced on the shared
// LosslessUse/LossyUse maps and the accLoss cache.
func TestOfflineStatsPollRace(t *testing.T) {
	eng, err := NewOfflineEngine(Config{
		StorageBytes: 20 << 10,
		Objective:    AggTarget(query.Sum),
		Seed:         41,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := NewOfflineRunner(eng, IngesterConfig{SegmentLength: 128})
	runner.Start(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.LosslessUse {
					_ = name
				}
				for name := range st.LossyUse {
					_ = name
				}
				_ = eng.Snapshot()
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 100})
	for i := 0; i < 100; i++ {
		v, _ := stream.Next()
		runner.Push(v)
	}
	if err := runner.Stop(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := eng.Stats().SegmentsIngested; got != 100 {
		t.Fatalf("SegmentsIngested = %d, want 100", got)
	}
}
