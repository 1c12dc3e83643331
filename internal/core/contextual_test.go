package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/query"
)

// ctxEngine builds an instrumented online engine with the contextual
// policy, the quality oracle and an optional deadline.
func ctxEngine(t *testing.T, deadline time.Duration, o *obs.Observer) *OnlineEngine {
	t.Helper()
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		BanditPolicy:        "contextual",
		Deadline:            deadline,
		Seed:                42,
		Obs:                 o,
		Quality:             &quality.Config{SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func ctxSegments(n int) []LabeledSegment {
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 90})
	segs := make([]LabeledSegment, n)
	for i := range segs {
		v, label := stream.Next()
		segs[i] = LabeledSegment{Values: v, Label: label}
	}
	return segs
}

// ctxTraceRun processes n CBF segments through a contextual engine and
// returns the full decision trace plus the final stats.
func ctxTraceRun(t *testing.T, n int, deadline time.Duration) ([]obs.Event, OnlineStats) {
	t.Helper()
	o := obs.New(1 << 16)
	eng := ctxEngine(t, deadline, o)
	if _, err := RunOnlineSegments(eng, ctxSegments(n)); err != nil {
		t.Fatal(err)
	}
	if d := o.Ring().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events — raise the test ring capacity", d)
	}
	return o.Ring().Events(), eng.Stats()
}

// TestContextualTraceDeterministic extends the §9 invariant to the
// contextual layer: features, predictions, priors, deadline gating and
// the quality.contextual events are all pure functions of the seeded
// segment stream, so the full trace and the stats are byte-identical
// across reruns.
func TestContextualTraceDeterministic(t *testing.T) {
	const segments = 80
	const deadline = 20 * time.Microsecond
	base, stats := ctxTraceRun(t, segments, deadline)
	if len(base) == 0 {
		t.Fatal("instrumented contextual run emitted no trace events")
	}
	predicts := 0
	for _, ev := range base {
		if ev.Source == "quality.contextual" && ev.Kind == "predict" {
			predicts++
		}
	}
	if predicts == 0 {
		t.Fatal("no quality.contextual predict events — the predictor never warmed up")
	}
	if stats.DeadlineViolations != 0 {
		t.Fatalf("deadline violations = %d, want 0", stats.DeadlineViolations)
	}

	again, againStats := ctxTraceRun(t, segments, deadline)
	if !reflect.DeepEqual(base, again) {
		t.Fatal("same-seed contextual runs produced different traces")
	}
	if !reflect.DeepEqual(stats, againStats) {
		t.Fatalf("same-seed contextual runs produced different stats:\n%+v\n%+v", stats, againStats)
	}
}

// TestContextualWithoutDeadlineMatchesAcrossRuns pins the plain
// contextual policy (no gate) to the same determinism contract.
func TestContextualWithoutDeadlineMatchesAcrossRuns(t *testing.T) {
	base, _ := ctxTraceRun(t, 60, 0)
	again, _ := ctxTraceRun(t, 60, 0)
	if !reflect.DeepEqual(base, again) {
		t.Fatal("contextual (no deadline) trace differs between same-seed runs")
	}
}

// TestDeadlineGateNeverViolates is the gating property test: across a
// sweep of deadlines — from generous to unmeetable — every segment gets
// some codec (the engine never drops a segment because of the gate) and
// no predicted-infeasible arm is ever selected outside the explicit
// fallback path.
func TestDeadlineGateNeverViolates(t *testing.T) {
	const segments = 60
	for _, d := range []time.Duration{
		time.Millisecond,      // everything fits
		20 * time.Microsecond, // slow lossless codecs rejected
		5 * time.Microsecond,  // only the cheap transforms fit
		200 * time.Nanosecond, // nothing fits: pure fallback regime
	} {
		o := obs.New(1 << 16)
		eng := ctxEngine(t, d, o)
		results, err := RunOnlineSegments(eng, ctxSegments(segments))
		if err != nil {
			t.Fatalf("deadline %v: %v", d, err)
		}
		if len(results) != segments {
			t.Fatalf("deadline %v: %d results, want %d — the gate dropped segments", d, len(results), segments)
		}
		for _, r := range results {
			if r.Codec == "" {
				t.Fatalf("deadline %v: segment %d decided with no codec", d, r.SegmentID)
			}
		}
		stats := eng.Stats()
		if stats.DeadlineViolations != 0 {
			t.Fatalf("deadline %v: %d violations, want 0", d, stats.DeadlineViolations)
		}
	}
}

// TestDeadlineTightForcesFallback pins the degradation path: a deadline
// below every codec's cost-model latency must route segments through the
// fastest-predicted fallback (with misses recorded) instead of failing.
func TestDeadlineTightForcesFallback(t *testing.T) {
	o := obs.New(1 << 16)
	eng := ctxEngine(t, 200*time.Nanosecond, o)
	if _, err := RunOnlineSegments(eng, ctxSegments(60)); err != nil {
		t.Fatal(err)
	}
	stats := eng.Stats()
	if stats.DeadlineFallbacks == 0 {
		t.Fatal("unmeetable deadline produced no fallbacks")
	}
	if stats.DeadlineMisses == 0 {
		t.Fatal("unmeetable deadline recorded no misses")
	}
	if stats.DeadlineViolations != 0 {
		t.Fatalf("violations = %d, want 0", stats.DeadlineViolations)
	}
	fallbackEvents := 0
	for _, ev := range o.Ring().Events() {
		if ev.Source == "core.online" && ev.Kind == "deadline_fallback" {
			fallbackEvents++
		}
	}
	if fallbackEvents != stats.DeadlineFallbacks {
		t.Fatalf("fallback events (%d) disagree with stats (%d)", fallbackEvents, stats.DeadlineFallbacks)
	}
}

// TestDeadlineWorksUnderPlainPolicy checks the gate is policy-agnostic:
// Config.Deadline alone (default ε-greedy) builds the contextual layer
// and enforces the same invariants.
func TestDeadlineWorksUnderPlainPolicy(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Deadline:            5 * time.Microsecond,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.ctx == nil {
		t.Fatal("Deadline alone did not build the contextual layer")
	}
	results, err := RunOnlineSegments(eng, ctxSegments(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("%d results, want 50", len(results))
	}
	if s := eng.Stats(); s.DeadlineViolations != 0 {
		t.Fatalf("violations = %d, want 0", s.DeadlineViolations)
	}
}

// TestContextualPolicyValidation covers the new policy name end to end.
func TestContextualPolicyValidation(t *testing.T) {
	if _, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2, Objective: AggTarget(query.Max),
		BanditPolicy: "contextual",
	}); err != nil {
		t.Fatalf("contextual policy rejected: %v", err)
	}
	if _, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2, Objective: AggTarget(query.Max),
		BanditPolicy: "contextal",
	}); err == nil {
		t.Fatal("typo'd policy name accepted")
	}
}
