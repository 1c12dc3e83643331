package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/obs"
)

// markerValue tags the segments markerCodec compresses well.
const markerValue = 4242.4242

// markerCodec is a lossless test arm whose ratio depends only on the
// data: 1/16 on segments that start with markerValue, 1 on anything
// else. On CBF it is the worst arm, so a re-probe reaches it only
// through the rotation.
type markerCodec struct{}

func (markerCodec) Name() string { return "marker" }

func (markerCodec) Compress(values []float64) (compress.Encoded, error) {
	if len(values) == 0 {
		return compress.Encoded{}, compress.ErrEmptyInput
	}
	n := 8 * len(values)
	if values[0] == markerValue {
		n = len(values) / 2
	}
	return compress.Encoded{Codec: "marker", Data: make([]byte, n), N: len(values)}, nil
}

// Decompress is never reached: the engine only compresses.
func (markerCodec) Decompress(compress.Encoded) ([]float64, error) {
	return nil, compress.ErrCorrupt
}

// probeHarness drives an online engine at target 0.1 and counts the
// lossless trials of each segment through the cost-model hook, which the
// decision path calls once per trial.
type probeHarness struct {
	t        *testing.T
	e        *OnlineEngine
	ob       *obs.Observer
	lossless map[string]bool
	trials   int
	ran      map[string]bool // lossless arms the last step trialled
}

func newProbeHarness(t *testing.T, reg *compress.Registry, arms []string) *probeHarness {
	t.Helper()
	h := &probeHarness{t: t, ob: obs.New(64), lossless: map[string]bool{}, ran: map[string]bool{}}
	names := arms
	if names == nil {
		names = reg.Lossless()
	}
	for _, name := range names {
		h.lossless[name] = true
	}
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride:   0.1,
		Objective:             SingleTarget(TargetRatio),
		Seed:                  5,
		Registry:              reg,
		LosslessArms:          arms,
		LosslessProbeInterval: 10,
		Obs:                   h.ob,
		CodecCost: func(op, codec string, points int) float64 {
			if h.lossless[codec] {
				h.trials++
				h.ran[codec] = true
			}
			return DefaultCodecCost(op, codec, points)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.e = e
	return h
}

// step processes one segment and returns its result and how many
// lossless trials it ran.
func (h *probeHarness) step(values []float64) (Result, int) {
	h.t.Helper()
	h.trials = 0
	clear(h.ran)
	res, _, err := h.e.Process(values, 0)
	if err != nil {
		h.t.Fatal(err)
	}
	return res, h.trials
}

// untilInfeasible streams CBF until lossless is marked infeasible: two
// full lossless phases, which between them run every arm.
func (h *probeHarness) untilInfeasible(stream *datasets.CBFStream) {
	h.t.Helper()
	arms := len(h.e.losslessNames)
	for i := 0; h.e.losslessViable.Load(); i++ {
		if i == 2 {
			h.t.Fatal("lossless still viable after two full phases at target 0.1")
		}
		series, _ := stream.Next()
		if res, n := h.step(series); !res.Lossy || n != arms {
			h.t.Fatalf("full lossless phase: lossy=%v after %d trials, want %d failed trials", res.Lossy, n, arms)
		}
	}
}

// bestRecorded is the lossless arm with the lowest recorded ratio.
func (h *probeHarness) bestRecorded() string {
	best := 0
	for arm, r := range h.e.probe.ratio {
		if r < h.e.probe.ratio[best] {
			best = arm
		}
	}
	return h.e.losslessNames[best]
}

// failedProbes streams segments until probes failed re-probes have run,
// asserting each trials the recorded best arm, costs at most two lossless
// trials and elides the rest.
func (h *probeHarness) failedProbes(next func() []float64, probes int) {
	h.t.Helper()
	arms := len(h.e.losslessNames)
	elided := h.ob.Registry().Counter("core.online.probe_trials_elided")
	for seen := 0; seen < probes; {
		before := elided.Value()
		best := h.bestRecorded()
		res, n := h.step(next())
		if n == 0 {
			continue
		}
		seen++
		if !res.Lossy {
			h.t.Fatalf("probe %d unexpectedly went lossless with %s", seen, res.Codec)
		}
		if n > 2 {
			h.t.Fatalf("failed probe %d ran %d lossless trials, want at most 2", seen, n)
		}
		if !h.ran[best] {
			h.t.Fatalf("probe %d skipped %s, the arm with the lowest recorded ratio", seen, best)
		}
		if got := elided.Value() - before; got != int64(arms-n) {
			h.t.Fatalf("probe %d: probe_trials_elided rose by %d, want %d", seen, got, arms-n)
		}
	}
}

// resumeWithin streams next until a segment goes lossless again and
// fails unless that happens within maxProbes re-probes.
func (h *probeHarness) resumeWithin(next func() []float64, maxProbes int) Result {
	h.t.Helper()
	for probes := 0; probes < maxProbes; {
		res, n := h.step(next())
		if !res.Lossy {
			return res
		}
		if n > 0 {
			probes++
			if n > 2 {
				h.t.Fatalf("failed probe %d ran %d lossless trials, want at most 2", probes, n)
			}
		}
	}
	h.t.Fatalf("lossless did not resume within %d probes", maxProbes)
	return Result{}
}

// TestLosslessReprobeTwoTrials pins the re-probe contract on the default
// arms: once lossless is infeasible and every arm has run, a failed
// probe costs at most two trials, and when the data turns highly
// compressible the very next probe resumes lossless.
func TestLosslessReprobeTwoTrials(t *testing.T) {
	h := newProbeHarness(t, compress.DefaultRegistry(4), nil)
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 41})
	h.untilInfeasible(stream)
	cbf := func() []float64 { s, _ := stream.Next(); return s }
	h.failedProbes(cbf, 30)

	flat := make([]float64, datasets.CBFLength)
	for i := range flat {
		flat[i] = 1.25
	}
	res := h.resumeWithin(func() []float64 { return flat }, 1)
	t.Logf("resumed lossless with %s at ratio %v", res.Codec, res.Ratio)
	if !h.e.losslessViable.Load() {
		t.Fatal("a successful probe must mark lossless viable again")
	}
}

// TestLosslessReprobeFindsNonBestArm pins the staleness bound: when new
// data makes an arm feasible that is not the recorded best — here the
// marker arm, the worst on CBF — the rotation finds it within
// len(LosslessArms) probes.
func TestLosslessReprobeFindsNonBestArm(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	reg.Register(markerCodec{})
	arms := []string{"sprintz", "gzip", "marker", "zlib-6", "snappy"}
	h := newProbeHarness(t, reg, arms)
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 43})
	h.untilInfeasible(stream)
	cbf := func() []float64 { s, _ := stream.Next(); return s }
	h.failedProbes(cbf, 7)

	marked := func() []float64 {
		s, _ := stream.Next()
		s[0] = markerValue
		return s
	}
	if res := h.resumeWithin(marked, len(arms)); res.Codec != "marker" {
		t.Fatalf("resumed lossless with %s, want marker (the only feasible arm)", res.Codec)
	}
}

// TestRetargetRefreshesEveryLosslessArm pins that a retarget ends
// probing: the next segment runs a full lossless phase over every arm.
func TestRetargetRefreshesEveryLosslessArm(t *testing.T) {
	h := newProbeHarness(t, compress.DefaultRegistry(4), nil)
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 47})
	h.untilInfeasible(stream)
	cbf := func() []float64 { s, _ := stream.Next(); return s }
	h.failedProbes(cbf, 3)
	h.e.RetargetRatio(0.1)
	if _, n := h.step(cbf()); n != len(h.e.losslessNames) {
		t.Fatalf("segment after RetargetRatio ran %d lossless trials, want all %d", n, len(h.e.losslessNames))
	}
}

// lossyTraceDigest streams segments CBF segments through a fresh engine
// at target 0.1 and hashes the per-segment decision trace: codec, ratio
// and reward, floats in their shortest exact form.
func lossyTraceDigest(t *testing.T, cfg Config, segments int) string {
	t.Helper()
	e, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 31})
	for i := 0; i < segments; i++ {
		series, label := stream.Next()
		res, _, err := e.Process(series, label)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if !res.Lossy {
			t.Fatalf("segment %d went lossless (%s at %v) at target 0.1", i, res.Codec, res.Ratio)
		}
		fmt.Fprintf(h, "%s %s %s\n", res.Codec,
			strconv.FormatFloat(res.Ratio, 'g', -1, 64),
			strconv.FormatFloat(res.Reward, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLossyDecisionTraceGolden pins the seeded lossy decision trace of
// the default ε-greedy policy under a ratio and an ML objective. At
// target 0.1 no lossless codec can meet the target on CBF, so every
// segment is lossy and every lossless re-probe fails; the digests prove
// that how a re-probe chooses its lossless trials never reaches a lossy
// decision. The goldens are amd64 values: other architectures may fuse
// multiply-adds and round rewards differently.
func TestLossyDecisionTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"egreedy/ratio", Config{TargetRatioOverride: 0.1, Objective: SingleTarget(TargetRatio), Seed: 11}, "b0c8ac119553812dc7ff333c21828edceb8ae6e1dc6556f257682fb890a3c04f"},
		{"egreedy/ml", Config{TargetRatioOverride: 0.1, Objective: MLTarget(cbfModel(t)), Seed: 11}, "2ecd1eb308e06ab12f37628010a973f71d049109fdd9c15f7a26dfeac76d4caa"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := lossyTraceDigest(t, tc.cfg, 2000); got != tc.want {
				t.Fatalf("lossy decision trace digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestMaskProbeKeepsBestRotatingAndColdArms pins what one re-probe keeps
// and how the rotation advances past masked arms.
func TestMaskProbeKeepsBestRotatingAndColdArms(t *testing.T) {
	r := newLosslessRecord(5)
	r.note(1, losslessTrial{enc: compress.Encoded{Data: make([]byte, 40), N: 10}})
	r.note(2, losslessTrial{enc: compress.Encoded{Data: make([]byte, 24), N: 10}})
	r.note(3, losslessTrial{err: compress.ErrCorrupt})
	r.note(4, losslessTrial{enc: compress.Encoded{Data: make([]byte, 72), N: 10}})
	r.next = 4

	allowed := []bool{true, true, true, true, true}
	if got := r.maskProbe(allowed); got != 2 {
		t.Fatalf("elided %d arms, want 2", got)
	}
	// Arm 0 is cold, arm 2 has the lowest ratio, arm 4 is the rotation.
	if want := []bool{true, false, true, false, true}; fmt.Sprint(allowed) != fmt.Sprint(want) {
		t.Fatalf("allowed = %v, want %v", allowed, want)
	}
	if r.next != 0 {
		t.Fatalf("rotation at %d after one probe, want 0", r.next)
	}

	// Arms the deadline gate already masked stay masked and are not
	// counted as elided.
	allowed = []bool{true, true, false, true, true}
	if got := r.maskProbe(allowed); got != 2 {
		t.Fatalf("elided %d arms, want 2", got)
	}
	if want := []bool{true, true, false, false, false}; fmt.Sprint(allowed) != fmt.Sprint(want) {
		t.Fatalf("allowed = %v, want %v", allowed, want)
	}
}
