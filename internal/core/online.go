package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/sim"
)

// OnlineEngine implements AdaEdge's online mode (paper §IV-C1): the edge
// node is continuously connected and every segment must leave through a
// link of capacity B while being ingested at rate I, yielding the target
// compression ratio R = B/(64×I). Lossless compression is preferred; when
// R is infeasible losslessly, a dedicated lossy-selection bandit takes
// over, optimizing the workload target.
//
// Concurrency contract: Process mutates bandit and accounting state and
// must be called from a single goroutine at a time (the "decision
// goroutine"). Stats, LossyEstimates and LosslessEstimates may be polled
// concurrently with processing, and Degrade may be called from any
// goroutine. Retarget/RetargetRatio must not race with in-flight
// processing.
type OnlineEngine struct {
	cfg         Config
	reg         *compress.Registry
	eval        *Evaluator
	targetRatio float64

	losslessNames []string
	lossyNames    []string
	losslessMAB   bandit.Policy
	lossyMAB      bandit.Policy

	nextID        uint64
	losslessFails int
	sinceProbe    int
	// probe plans lossless re-probes from each arm's last achieved ratio.
	probe losslessRecord
	// losslessViable is read and written by the decision goroutine, but a
	// loosening Degrade also sets it from the uplink's spool-watcher
	// goroutine, hence atomic.
	losslessViable atomic.Bool
	// pressureBits holds the uplink-pressure throttle in (0,1] as float64
	// bits. The resilient uplink's spool watcher calls Degrade from its
	// own goroutine, so the throttle must be readable at decision time
	// without racing the decision goroutine — hence atomic rather than a
	// field the concurrency contract would forbid touching mid-flight.
	pressureBits atomic.Uint64

	energy *EnergyMeter
	costFn func(op, codec string, points int) float64

	// om caches the obs handles; nil when Config.Obs is unset. All event
	// emission happens on the decision goroutine (see internal/core/obs.go).
	om *onlineMetrics

	// qo is the decision-quality oracle; nil when Config.Quality is unset
	// (see internal/core/quality.go).
	qo *qualityOracle

	// ctx is the contextual prediction/deadline layer; nil unless the
	// config selects the "contextual" policy or sets a Deadline (see
	// internal/core/contextual.go).
	ctx *contextualCtl

	// scr holds decision-goroutine-only scratch (arm masks, parked decode
	// buffers) reused across segments.
	scr engineScratch

	statsMu sync.Mutex
	stats   OnlineStats // guarded by statsMu
}

// OnlineStats aggregates stream-level outcomes.
type OnlineStats struct {
	// Segments is the number processed.
	Segments int
	// LosslessSegments and LossySegments partition them.
	LosslessSegments, LossySegments int
	// TotalRawBytes and TotalCompressedBytes accumulate sizes.
	TotalRawBytes, TotalCompressedBytes int64
	// AccuracyLossSum accumulates per-segment accuracy loss.
	AccuracyLossSum float64
	// BandwidthViolations counts segments whose egress exceeded the link
	// capacity at the configured ingest rate.
	BandwidthViolations int
	// CodecUse counts selections per codec.
	CodecUse map[string]int
	// DeadlineRejects counts arms the deadline gate masked out of
	// selection; DeadlineFallbacks counts segments forced onto the
	// fastest predicted arm because no feasible arm remained;
	// DeadlineMisses counts segments whose selected arm's cost-model
	// latency exceeded the deadline anyway. All 0 when Config.Deadline
	// is unset.
	DeadlineRejects, DeadlineFallbacks, DeadlineMisses int
	// DeadlineViolations counts selections of a predicted-infeasible arm
	// outside the explicit fallback path. The gate's invariant is that
	// this stays 0; tests and the BENCH deadline cell assert it.
	DeadlineViolations int
}

// MeanAccuracyLoss returns the average per-segment workload accuracy loss.
func (s OnlineStats) MeanAccuracyLoss() float64 {
	if s.Segments == 0 {
		return 0
	}
	return s.AccuracyLossSum / float64(s.Segments)
}

// OverallRatio returns total compressed bytes over total raw bytes.
func (s OnlineStats) OverallRatio() float64 {
	if s.TotalRawBytes == 0 {
		return 0
	}
	return float64(s.TotalCompressedBytes) / float64(s.TotalRawBytes)
}

// NewOnlineEngine builds the engine. The target ratio comes from
// cfg.TargetRatioOverride if positive, else from R = B/(64×I).
func NewOnlineEngine(cfg Config) (*OnlineEngine, error) {
	cfg = cfg.withDefaults(true)
	if err := validatePolicy(cfg); err != nil {
		return nil, err
	}
	eval, err := NewEvaluator(cfg.Objective)
	if err != nil {
		return nil, err
	}
	target := cfg.TargetRatioOverride
	if target <= 0 {
		if cfg.Bandwidth <= 0 {
			return nil, fmt.Errorf("core: online mode requires Bandwidth or TargetRatioOverride")
		}
		target = sim.TargetRatio(cfg.IngestRate, cfg.Bandwidth)
	}
	if target > 1 {
		target = 1
	}
	e := &OnlineEngine{
		cfg:           cfg,
		reg:           cfg.Registry,
		eval:          eval,
		targetRatio:   target,
		losslessNames: armNames(cfg.LosslessArms, cfg.Registry.Lossless()),
		lossyNames:    armNames(cfg.LossyArms, cfg.Registry.Lossy()),
		stats:         OnlineStats{CodecUse: make(map[string]int)},
	}
	e.probe = newLosslessRecord(len(e.losslessNames))
	e.losslessViable.Store(true)
	e.pressureBits.Store(math.Float64bits(1))
	e.losslessMAB = newPolicy(cfg, len(e.losslessNames), 101, "bandit.online.lossless")
	e.lossyMAB = newPolicy(cfg, len(e.lossyNames), 202, "bandit.online.lossy")
	e.om = newOnlineMetrics(cfg.Obs, cfg.DeviceID)
	e.costFn = cfg.CodecCost
	if e.costFn == nil {
		e.costFn = DefaultCodecCost
	}
	e.ctx = newContextualCtl(cfg, e)
	if cfg.DeviceWatts > 0 {
		e.energy = NewEnergyMeter(cfg.DeviceWatts, cfg.EnergyBudgetJoules)
	}
	e.qo, err = newQualityOracle(cfg)
	if err != nil {
		return nil, err
	}
	if e.qo != nil {
		e.qo.tracker.SetArmSource(e.armStats)
	}
	return e, nil
}

// Energy exposes the engine's energy meter (nil when metering is off).
func (e *OnlineEngine) Energy() *EnergyMeter { return e.energy }

// TargetRatio returns the constraint-derived ratio, before any uplink
// pressure throttle.
func (e *OnlineEngine) TargetRatio() float64 { return e.targetRatio }

// Pressure returns the current uplink-pressure throttle in (0,1].
func (e *OnlineEngine) Pressure() float64 {
	return math.Float64frombits(e.pressureBits.Load())
}

// EffectiveTarget is the ratio the decision path actually compresses
// toward: TargetRatio × Pressure, clamped to (0,1].
func (e *OnlineEngine) EffectiveTarget() float64 {
	t := e.targetRatio * e.Pressure()
	if t > 1 {
		t = 1
	}
	return t
}

// Degrade sets the uplink-pressure throttle: factor in (0,1) tightens
// the effective target ratio (segments shrink so a congested or spooling
// uplink drains instead of growing without bound), 1 restores it. Values
// outside (0,1] restore. Unlike Retarget, Degrade is safe from any
// goroutine — the resilient uplink calls it from its spool watcher while
// the decision goroutine is processing.
func (e *OnlineEngine) Degrade(factor float64) {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	old := math.Float64frombits(e.pressureBits.Swap(math.Float64bits(factor)))
	if factor > old {
		// A looser target may make lossless feasible again; re-probe.
		e.losslessViable.Store(true)
	}
}

// Retarget recomputes the target compression ratio for a new link
// capacity — the paper's variable-bandwidth case (§IV-A2). Lossless
// viability is re-probed from scratch because a looser target may make
// lossless feasible again; the bandit estimates are kept (data statistics
// did not change, only the constraint).
func (e *OnlineEngine) Retarget(bw sim.Bandwidth) {
	e.cfg.Bandwidth = bw
	target := sim.TargetRatio(e.cfg.IngestRate, bw)
	if target > 1 {
		target = 1
	}
	e.targetRatio = target
	e.losslessViable.Store(true)
	e.losslessFails = 0
	e.sinceProbe = 0
}

// RetargetRatio fixes the target ratio directly.
func (e *OnlineEngine) RetargetRatio(ratio float64) {
	if ratio > 1 {
		ratio = 1
	}
	if ratio <= 0 {
		return
	}
	e.targetRatio = ratio
	e.losslessViable.Store(true)
	e.losslessFails = 0
	e.sinceProbe = 0
}

// Stats returns a copy of the stream statistics. Safe to call while
// another goroutine is processing segments; the returned CodecUse map is
// a private copy.
func (e *OnlineEngine) Stats() OnlineStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	out := e.stats
	out.CodecUse = make(map[string]int, len(e.stats.CodecUse))
	for k, v := range e.stats.CodecUse {
		out.CodecUse[k] = v
	}
	return out
}

// ratioSlack tolerates rounding in codec size targeting.
const ratioSlack = 1e-9

// Process compresses one segment (a fixed-size array of points, paper
// §IV-C) and returns the outcome. The caller transmits Result-associated
// bytes; the engine only accounts for them.
//
// adaedge:decision-goroutine
func (e *OnlineEngine) Process(values []float64, label int) (Result, compress.Encoded, error) {
	if len(values) == 0 {
		return Result{}, compress.Encoded{}, compress.ErrEmptyInput
	}
	if e.energy.Exhausted() {
		return Result{}, compress.Encoded{}, ErrEnergyExhausted
	}
	// The parked decode buffer (the lossy winner's) is safe to recycle
	// only after the oracle's observe pass; flush on every exit.
	defer e.scr.flushDec()
	id := e.nextID
	e.nextID++
	// One consistent target per segment, even if a concurrent Degrade
	// lands mid-decision.
	target := e.EffectiveTarget()
	// Span lifecycle: trace is 0 when spans are disabled, turning every
	// stage emission below into a single branch.
	trace := e.om.spanBegin(id, len(values))
	// Contextual layer: features, per-arm predictions, policy priors and
	// deadline feasibility for this segment (no-op when disabled).
	e.ctx.begin(values)
	if e.ctx != nil {
		e.om.spanFeatures(trace)
	}
	// On oracle-sampled decisions, capture the trials this decision
	// consumes so the counterfactual evaluation reuses instead of
	// recomputing them. Nil (the common case) keeps every note a no-op.
	var trials *decisionTrials
	if e.qo.sampled(id) {
		trials = newDecisionTrials()
	}

	// Phase 1: lossless, preferred whenever it can meet R (paper: "We
	// choose the best lossless compression by default").
	if e.tryLossless(target) {
		res, enc, ok := e.processLossless(id, trace, values, target, trials)
		if ok {
			e.account(res)
			e.om.decision(res, target, e.Pressure())
			e.qo.observe(e, res, values, trials, target)
			return res, enc, nil
		}
	}

	// Phase 2: lossy selection toward the target ratio.
	res, enc, err := e.processLossy(id, trace, values, target, trials)
	if err != nil {
		return Result{}, compress.Encoded{}, err
	}
	e.account(res)
	e.om.decision(res, target, e.Pressure())
	e.qo.observe(e, res, values, trials, target)
	return res, enc, nil
}

// tryLossless decides whether to attempt lossless compression this
// segment. After repeated infeasibility the engine mostly skips the
// attempt, re-probing periodically so it can recover if the data becomes
// more compressible.
//
// adaedge:decision-goroutine
func (e *OnlineEngine) tryLossless(target float64) bool {
	if target >= 1 {
		return true
	}
	if e.losslessViable.Load() {
		return true
	}
	e.sinceProbe++
	if e.sinceProbe >= e.cfg.LosslessProbeInterval {
		e.sinceProbe = 0
		return true
	}
	return false
}

// processLossless attempts lossless compression under the target ratio.
// Infeasibility is a property of the *best* lossless codec, not of one
// exploratory pick, so on a miss the engine retries the remaining arms
// before concluding the segment cannot be handled losslessly. A re-probe
// after lossless was found infeasible only asks whether it became
// feasible again, so it retries only the arms losslessRecord.maskProbe
// keeps.
//
// adaedge:decision-goroutine
func (e *OnlineEngine) processLossless(id, trace uint64, values []float64, target float64, trials *decisionTrials) (Result, compress.Encoded, bool) {
	allowed := e.scr.boolMask(len(e.losslessNames), true)
	if !e.ctx.maskLossless(allowed) {
		// Every lossless arm misses the predicted deadline; the lossy
		// phase is the degradation path, so skip without recording a
		// viability failure (the data's compressibility did not change).
		return Result{}, compress.Encoded{}, false
	}
	if target < 1 && !e.losslessViable.Load() {
		e.om.probeElided(e.probe.maskProbe(allowed))
	}
	for remaining := len(e.losslessNames); remaining > 0; remaining-- {
		arm := e.losslessMAB.Select(allowed)
		if arm < 0 {
			break
		}
		allowed[arm] = false
		name := e.losslessNames[arm]
		// Every attempt costs energy, including ones the target rejects;
		// the same cost-model duration advances the span's virtual time.
		cost := e.costFn("encode", name, len(values))
		e.energy.Charge(cost)
		codec, _ := e.reg.Lookup(name)
		t := runLosslessTrial(codec, values)
		trials.noteLossless(arm, t)
		e.om.trial(name, t.dur)
		e.om.spanTrial(trace, arm, name, cost)
		// Trials that lose are recycled on the spot — unless the oracle
		// sampled this decision, in which case it reads the noted trials
		// after this loop and the buffers must outlive it.
		recycle := trials == nil
		e.probe.note(arm, t)
		if t.err != nil {
			e.losslessMAB.Update(arm, 0)
			continue
		}
		ratio := t.enc.Ratio()
		// Lossless selection optimizes compressed size regardless of the
		// workload target: task accuracy is unaffected (paper §IV-C1).
		e.losslessMAB.Update(arm, 1-minf(ratio, 1))
		e.ctx.observeLossless(arm, len(values), ratio, 1-minf(ratio, 1))
		if target < 1 && ratio > target+ratioSlack {
			if recycle {
				t.release()
			}
			continue
		}
		e.losslessFails = 0
		e.losslessViable.Store(true)
		e.ctx.chosen(id, arm, len(values), false, ratio)
		e.om.spanSelect(trace, arm, name)
		e.om.spanEncode(trace, arm, name, ratio)
		res := Result{
			SegmentID: id, Codec: name, Lossy: false, Ratio: ratio,
			Reward: 1 - minf(ratio, 1), Duration: t.dur,
		}
		enc := t.enc
		// The winning encoding escapes with the return; park its wrapper
		// for RecycleEncoded.
		t.handOff()
		return res, enc, true
	}
	e.losslessFails++
	if e.losslessFails >= 2 {
		e.losslessViable.Store(false)
	}
	return Result{}, compress.Encoded{}, false
}

// processLossy runs the lossy-selection phase toward the target ratio.
//
// adaedge:decision-goroutine
func (e *OnlineEngine) processLossy(id, trace uint64, values []float64, target float64, trials *decisionTrials) (Result, compress.Encoded, error) {
	allowed := e.scr.boolMask(len(e.lossyNames), false)
	feasible := false
	for i, name := range e.lossyNames {
		c, _ := e.reg.Lookup(name)
		if c.(compress.LossyCodec).MinRatio(values) <= target {
			allowed[i] = true
			feasible = true
		}
	}
	if !feasible {
		e.om.noFeasible(id, target, e.Pressure())
		return Result{}, compress.Encoded{}, ErrNoFeasibleCodec
	}
	// Deadline gate over the ratio-feasible arms; guarantees at least one
	// arm stays allowed (the fastest predicted one, as a fallback).
	e.ctx.applyDeadline(id, allowed)
	arm := e.lossyMAB.Select(allowed)
	name := e.lossyNames[arm]
	cost := e.costFn("encode", name, len(values))
	e.energy.Charge(cost)

	codec, _ := e.reg.Lookup(name)
	t := runLossyTrial(codec.(compress.LossyCodec), values, target)
	trials.noteLossy(arm, t)
	e.om.trial(name, t.dur)
	e.om.spanTrial(trace, arm, name, cost)
	if t.err != nil {
		e.lossyMAB.Update(arm, 0)
		return Result{}, compress.Encoded{}, fmt.Errorf("core: %s at ratio %.3f: %w", name, target, t.err)
	}
	if t.decErr != nil {
		e.lossyMAB.Update(arm, 0)
		return Result{}, compress.Encoded{}, t.decErr
	}
	// The decode slice feeds the observation below and, on sampled
	// decisions, the oracle's observe pass; Process releases it at the
	// very end.
	e.scr.parkDec(t.dec)
	obs := Observation{Raw: values, Decoded: t.decoded, CompressedBytes: t.enc.Size(), Duration: t.dur}
	reward := e.eval.Reward(obs)
	e.lossyMAB.Update(arm, reward)
	e.ctx.observeLossy(arm, len(values), t.enc.Ratio(), reward)
	e.ctx.chosen(id, arm, len(values), true, t.enc.Ratio())
	e.om.spanSelect(trace, arm, name)
	e.om.spanEncode(trace, arm, name, t.enc.Ratio())
	return Result{
		SegmentID: id, Codec: name, Lossy: true, Ratio: t.enc.Ratio(),
		Reward: reward, AccuracyLoss: e.eval.AccuracyLoss(obs), Duration: t.dur,
	}, t.enc, nil
}

// losslessRecord is the state lossless re-probes plan from: each lossless
// arm's last achieved ratio, updated on every lossless trial the decision
// path runs (oracle shadow trials excluded), plus the arm the rotation
// re-measures next. Decision goroutine only.
type losslessRecord struct {
	// ratio is the last achieved ratio per arm: unrunRatio before the
	// arm's first trial, +Inf after a failed encode.
	ratio []float64
	// next is the rotating arm the next re-probe keeps.
	next int
}

// unrunRatio marks an arm with no trial yet; real ratios are positive.
const unrunRatio = -1

func newLosslessRecord(arms int) losslessRecord {
	r := losslessRecord{ratio: make([]float64, arms)}
	for i := range r.ratio {
		r.ratio[i] = unrunRatio
	}
	return r
}

// note records one lossless trial's outcome.
//
// adaedge:decision-goroutine
func (r *losslessRecord) note(arm int, t losslessTrial) {
	if t.err != nil {
		r.ratio[arm] = math.Inf(1)
		return
	}
	r.ratio[arm] = t.enc.Ratio()
}

// maskProbe narrows a re-probe's allowed arms to the ones that can
// answer "does lossless meet the target again?": the arm with the lowest
// recorded ratio, the rotating arm, and every arm never run (cold arms
// are never skipped). Once every arm has run, a failed probe costs at
// most two trials. The rotation advances every probe, so each arm is
// re-measured at least once every len(arms) probes unless the deadline
// gate masks it on its turn — a codec whose ratio improves on new data
// is found within that many probes even if it is not the recorded best.
// It returns how many allowed arms it masked out.
//
// adaedge:decision-goroutine
func (r *losslessRecord) maskProbe(allowed []bool) int {
	if len(r.ratio) == 0 {
		return 0
	}
	best := -1
	for arm, ok := range allowed {
		if ok && r.ratio[arm] != unrunRatio && (best < 0 || r.ratio[arm] < r.ratio[best]) {
			best = arm
		}
	}
	rot := r.next
	r.next = (r.next + 1) % len(r.ratio)
	elided := 0
	for arm, ok := range allowed {
		if !ok || arm == best || arm == rot || r.ratio[arm] == unrunRatio {
			continue
		}
		allowed[arm] = false
		elided++
	}
	return elided
}

// losslessTrial is the outcome of one pure lossless codec attempt. buf is
// the pool wrapper its encode buffer rides in (nil for error trials); see
// scratch.go for the release discipline.
type losslessTrial struct {
	enc compress.Encoded
	err error
	dur time.Duration
	buf *encBuf
}

// runLosslessTrial compresses values with one codec into a pooled buffer.
// Pure: no engine state is read or written, so it can run on any
// goroutine. The timer feeds Result.Duration only, never a decision.
//
// adaedge:perf-timer
func runLosslessTrial(codec compress.Codec, values []float64) losslessTrial {
	eb := getEncBuf()
	start := time.Now()
	enc, err := compress.CompressInto(codec, eb.b, values)
	dur := time.Since(start)
	if err != nil {
		// The buffer's capacity survives a failed attempt; hand it
		// straight back.
		encBufPool.Put(eb)
		return losslessTrial{err: err, dur: dur}
	}
	// Codecs without an Into path (and growth reallocations) return fresh
	// backing arrays; track whatever the encoding actually lives in.
	eb.b = enc.Data
	return losslessTrial{enc: enc, err: nil, dur: dur, buf: eb}
}

// lossyTrial is the outcome of one pure lossy codec attempt at a target
// ratio, including the decode needed for reward evaluation. dec is the
// pool wrapper of the decoded slice (nil when decoding failed).
type lossyTrial struct {
	enc     compress.Encoded
	err     error
	decoded []float64
	decErr  error
	dur     time.Duration
	dec     *decBuf
}

// runLossyTrial compresses values toward ratio and decodes the result
// into a pooled slice. Pure, like runLosslessTrial; the timer feeds
// Result.Duration only.
//
// adaedge:perf-timer
func runLossyTrial(lc compress.LossyCodec, values []float64, ratio float64) lossyTrial {
	start := time.Now()
	enc, err := lc.CompressRatio(values, ratio)
	dur := time.Since(start)
	if err != nil {
		return lossyTrial{err: err, dur: dur}
	}
	db := getDecBuf()
	decoded, decErr := compress.DecompressInto(lc, db.v, enc)
	if decErr != nil {
		decBufPool.Put(db)
		return lossyTrial{enc: enc, decErr: decErr, dur: dur}
	}
	db.v = decoded
	return lossyTrial{enc: enc, decoded: decoded, dur: dur, dec: db}
}

// account folds one decided segment into the stream statistics.
//
// adaedge:decision-goroutine
func (e *OnlineEngine) account(res Result) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats.Segments++
	if res.Lossy {
		e.stats.LossySegments++
	} else {
		e.stats.LosslessSegments++
	}
	raw := int64(8 * e.cfg.SegmentLength)
	e.stats.TotalRawBytes += raw
	e.stats.TotalCompressedBytes += int64(float64(raw) * res.Ratio)
	e.stats.AccuracyLossSum += res.AccuracyLoss
	e.stats.CodecUse[res.Codec]++
	// Egress feasibility: at ingest rate I the per-second egress is
	// I × 8 × ratio bytes.
	if e.cfg.Bandwidth > 0 && !e.cfg.Bandwidth.Carries(e.cfg.IngestRate*8*res.Ratio) {
		e.stats.BandwidthViolations++
		e.om.violation()
	}
	if e.ctx != nil {
		e.stats.DeadlineRejects += e.ctx.segRejects
		if e.ctx.segFallback {
			e.stats.DeadlineFallbacks++
		}
		if e.ctx.segMiss {
			e.stats.DeadlineMisses++
		}
		if e.ctx.segViolation {
			e.stats.DeadlineViolations++
		}
	}
}

// LossyEstimates exposes the lossy bandit's per-codec value estimates
// (diagnostics and experiment reporting).
func (e *OnlineEngine) LossyEstimates() map[string]float64 {
	est := e.lossyMAB.Estimates()
	out := make(map[string]float64, len(est))
	for i, name := range e.lossyNames {
		out[name] = est[i]
	}
	return out
}

// LosslessEstimates exposes the lossless bandit's estimates.
func (e *OnlineEngine) LosslessEstimates() map[string]float64 {
	est := e.losslessMAB.Estimates()
	out := make(map[string]float64, len(est))
	for i, name := range e.losslessNames {
		out[name] = est[i]
	}
	return out
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
