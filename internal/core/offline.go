package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// OfflineEngine implements AdaEdge's offline mode (paper §IV-C2): the edge
// node has no egress link, so ingested data must keep evolving within the
// storage budget. Segments are first compressed losslessly; when usage
// crosses the recoding threshold θ, the least-recently-used segments are
// recoded to roughly half their size, with a per-ratio-range bandit pool
// choosing the lossy codec that best preserves the workload target.
//
// Concurrency contract: Ingest (and Query/QuerySegment, which reorder the
// recoding policy) must run on a single goroutine at a time. Stats,
// Snapshot, Clock, Storage and Energy are safe to poll concurrently with
// ingestion (see DESIGN.md §7).
type OfflineEngine struct {
	cfg  Config
	reg  *compress.Registry
	eval *Evaluator

	losslessNames []string
	lossyNames    []string
	losslessMAB   bandit.Policy
	lossyPool     *bandit.Pool

	storage *sim.Storage
	pool    *store.Pool
	clock   *sim.Clock

	nextID       uint64
	recodeBudget float64 // virtual seconds available to the recoder
	energy       *EnergyMeter
	costFn       func(op, codec string, points int) float64

	// om caches the obs handles; nil when Config.Obs is unset. Events are
	// emitted on the ingest goroutine only (see internal/core/obs.go).
	om *offlineMetrics

	// Ingest-goroutine-only decode/mask scratch, reused across recodes so
	// the steady-state recoding loop stops allocating per victim. Each
	// slice backs exactly one concurrently-live decode (see the call
	// sites); none of them escapes the engine.
	armMask   []bool
	recodeDec []float64 // recodeEntry's shared victim decode
	scoreDec  []float64 // scoreRecode's candidate decode
	scoreRaw  []float64 // scoreRecode's fallback reference decode

	// statsMu guards stats and accLoss so Stats/Snapshot can be polled
	// while another goroutine (e.g. an OfflineRunner worker) ingests.
	// Ingest itself stays single-goroutine; see the type comment.
	statsMu sync.Mutex
	accLoss accLossCache // guarded by statsMu
	stats   OfflineStats // guarded by statsMu
}

// OfflineStats aggregates engine-level outcomes.
type OfflineStats struct {
	// SegmentsIngested counts ingested segments.
	SegmentsIngested int
	// Recodes counts recoding operations.
	Recodes int
	// VirtualRecodes counts recodes that used the same-codec virtual
	// decompression path.
	VirtualRecodes int
	// Fallbacks counts RRD-sample last-resort recodes.
	Fallbacks int
	// RecodeSkips counts recodes deferred for lack of CPU budget.
	RecodeSkips int
	// LosslessUse / LossyUse count codec selections.
	LosslessUse, LossyUse map[string]int
}

// Snapshot is one point of the space/accuracy time series the paper's
// Figs 12–14 plot.
type Snapshot struct {
	// Seconds is the virtual ingestion time.
	Seconds float64
	// SpaceUtilization is used/capacity.
	SpaceUtilization float64
	// MeanAccuracyLoss averages the cached per-segment workload accuracy
	// loss over all stored segments (lossless segments contribute 0).
	MeanAccuracyLoss float64
	// Segments is the pool size.
	Segments int
}

// NewOfflineEngine builds the engine.
func NewOfflineEngine(cfg Config) (*OfflineEngine, error) {
	cfg = cfg.withDefaults(false)
	if err := validatePolicy(cfg); err != nil {
		return nil, err
	}
	if cfg.StorageBytes <= 0 {
		return nil, fmt.Errorf("core: offline mode requires StorageBytes")
	}
	eval, err := NewEvaluator(cfg.Objective)
	if err != nil {
		return nil, err
	}
	if eval.NeedsAccuracy() {
		cfg.KeepEvalRaw = true
	}
	e := &OfflineEngine{
		cfg:           cfg,
		reg:           cfg.Registry,
		eval:          eval,
		losslessNames: armNames(cfg.LosslessArms, cfg.Registry.Lossless()),
		lossyNames:    armNames(cfg.LossyArms, cfg.Registry.Lossy()),
		storage:       sim.NewStorage(cfg.StorageBytes, cfg.StorageThreshold),
		pool:          store.NewPool(cfg.Policy),
		clock:         sim.NewClock(cfg.IngestRate),
		stats: OfflineStats{
			LosslessUse: make(map[string]int),
			LossyUse:    make(map[string]int),
		},
	}
	e.losslessMAB = newPolicy(cfg, len(e.losslessNames), 303, "bandit.offline.lossless")
	e.om = newOfflineMetrics(cfg.Obs)
	factory := func(arms int, bc bandit.Config) bandit.Policy {
		return buildPolicy(cfg, arms, bc)
	}
	// The pool stamps each ratio-range instance's Name with its bucket
	// index, so trace events read "bandit.offline.lossy[2]" etc.
	bc := banditConfig(cfg, 404, "bandit.offline.lossy")
	bounds := []float64(nil) // default per-ratio-range pool
	if cfg.SingleLossyMAB {
		bounds = []float64{} // one bucket: the ablation configuration
	}
	e.lossyPool = bandit.NewPool(len(e.lossyNames), bc, bounds, factory)
	e.costFn = cfg.CodecCost
	if e.costFn == nil {
		e.costFn = DefaultCodecCost
	}
	if cfg.DeviceWatts > 0 {
		e.energy = NewEnergyMeter(cfg.DeviceWatts, cfg.EnergyBudgetJoules)
	}
	return e, nil
}

// Energy exposes the engine's energy meter (nil when metering is off).
func (e *OfflineEngine) Energy() *EnergyMeter { return e.energy }

// Clock exposes the virtual ingestion clock.
func (e *OfflineEngine) Clock() *sim.Clock { return e.clock }

// Storage exposes the storage budget.
func (e *OfflineEngine) Storage() *sim.Storage { return e.storage }

// Stats returns a copy of the engine statistics. Safe to call while
// another goroutine ingests; the returned use maps are private copies.
func (e *OfflineEngine) Stats() OfflineStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	out := e.stats
	out.LosslessUse = make(map[string]int, len(e.stats.LosslessUse))
	for k, v := range e.stats.LosslessUse {
		out.LosslessUse[k] = v
	}
	out.LossyUse = make(map[string]int, len(e.stats.LossyUse))
	for k, v := range e.stats.LossyUse {
		out.LossyUse[k] = v
	}
	return out
}

// mutStats applies one statistics mutation under the stats lock.
func (e *OfflineEngine) mutStats(fn func(*OfflineStats)) {
	e.statsMu.Lock()
	fn(&e.stats)
	e.statsMu.Unlock()
}

// Ingest compresses and stores one segment, recoding older segments as
// needed to stay inside the budget. It returns sim.ErrBudgetExceeded when
// even maximal recoding (or a starved recoder, under RecodeBudget) cannot
// make room — the hard failure the paper's Fig 14 baselines hit.
//
// adaedge:decision-goroutine
func (e *OfflineEngine) Ingest(values []float64, label int) error {
	if len(values) == 0 {
		return compress.ErrEmptyInput
	}
	if e.energy.Exhausted() {
		return ErrEnergyExhausted
	}
	e.clock.Advance(len(values))
	if e.cfg.RecodeBudget {
		e.recodeBudget += float64(len(values)) / e.cfg.IngestRate
	}
	e.mutStats(func(s *OfflineStats) { s.SegmentsIngested++ })

	id := e.nextID
	e.nextID++

	// Lossless selection: minimize compressed size (paper §IV-C2).
	arm := e.losslessMAB.Select(nil)
	name := e.losslessNames[arm]
	codec, _ := e.reg.Lookup(name)
	enc, err := codec.Compress(values)
	if err != nil {
		e.losslessMAB.Update(arm, 0)
		return err
	}
	e.losslessMAB.Update(arm, 1-minf(enc.Ratio(), 1))
	e.mutStats(func(s *OfflineStats) { s.LosslessUse[name]++ })
	e.energy.Charge(e.costFn("encode", name, len(values)))

	end := e.clock.Seconds()
	entry := &store.Entry{
		ID: id, Enc: enc, Lossless: true, Label: label,
		StartSec: end - float64(len(values))/e.cfg.IngestRate,
		EndSec:   end,
	}
	if e.cfg.KeepEvalRaw {
		entry.EvalRaw = cloneValues(values)
	}

	// Make room, then store.
	if err := e.makeRoom(int64(enc.Size())); err != nil {
		return err
	}
	if err := e.storage.Alloc(int64(enc.Size())); err != nil {
		return err
	}
	e.pool.Put(entry)
	e.om.ingest(id, name, enc.Ratio(), e.storage.Utilization(), e.pool.Len())

	// Threshold-triggered cascade recoding (paper Fig 4).
	for e.storage.OverThreshold() {
		if !e.recodeOne() {
			break
		}
	}
	return nil
}

// makeRoom recodes until need bytes fit under capacity.
//
// adaedge:decision-goroutine
func (e *OfflineEngine) makeRoom(need int64) error {
	for e.storage.Used()+need > e.storage.Capacity() {
		if !e.recodeOne() {
			return sim.ErrBudgetExceeded
		}
	}
	return nil
}

// recodeOne compresses the policy's victim more aggressively. It returns
// false when no segment can be shrunk further or the recoder is out of
// CPU budget.
//
// adaedge:decision-goroutine
func (e *OfflineEngine) recodeOne() bool {
	if e.cfg.RecodeBudget && e.recodeBudget <= 0 {
		e.mutStats(func(s *OfflineStats) { s.RecodeSkips++ })
		e.om.recodeSkip()
		return false
	}
	tried := 0
	for tried <= e.pool.Len() {
		victim, ok := e.pool.Victim()
		if !ok {
			return false
		}
		tried++
		shrunk, err := e.recodeEntry(victim)
		if err != nil || !shrunk {
			// Demote the unshrinkable victim and try the next one.
			e.pool.Skip(victim.ID)
			continue
		}
		return true
	}
	return false
}

// recodeEntry halves the victim's size, preferring the virtual
// decompression path, and feeds the reward back to the ratio range's
// bandit instance. The wall-clock read only seeds recodeCost's fallback
// timing, never a decision.
//
// adaedge:decision-goroutine
// adaedge:perf-timer
func (e *OfflineEngine) recodeEntry(victim *store.Entry) (bool, error) {
	oldSize := victim.Enc.Size()
	current := victim.Enc.Ratio()
	target := current / 2 // paper: "the size is reduced to half"

	start := time.Now()

	// Determine raw values for feasibility checks and (if needed) full
	// recompression. EvalRaw is measurement ground truth; the recode
	// itself must work from the stored representation, so we decode.
	var values []float64
	decode := func() ([]float64, error) {
		if values != nil {
			return values, nil
		}
		v, err := e.reg.DecompressInto(e.recodeDec[:0], victim.Enc)
		if err != nil {
			return nil, err
		}
		e.recodeDec = v
		values = v
		return v, nil
	}

	mab := e.lossyPool.For(target)
	if cap(e.armMask) < len(e.lossyNames) {
		e.armMask = make([]bool, len(e.lossyNames))
	}
	allowed := e.armMask[:len(e.lossyNames)]
	for i := range allowed {
		allowed[i] = false
	}
	anyAllowed := false
	ref := victim.EvalRaw
	if ref == nil {
		v, err := decode()
		if err != nil {
			return false, err
		}
		ref = v
	}
	for i, name := range e.lossyNames {
		c, _ := e.reg.Lookup(name)
		if c.(compress.LossyCodec).MinRatio(ref) <= target {
			allowed[i] = true
			anyAllowed = true
		}
	}

	var newEnc compress.Encoded
	var codecName string
	virtual := false
	switch {
	case anyAllowed:
		arm := mab.Select(allowed)
		codecName = e.lossyNames[arm]
		c, _ := e.reg.Lookup(codecName)
		lc := c.(compress.LossyCodec)
		var err error
		if rec, ok := lc.(compress.Recoder); ok && victim.Enc.Codec == codecName {
			// Virtual decompression: same-codec direct recode (§IV-E).
			newEnc, err = rec.Recode(victim.Enc, target)
			virtual = true
		} else {
			var v []float64
			if v, err = decode(); err == nil {
				newEnc, err = lc.CompressRatio(v, target)
			}
		}
		if err != nil {
			mab.Update(arm, 0)
			return false, err
		}
		if newEnc.Size() >= oldSize {
			// The codec could not actually shrink the segment; tell the
			// bandit and give up on this victim for now.
			mab.Update(arm, 0)
			return false, nil
		}
		reward, accLoss, err := e.scoreRecode(victim, newEnc)
		if err != nil {
			mab.Update(arm, 0)
			return false, err
		}
		mab.Update(arm, reward)
		oldCodec := victim.Enc.Codec
		e.finishRecode(victim, newEnc, oldSize, accLoss, virtual, e.recodeCost(start, oldCodec, codecName, victim.Enc.N, virtual))
		e.mutStats(func(s *OfflineStats) { s.LossyUse[codecName]++ })
		e.om.recoded(victim.ID, codecName, target, newEnc.Ratio(), reward, e.storage.Utilization(), virtual, false, start)
		return true, nil

	default:
		// Last resort: RRD-sample at whatever ratio it can still reach
		// (paper Fig 12: "BUFF-lossy fails and falls back to RRD-sample").
		c, ok := e.reg.Lookup("rrdsample")
		if !ok {
			return false, ErrNoFeasibleCodec
		}
		lc := c.(compress.LossyCodec)
		fallbackTarget := target
		if mr := lc.MinRatio(ref); mr > fallbackTarget {
			fallbackTarget = mr
		}
		var err error
		if rec, ok := lc.(compress.Recoder); ok && victim.Enc.Codec == lc.Name() {
			newEnc, err = rec.Recode(victim.Enc, fallbackTarget)
			virtual = true
		} else {
			var v []float64
			if v, err = decode(); err == nil {
				newEnc, err = lc.CompressRatio(v, fallbackTarget)
			}
		}
		if err != nil {
			return false, err
		}
		if newEnc.Size() >= oldSize {
			return false, nil
		}
		_, accLoss, err := e.scoreRecode(victim, newEnc)
		if err != nil {
			return false, err
		}
		e.finishRecode(victim, newEnc, oldSize, accLoss, virtual, e.recodeCost(start, victim.Enc.Codec, lc.Name(), victim.Enc.N, virtual))
		e.mutStats(func(s *OfflineStats) {
			s.Fallbacks++
			s.LossyUse[lc.Name()]++
		})
		e.om.recoded(victim.ID, lc.Name(), fallbackTarget, newEnc.Ratio(), 0, e.storage.Utilization(), virtual, true, start)
		return true, nil
	}
}

// scoreRecode evaluates the recoded representation against the ground
// truth and returns (bandit reward, accuracy loss).
//
// adaedge:decision-goroutine
func (e *OfflineEngine) scoreRecode(victim *store.Entry, newEnc compress.Encoded) (reward, accLoss float64, err error) {
	decoded, err := e.reg.DecompressInto(e.scoreDec[:0], newEnc)
	if err != nil {
		return 0, 0, err
	}
	e.scoreDec = decoded
	raw := victim.EvalRaw
	if raw == nil {
		// Without retained ground truth, score against the previous
		// representation (best available reference).
		raw, err = e.reg.DecompressInto(e.scoreRaw[:0], victim.Enc)
		if err != nil {
			return 0, 0, err
		}
		e.scoreRaw = raw
	}
	obs := Observation{Raw: raw, Decoded: decoded, CompressedBytes: newEnc.Size()}
	return e.eval.Reward(obs), e.eval.AccuracyLoss(obs), nil
}

// recodeCost returns the virtual CPU seconds one recode consumed: the
// deterministic model when configured, wall time otherwise. Virtual
// (same-codec) recodes skip the decode cost — the point of §IV-E.
//
// adaedge:decision-goroutine
// adaedge:perf-timer
func (e *OfflineEngine) recodeCost(start time.Time, oldCodec, newCodec string, points int, virtual bool) float64 {
	// Energy is always charged on the deterministic model so the meter
	// stays reproducible even when the recoder budget uses wall time.
	energyCost := e.costFn("encode", newCodec, points)
	if !virtual {
		energyCost += e.costFn("decode", oldCodec, points)
	}
	e.energy.Charge(energyCost)

	if e.cfg.CodecCost == nil {
		return time.Since(start).Seconds()
	}
	cost := e.cfg.CodecCost("encode", newCodec, points)
	if !virtual {
		cost += e.cfg.CodecCost("decode", oldCodec, points)
	}
	return cost
}

// finishRecode commits the new representation, storage accounting, CPU
// budget accounting, and LRU repositioning.
//
// adaedge:decision-goroutine
func (e *OfflineEngine) finishRecode(victim *store.Entry, newEnc compress.Encoded, oldSize int, accLoss float64, virtual bool, cost float64) {
	_ = e.storage.Resize(int64(newEnc.Size() - oldSize)) // shrink never fails
	victim.Enc = newEnc
	victim.Lossless = false
	victim.Level++
	e.pool.Touch(victim.ID)
	e.setAccLoss(victim.ID, accLoss)
	e.mutStats(func(s *OfflineStats) {
		s.Recodes++
		if virtual {
			s.VirtualRecodes++
		}
	})
	if e.cfg.RecodeBudget {
		e.recodeBudget -= cost * e.cfg.CPUScale
	}
}

// accLoss bookkeeping: cached per segment, averaged for snapshots.
type accLossCache map[uint64]float64

func (e *OfflineEngine) setAccLoss(id uint64, loss float64) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	if e.accLoss == nil {
		e.accLoss = make(accLossCache)
	}
	e.accLoss[id] = loss
}

// Snapshot captures the current space/accuracy state. Losses are summed
// in segment-id order so the result is bit-for-bit reproducible.
func (e *OfflineEngine) Snapshot() Snapshot {
	var ids []uint64
	e.pool.Each(func(entry *store.Entry) { ids = append(ids, entry.ID) })
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var sum float64
	e.statsMu.Lock()
	for _, id := range ids {
		sum += e.accLoss[id]
	}
	e.statsMu.Unlock()
	n := len(ids)
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	return Snapshot{
		Seconds:          e.clock.Seconds(),
		SpaceUtilization: e.storage.Utilization(),
		MeanAccuracyLoss: mean,
		Segments:         n,
	}
}

// Query runs an aggregation over every stored segment (decompressing as
// needed); query access moves segments to the MRU end of the policy list,
// protecting them from recoding (paper §IV-F).
func (e *OfflineEngine) Query(agg query.Agg) (float64, error) {
	var all []float64
	var ids []uint64
	e.pool.Each(func(entry *store.Entry) { ids = append(ids, entry.ID) })
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		entry, ok := e.pool.Get(id) // records the access
		if !ok {
			continue
		}
		v, err := e.reg.Decompress(entry.Enc)
		if err != nil {
			return 0, err
		}
		all = append(all, v...)
	}
	return query.Apply(agg, all)
}

// QuerySegment decompresses one segment by id, recording the access.
func (e *OfflineEngine) QuerySegment(id uint64) ([]float64, error) {
	entry, ok := e.pool.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown segment %d", id)
	}
	return e.reg.Decompress(entry.Enc)
}

// Segments returns the number of stored segments.
func (e *OfflineEngine) Segments() int { return e.pool.Len() }

// EachEntry iterates the compressed pool (for experiment reporting).
func (e *OfflineEngine) EachEntry(fn func(*store.Entry)) { e.pool.Each(fn) }
