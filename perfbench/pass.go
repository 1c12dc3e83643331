package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/store"
	"repro/internal/transport"
)

// The paper's streaming setting (§V-B): 128-point CBF segments at 4
// decimal digits, ingested at 200,000 points/s, i.e. one segment every
// 640 µs.
const (
	segPoints    = 128
	cbfPrecision = 4
	ingestRate   = 200_000.0
	segInterval  = time.Duration(float64(time.Second) * segPoints / ingestRate)
)

// engineSeed seeds the engines' bandits. It is part of the program's
// configuration, not of its inputs: --seed varies the segments while every
// run decides with the same policy randomness, so runs of different seeds
// measure the same system on different data.
const engineSeed = 1

// drainTimeout turns a hung pass into a failed check instead of a stuck run.
const drainTimeout = 30 * time.Second

// inputs is one workload's seeded input set, generated before any timing
// and handed to the program unchanged by every pass.
type inputs struct {
	seed   int64
	n      int // segments offered per pass
	segs   [][]float64
	labels []int
	// warm and warmLabels are the online workloads' untimed warm-up
	// stream, the same for every seed.
	warm       [][]float64
	warmLabels []int
	// frames and tears are fleet_churn's pre-encoded frames (one per
	// distinct segment) and per-session torn-write offsets (0: none).
	frames []compress.Encoded
	tears  []int
}

// cbfInputs generates n distinct CBF segments from seed.
func cbfInputs(seed int64, n int) *inputs {
	s := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed, Length: segPoints})
	in := &inputs{seed: seed, n: n, segs: make([][]float64, n), labels: make([]int, n)}
	for i := range in.segs {
		in.segs[i], in.labels[i] = s.Next()
	}
	return in
}

// passOpts selects how one pass runs.
type passOpts struct {
	// open paces offers at the ingest rate (open loop); otherwise each
	// segment is offered as soon as the previous one returned.
	open bool
	// traced records spans around the benchmark's calls into each layer.
	traced bool
	// observe attaches the program's own observer (and, online, the
	// decision-quality oracle) for the counts only it can see.
	observe bool
}

// pass is one fresh set-up plus one pass over a workload's inputs.
type pass struct {
	setup time.Duration // set-up until the first segment could be offered
	wall  time.Duration // first offer to last delivery
	cpu   time.Duration // process user+sys CPU over the offered segments
	alloc uint64        // bytes allocated over the offered segments

	offered, failed int
	e2e             []float64 // open loop: µs from scheduled time to delivery
	late            []float64 // open loop: µs the generator released late

	// ratio and accLoss are the pass's seeded-deterministic outcome.
	ratio, accLoss float64
	// zeroSigns counts raw -0 points sprintz decoded as +0 (see sink).
	zeroSigns int

	spans *spanLog
	// layer holds per-layer figures only this pass can measure.
	layer map[string]float64
	// frames are encodings the workload produced, for the replay cells.
	frames []compress.Encoded
}

// segPerSec is the delivered-segment rate over the pass's wall time.
func (p *pass) segPerSec() float64 {
	return float64(p.offered-p.failed) / p.wall.Seconds()
}

// clock reads nanoseconds since a pass's start on the monotonic clock.
type clock struct{ base time.Time }

func newClock() clock      { return clock{base: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// pacer is the open-loop schedule: item i is due interval×i after start.
// A zero interval is the closed loop, where every item is due at once.
type pacer struct {
	clk      clock
	start    int64
	interval time.Duration
}

// release waits until item i is due and returns its due time and how late
// it was released. After a late wake every item already due is released
// at once, so a stalled generator catches up instead of drifting.
//
// It sleeps in nanosleep(2) until spinMargin before the due time and
// spins from there. The Go scheduler's idle wait has millisecond
// resolution, so a sub-millisecond time.Sleep overshoots the 640 µs
// interval by about half an interval; nanosleep overshoots by tens of µs,
// which the spin absorbs.
func (p pacer) release(i int) (due, late int64) {
	now := p.clk.now()
	if p.interval == 0 {
		return now, 0
	}
	due = p.start + int64(i)*int64(p.interval)
	for now < due-int64(spinMargin) {
		ts := syscall.NsecToTimespec(due - int64(spinMargin) - now)
		_ = syscall.Nanosleep(&ts, nil) // EINTR only wakes it early, and the loop sleeps again
		now = p.clk.now()
	}
	for now < due {
		now = p.clk.now()
	}
	return due, now - due
}

// spinMargin is how long before a due time the open-loop generator stops
// sleeping and spins.
const spinMargin = 150 * time.Microsecond

// meter brackets the measured part of a pass with CPU and allocation
// readings.
type meter struct {
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func (m meter) stop(p *pass) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.cpu = cpuTime() - m.cpu
	p.alloc = ms.TotalAlloc - m.alloc
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sink is the collector's delivery callback. It checks every delivery as
// it happens — each device's IDs arrive once and in order, frames decode,
// lossless frames decode to the raw segment, lossy frames to a full
// segment — and stamps its delivery time. The values slice is only valid
// during the call, so all value checks happen here.
//
// Lossless means bit-exact, with one exception the check counts instead
// of failing on: a raw -0 that sprintz decodes as +0. Sprintz is fixed
// point and does not keep the sign of zero, and CBF rounding produces -0;
// the repository's own lossless contract (TestLosslessRoundTrip) compares
// values, under which the two are equal. Any other codec, or any other
// sign change, fails the check, so each counted point is a raw -0 of a
// sprintz frame.
type sink struct {
	clk   clock
	lossy map[string]bool
	// locate maps a frame to its device and its position in the pass.
	locate func(transport.Frame) (device uint64, pos int)
	raw    func(pos int) []float64

	mu        sync.Mutex
	next      map[uint64]uint64 // per-device next expected ID; guarded by mu
	at        []int64           // delivery time per position; guarded by mu
	size      []int             // delivered bytes per position; guarded by mu
	delivered int               // guarded by mu
	zeroSigns int               // raw -0 decoded as +0 by sprintz; guarded by mu
	err       error             // first failed check; guarded by mu
}

func newSink(clk clock, reg *compress.Registry, n int) *sink {
	s := &sink{
		clk:   clk,
		lossy: map[string]bool{},
		next:  map[uint64]uint64{},
		at:    make([]int64, n),
		size:  make([]int, n),
	}
	for _, name := range reg.Lossy() {
		s.lossy[name] = true
	}
	return s
}

func (s *sink) deliver(f transport.Frame, values []float64) {
	t := s.clk.now()
	dev, pos := s.locate(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if pos < 0 || pos >= len(s.at) || s.at[pos] != 0 || f.ID < s.next[dev] {
		s.err = fmt.Errorf("device %d segment %d delivered twice or out of order", dev, f.ID)
		return
	}
	raw := s.raw(pos)
	switch {
	case values == nil:
		s.err = fmt.Errorf("device %d segment %d (%s) failed to decode", dev, f.ID, f.Enc.Codec)
		return
	case s.lossy[f.Enc.Codec] && len(values) != len(raw):
		s.err = fmt.Errorf("device %d segment %d (%s) decoded to %d points, want %d", dev, f.ID, f.Enc.Codec, len(values), len(raw))
		return
	case !s.lossy[f.Enc.Codec] && !s.exact(f.Enc.Codec, values, raw):
		s.err = fmt.Errorf("device %d segment %d (%s) is not bit-exact after decode", dev, f.ID, f.Enc.Codec)
		return
	}
	s.next[dev] = f.ID + 1
	s.at[pos] = t
	s.size[pos] = len(f.Enc.Data)
	s.delivered++
}

// result returns the delivery record once the pass has drained. The lock
// orders the reads after every delivery the collector made.
func (s *sink) result() (at []int64, size []int, delivered, zeroSigns int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at, s.size, s.delivered, s.zeroSigns, s.err
}

// exact reports whether codec decoded raw bit for bit, counting the one
// exemption, sprintz's raw -0 decoded as +0 (see sink). The caller holds
// s.mu.
func (s *sink) exact(codec string, got, raw []float64) bool {
	if len(got) != len(raw) {
		return false
	}
	for i := range raw {
		if math.Float64bits(got[i]) == math.Float64bits(raw[i]) {
			continue
		}
		if codec != "sprintz" || math.Float64bits(raw[i]) != negZero || math.Float64bits(got[i]) != 0 {
			return false
		}
		s.zeroSigns++
	}
	return true
}

// negZero is the bit pattern of -0.
var negZero = math.Float64bits(math.Copysign(0, -1))

// fitModel trains the frozen ground-truth model for an ML objective,
// exactly as the repository's streaming experiments do (240 CBF series,
// seed 77).
func fitModel(kind string) (ml.Classifier, error) {
	X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 77})
	switch kind {
	case "rforest":
		return ml.FitForest(X, y, ml.ForestConfig{Trees: 15, Seed: 77})
	case "kmeans":
		return ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 77})
	}
	return nil, fmt.Errorf("unknown model %q", kind)
}

// sendWaiting spools one frame, waiting while the spool is full instead
// of shedding the segment.
func sendWaiting(up *transport.ResilientUplink, f transport.Frame) error {
	for {
		err := up.Send(f)
		if err == nil || !errors.Is(err, store.ErrSpoolFull) {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// e2eLatencies turns due and delivery times into µs latencies, skipping
// positions that were never delivered.
func e2eLatencies(due, at []int64) []float64 {
	out := make([]float64, 0, len(due))
	for i, d := range due {
		if at[i] != 0 {
			out = append(out, float64(at[i]-d)/1e3)
		}
	}
	return out
}

// lastDelivery is the latest delivery time of a pass.
func lastDelivery(at []int64) int64 {
	var last int64
	for _, t := range at {
		if t > last {
			last = t
		}
	}
	return last
}

// copyFrames keeps up to replayFrames encodings for the replay cells.
func copyFrames(encs []compress.Encoded) []compress.Encoded {
	if len(encs) > replayFrames {
		encs = encs[:replayFrames]
	}
	out := make([]compress.Encoded, len(encs))
	for i, e := range encs {
		out[i] = compress.Encoded{Codec: e.Codec, N: e.N, Data: bytes.Clone(e.Data)}
	}
	return out
}
