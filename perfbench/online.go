package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/transport"
)

// onlineWorkload streams one device's CBF segments through
// core.OnlineEngine.Process → transport.ResilientUplink.Send (protocol 2)
// → a loopback transport.Collector, over one connection.
type onlineWorkload struct {
	target float64 // TargetRatioOverride
	policy string  // Config.BanditPolicy
	model  string  // ML objective model; "" selects the ratio objective
}

// Every online pass first streams the same warmupSegments segments,
// untimed, from a CBF stream of a fixed seed. The bandit leaves its
// exploration phase on them identically in every run, so runs of
// different seeds measure the same converged device on different data.
// Without it the arm a run locks into (sprintz or buff, bufflossy or fft)
// depends on the seed, and so does the cost of every later segment.
const (
	onlineSegments = 4096
	warmupSegments = 1024
	warmupSeed     = 1_000_003
)

func (w onlineWorkload) inputs(seed int64) *inputs {
	in := cbfInputs(seed, onlineSegments)
	warm := cbfInputs(warmupSeed, warmupSegments)
	in.warm, in.warmLabels = warm.segs, warm.labels
	return in
}

// pass sets up registry, model, engine, collector and uplink from scratch,
// streams the warm-up segments and then every input segment once. Pass
// positions (and engine segment IDs) 0..len(in.warm)-1 are the warm-up;
// only the positions after them are measured.
func (w onlineWorkload) pass(in *inputs, o passOpts) (*pass, error) {
	const device = 1
	nw, n := len(in.warm), in.n
	segAt := func(pos int) ([]float64, int) {
		if pos < nw {
			return in.warm[pos], in.warmLabels[pos]
		}
		return in.segs[pos-nw], in.labels[pos-nw]
	}
	p := &pass{offered: n, layer: map[string]float64{}}
	clk := newClock()

	reg := compress.DefaultRegistry(cbfPrecision)
	obj := core.SingleTarget(core.TargetRatio)
	if w.model != "" {
		m, err := fitModel(w.model)
		if err != nil {
			return nil, err
		}
		obj = core.MLTarget(m)
	}
	var ob *obs.Observer
	var qc *quality.Config
	if o.observe {
		ob = obs.New(1024)
		qc = &quality.Config{SampleEvery: 4}
	}
	eng, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: w.target,
		BanditPolicy:        w.policy,
		Objective:           obj,
		Registry:            reg,
		Seed:                engineSeed,
		Obs:                 ob,
		Quality:             qc,
	})
	if err != nil {
		return nil, err
	}
	sk := newSink(clk, reg, nw+n)
	sk.locate = func(f transport.Frame) (uint64, int) { return device, int(f.ID) }
	sk.raw = func(pos int) []float64 { s, _ := segAt(pos); return s }
	col := transport.NewCollector(reg, sk.deliver).Instrument(ob)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = col.Close() }()
	up, err := transport.DialResilient(transport.ResilientConfig{
		Addr: addr.String(), DeviceID: device, Protocol: 2, Seed: in.seed,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = up.Close() }()

	wantSize := make([]int, nw+n)
	var tProc, tSend, tSent []int64 // traced only: Process start, Send start, Send return
	var checkErr error
	// offer processes and spools the segment at pos, reporting its
	// encoding, or false when it failed.
	offer := func(pos int) (compress.Encoded, bool) {
		seg, label := segAt(pos)
		if tProc != nil {
			tProc[pos] = clk.now()
		}
		res, enc, err := eng.Process(seg, label)
		if tSend != nil {
			tSend[pos] = clk.now()
		}
		if err != nil {
			return enc, false
		}
		if checkErr == nil && (res.SegmentID != uint64(pos) || res.Ratio != enc.Ratio() || enc.N != len(seg)) {
			checkErr = fmt.Errorf("segment %d: result (id %d, ratio %v) disagrees with its encoding (%d B of %d points)",
				pos, res.SegmentID, res.Ratio, len(enc.Data), enc.N)
		}
		wantSize[pos] = len(enc.Data)
		err = sendWaiting(up, transport.Frame{ID: res.SegmentID, Label: label, Enc: enc})
		if tSent != nil {
			tSent[pos] = clk.now()
		}
		return enc, err == nil
	}

	// Set-up ends once the first warm-up segment is delivered: the uplink
	// dials lazily, on its first spooled frame.
	if _, ok := offer(0); !ok {
		return nil, errors.New("first warm-up segment failed")
	}
	for {
		if _, _, delivered, _, _ := sk.result(); delivered > 0 {
			break
		}
		if time.Duration(clk.now()) > drainTimeout {
			return nil, errors.New("first warm-up segment was never delivered")
		}
		runtime.Gosched()
	}
	p.setup = time.Duration(clk.now())
	for pos := 1; pos < nw; pos++ {
		if _, ok := offer(pos); !ok {
			return nil, fmt.Errorf("warm-up segment %d failed", pos)
		}
	}
	if err := up.WaitDrain(drainTimeout); err != nil {
		return nil, err
	}
	st0, obs0 := eng.Stats(), observed(ob, eng)
	_, _, _, zeroSigns0, _ := sk.result()

	due := make([]int64, nw+n)
	var late, depth []float64
	if o.traced {
		tProc, tSend, tSent = make([]int64, nw+n), make([]int64, nw+n), make([]int64, nw+n)
	}
	var encs []compress.Encoded
	mt := startMeter()
	first := clk.now()
	pc := pacer{clk: clk, start: first}
	if o.open {
		pc.interval = segInterval
		late, depth = make([]float64, 0, n), make([]float64, 0, n)
	}
	for pos := nw; pos < nw+n; pos++ {
		d, l := pc.release(pos - nw)
		due[pos] = d
		if o.open {
			late = append(late, float64(l)/1e3)
		}
		enc, ok := offer(pos)
		if !ok {
			p.failed++
			continue
		}
		if o.open {
			depth = append(depth, float64(up.Pending()))
		}
		if len(encs) < replayFrames {
			encs = append(encs, enc)
		}
	}
	if err := up.WaitDrain(drainTimeout); err != nil {
		return nil, err
	}
	mt.stop(p)
	at, size, delivered, zeroSigns, err := sk.result()
	if err != nil {
		return nil, err
	}
	if checkErr != nil {
		return nil, checkErr
	}
	if delivered != nw+n-p.failed {
		return nil, fmt.Errorf("%d segments delivered, want %d", delivered, nw+n-p.failed)
	}
	var sentBytes int
	for pos := range size {
		if size[pos] != wantSize[pos] {
			return nil, fmt.Errorf("segment %d: %d B delivered, %d B encoded", pos, size[pos], wantSize[pos])
		}
		if pos >= nw {
			sentBytes += size[pos]
		}
	}
	st := eng.Stats()
	measured := float64(st.Segments - st0.Segments)
	p.zeroSigns = zeroSigns - zeroSigns0
	p.wall = time.Duration(lastDelivery(at[nw:]) - first)
	p.ratio = float64(sentBytes) / float64(8*segPoints*(n-p.failed))
	p.accLoss = (st.AccuracyLossSum - st0.AccuracyLossSum) / measured
	p.frames = copyFrames(encs)
	if o.open {
		p.e2e = e2eLatencies(due[nw:], at[nw:])
		p.late = late
		p.layer["store.spool_depth.p99"] = quantile(depth, 0.99)
	}
	p.layer["core.lossless_frac"] = float64(st.LosslessSegments-st0.LosslessSegments) / measured
	p.layer["compress.sprintz.zero_sign_flips_per_seg"] = float64(p.zeroSigns) / measured
	p.layer["transport.frames_per_seg"] = float64(up.Stats().FramesSent) / float64(delivered)
	p.layer["transport.duplicates_per_seg"] = float64(col.Duplicates()) / float64(delivered)
	if o.traced {
		p.spans = &spanLog{}
		for pos := nw; pos < nw+n; pos++ {
			if at[pos] == 0 {
				continue
			}
			id := uint64(pos)
			p.spans.add(spanGen, "", device, id, due[pos], at[pos])
			p.spans.add(spanProcess, spanGen, device, id, tProc[pos], tSend[pos])
			p.spans.add(spanSend, spanGen, device, id, tSend[pos], tSent[pos])
			p.spans.add(spanWire, spanGen, device, id, tSent[pos], at[pos])
		}
	}
	if o.observe {
		d := observed(ob, eng).minus(obs0)
		p.layer["core.trials_per_seg"] = d.trials / measured
		p.layer["quality.optimal_rate"] = d.optimalHits / d.samples
		p.layer["quality.regret"] = d.regret / d.samples
		p.layer["transport.ack_batch_mean"] = d.ackedFrames / d.acks
	}
	return p, nil
}

// observerCounts are the cumulative counts the observed pass reads from
// the program's observer and quality oracle; the difference of two
// readings covers the segments between them.
type observerCounts struct {
	trials                       float64 // codec trials (core.online.compress_seconds.<codec> counts)
	samples, optimalHits, regret float64 // oracle-scored decisions, optimal ones, summed regret
	acks, ackedFrames            float64 // collector ACK batches and the frames they covered
}

func observed(ob *obs.Observer, eng *core.OnlineEngine) observerCounts {
	if ob == nil {
		return observerCounts{}
	}
	snap := ob.Registry().Snapshot()
	var c observerCounts
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "core.online.compress_seconds.") {
			c.trials += float64(h.Count)
		}
	}
	ack := snap.Histograms["transport.collector.ack_batch"]
	c.acks, c.ackedFrames = float64(ack.Count), ack.Sum
	qs := eng.Quality().Snapshot()
	c.samples, c.optimalHits, c.regret = float64(qs.Samples), float64(qs.OptimalHits), qs.CumulativeRegret
	return c
}

func (c observerCounts) minus(o observerCounts) observerCounts {
	return observerCounts{
		trials: c.trials - o.trials, samples: c.samples - o.samples, optimalHits: c.optimalHits - o.optimalHits,
		regret: c.regret - o.regret, acks: c.acks - o.acks, ackedFrames: c.ackedFrames - o.ackedFrames,
	}
}
