package main

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/store"
)

// offlineWorkload ingests CBF segments through core.OfflineEngine.Ingest
// under a storage budget tight enough that every ingest recodes older
// segments. There is no transport: a segment is delivered when Ingest
// returns.
//
// The segments go round-robin to several devices, each its own engine
// with its own budget and bandit seed, all driven from the one generator
// goroutine. The lossy recode bandits' kmeans rewards are noisy, so one
// device drifts between codecs whose costs differ 30-fold (fft against
// paa), and which ones a run favours depends on its seed. A pass's cost is
// the mean over its devices, which steadies it across seeds.
type offlineWorkload struct {
	devices     int
	bytesPerSeg int64  // storage budget per ingested segment
	model       string // ML objective model
}

// offlineSegments is the number of segments one pass ingests.
const offlineSegments = 4096

func (w offlineWorkload) inputs(seed int64) *inputs { return cbfInputs(seed, offlineSegments) }

func (w offlineWorkload) pass(in *inputs, o passOpts) (*pass, error) {
	n := in.n
	p := &pass{offered: n, layer: map[string]float64{}}
	clk := newClock()

	reg := compress.DefaultRegistry(cbfPrecision)
	m, err := fitModel(w.model)
	if err != nil {
		return nil, err
	}
	engs := make([]*core.OfflineEngine, w.devices)
	for d := range engs {
		engs[d], err = core.NewOfflineEngine(core.Config{
			StorageBytes: w.bytesPerSeg * int64(n/w.devices),
			Objective:    core.MLTarget(m),
			Registry:     reg,
			Seed:         engineSeed + int64(d),
		})
		if err != nil {
			return nil, err
		}
	}
	p.setup = time.Duration(clk.now())

	// Position pos goes to device pos%devices as its segment pos/devices.
	due := make([]int64, n)
	done := make([]int64, n)
	var start []int64
	if o.traced {
		start = make([]int64, n)
	}
	var late []float64
	mt := startMeter()
	first := clk.now()
	pc := pacer{clk: clk, start: first}
	if o.open {
		pc.interval = segInterval
		late = make([]float64, 0, n)
	}
	for pos := 0; pos < n; pos++ {
		d, l := pc.release(pos)
		due[pos] = d
		if o.open {
			late = append(late, float64(l)/1e3)
		}
		if o.traced {
			start[pos] = clk.now()
		}
		if err := engs[pos%w.devices].Ingest(in.segs[pos], in.labels[pos]); err != nil {
			p.failed++
			continue
		}
		done[pos] = clk.now()
	}
	mt.stop(p)

	var used int64
	var recodes, accLoss float64
	var encs []compress.Encoded
	for d, eng := range engs {
		storage := eng.Storage()
		if storage.Peak() > storage.Capacity() {
			return nil, fmt.Errorf("device %d: storage peaked at %d B over its %d B budget", d, storage.Peak(), storage.Capacity())
		}
		used += storage.Used()
		recodes += float64(eng.Stats().Recodes)
		accLoss += eng.Snapshot().MeanAccuracyLoss / float64(w.devices)
		eng.EachEntry(func(e *store.Entry) {
			if len(encs) < replayFrames {
				encs = append(encs, e.Enc)
			}
		})
	}
	stored := 0
	for pos := 0; pos < n; pos++ {
		if done[pos] == 0 {
			continue
		}
		stored++
		v, err := engs[pos%w.devices].QuerySegment(uint64(pos / w.devices))
		if err != nil {
			return nil, fmt.Errorf("stored segment %d does not read back: %w", pos, err)
		}
		if len(v) != len(in.segs[pos]) {
			return nil, fmt.Errorf("stored segment %d reads back as %d points, want %d", pos, len(v), len(in.segs[pos]))
		}
	}
	segments := 0
	for _, eng := range engs {
		segments += eng.Segments()
	}
	if segments != stored {
		return nil, fmt.Errorf("%d segments stored, want %d", segments, stored)
	}
	p.wall = time.Duration(lastDelivery(done) - first)
	p.ratio = float64(used) / float64(8*segPoints*stored)
	p.accLoss = accLoss
	p.frames = copyFrames(encs)
	if o.open {
		p.e2e = e2eLatencies(due, done)
		p.late = late
	}
	p.layer["core.recodes_per_seg"] = recodes / float64(stored)
	if o.traced {
		p.spans = &spanLog{}
		for pos := 0; pos < n; pos++ {
			if done[pos] == 0 {
				continue
			}
			dev, id := uint64(pos%w.devices)+1, uint64(pos/w.devices)
			p.spans.add(spanGen, "", dev, id, due[pos], done[pos])
			p.spans.add(spanIngest, spanGen, dev, id, start[pos], done[pos])
		}
	}
	return p, nil
}
