package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// fleetWorkload is session churn at the collector: short uplink sessions
// from many device IDs, each spooling a burst of pre-encoded PAA frames,
// draining and disconnecting. Sessions run on a fixed number of
// connections, device IDs recur only after the collector has evicted them
// to its watermark table, and a seeded share of sessions is torn
// mid-burst so redial, retransmission and watermark dedup run.
type fleetWorkload struct {
	devices     int     // distinct device IDs
	perSession  int     // frames spooled per session
	sessions    int     // sessions per pass
	conns       int     // concurrent connections (session workers)
	maxIdle     int     // collector MaxIdleDevices
	tornShare   float64 // share of sessions torn mid-burst
	distinctSeg int     // distinct CBF segments behind the frames
}

// fleetFrameRatio is the PAA ratio of every fleet_churn frame: the frame
// the repository's own fleet experiment (experiments.RunFleet) sends.
const fleetFrameRatio = 0.25

func (w fleetWorkload) inputs(seed int64) *inputs {
	in := cbfInputs(seed, w.distinctSeg)
	in.n = w.sessions * w.perSession
	rng := rand.New(rand.NewSource(seed))
	paa := compress.NewPAA()
	in.frames = make([]compress.Encoded, len(in.segs))
	for i, s := range in.segs {
		enc, err := paa.CompressRatio(s, fleetFrameRatio)
		if err != nil {
			panic(fmt.Sprintf("perfbench: PAA at ratio %v: %v", fleetFrameRatio, err)) // a fixed ratio on CBF: a bug
		}
		in.frames[i] = enc
	}
	// A torn session's write breaks at a virtual byte offset inside its
	// burst: past the hello, before the last frame is fully written.
	burst := (w.perSession - 1) * len(in.frames[0].Data)
	in.tears = make([]int, w.sessions)
	for k := range in.tears {
		if rng.Float64() < w.tornShare {
			in.tears[k] = 16 + rng.Intn(burst)
		}
	}
	return in
}

// session locates session k's device and first frame ID. Session k runs
// on worker k%conns; since conns divides devices, every session of one
// device runs on the same worker, one after the other.
func (w fleetWorkload) session(k int) (device, firstID uint64) {
	return uint64(k%w.devices) + 1, uint64(k/w.devices) * uint64(w.perSession)
}

// frame returns the frame at pass position pos (session pos/perSession).
func (w fleetWorkload) frame(in *inputs, pos int) transport.Frame {
	k, j := pos/w.perSession, pos%w.perSession
	_, firstID := w.session(k)
	seg := pos % len(in.frames)
	return transport.Frame{ID: firstID + uint64(j), Label: in.labels[seg], Trace: obs.TraceOfSegment(uint64(pos)), Enc: in.frames[seg]}
}

// dial starts session k's uplink: protocol 2 with the minimum backoff, so
// a torn session redials at once; torn sessions dial through their fault
// plan.
func (w fleetWorkload) dial(in *inputs, addr string, k int) (*transport.ResilientUplink, error) {
	device, _ := w.session(k)
	cfg := transport.ResilientConfig{
		Addr: addr, DeviceID: device, Protocol: 2, Seed: in.seed + int64(k),
		SpoolSegments: w.perSession, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
	}
	if tear := in.tears[k]; tear > 0 {
		always := sim.NewLink(sim.LinkPhase{Seconds: 1, Bandwidth: sim.Net4G})
		plan := sim.NewFaultPlan(always, 1, 1e-9) // one virtual second per byte written
		plan.ResetAt(float64(tear))
		cfg.Dialer = func(a string, timeout time.Duration) (net.Conn, error) {
			return plan.Dial(func() (net.Conn, error) { return net.DialTimeout("tcp", a, timeout) })
		}
	}
	return transport.DialResilient(cfg)
}

// sessionLog is what one session worker measured.
type sessionLog struct {
	framesSent     int
	failed         int
	err            error
	start, drained []int64   // per session: DialResilient, WaitDrain return
	send, sent     []int64   // per position, traced only
	depth          []float64 // spool depth after each Send, open loop only
}

func (w fleetWorkload) pass(in *inputs, o passOpts) (*pass, error) {
	n := in.n
	p := &pass{offered: n, layer: map[string]float64{}}
	clk := newClock()

	reg := compress.DefaultRegistry(cbfPrecision)
	var ob *obs.Observer
	if o.observe {
		ob = obs.New(1024)
	}
	sk := newSink(clk, reg, n)
	sk.locate = func(f transport.Frame) (uint64, int) {
		pos := int(f.Trace) - 1
		device, _ := w.session(pos / w.perSession)
		return device, pos
	}
	sk.raw = func(pos int) []float64 { return in.segs[pos%len(in.segs)] }
	col := transport.NewCollectorWith(reg, sk.deliver, transport.CollectorConfig{MaxIdleDevices: w.maxIdle}).Instrument(ob)
	a, err := col.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = col.Close() }()
	addr := a.String()
	logs := make([]sessionLog, w.conns)
	for i := range logs {
		logs[i].start, logs[i].drained = make([]int64, w.sessions), make([]int64, w.sessions)
		if o.traced {
			logs[i].send, logs[i].sent = make([]int64, n), make([]int64, n)
		}
	}
	p.setup = time.Duration(clk.now())

	queues := make([]chan int, w.conns)
	for i := range queues {
		queues[i] = make(chan int, w.sessions) // holds every release: the generator never blocks
	}
	var wg sync.WaitGroup
	for wi := range queues {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w.worker(in, addr, clk, queues[wi], &logs[wi], o)
		}(wi)
	}

	due := make([]int64, w.sessions)
	var late []float64
	mt := startMeter()
	first := clk.now()
	pc := pacer{clk: clk, start: first}
	if o.open {
		pc.interval = time.Duration(w.perSession) * segInterval
		late = make([]float64, 0, w.sessions)
	}
	for k := 0; k < w.sessions; k++ {
		d, l := pc.release(k)
		due[k] = d
		if o.open {
			late = append(late, float64(l)/1e3)
		}
		queues[k%w.conns] <- k
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	mt.stop(p)

	at, size, delivered, _, err := sk.result()
	if err != nil {
		return nil, err
	}
	framesSent := 0
	for _, l := range logs {
		if l.err != nil {
			return nil, l.err
		}
		p.failed += l.failed
		framesSent += l.framesSent
	}
	if delivered != n-p.failed {
		return nil, fmt.Errorf("%d frames delivered, want %d", delivered, n-p.failed)
	}
	segDue := make([]int64, n)
	var sentBytes int
	for pos := range segDue {
		segDue[pos] = due[pos/w.perSession]
		if at[pos] == 0 {
			continue
		}
		if want := len(w.frame(in, pos).Enc.Data); size[pos] != want {
			return nil, fmt.Errorf("frame %d: %d B delivered, %d B sent", pos, size[pos], want)
		}
		sentBytes += size[pos]
	}
	p.wall = time.Duration(lastDelivery(at) - first)
	p.ratio = float64(sentBytes) / float64(8*segPoints*delivered)
	p.frames = copyFrames(in.frames)
	if o.open {
		p.e2e = e2eLatencies(segDue, at)
		p.late = late
		var depth []float64
		for _, l := range logs {
			depth = append(depth, l.depth...)
		}
		p.layer["store.spool_depth.p99"] = quantile(depth, 0.99)
	}
	p.layer["transport.frames_per_seg"] = float64(framesSent) / float64(delivered)
	p.layer["transport.duplicates_per_seg"] = float64(col.Duplicates()) / float64(delivered)
	p.layer["transport.evictions_per_session"] = float64(col.Evictions()) / float64(w.sessions)
	if o.traced {
		p.spans = &spanLog{}
		for k := 0; k < w.sessions; k++ {
			l := &logs[k%w.conns]
			device, firstID := w.session(k)
			p.spans.add(spanSession, "", device, firstID, l.start[k], l.drained[k])
			for j := 0; j < w.perSession; j++ {
				pos := k*w.perSession + j
				if at[pos] == 0 {
					continue
				}
				id := firstID + uint64(j)
				p.spans.add(spanGen, "", device, id, segDue[pos], at[pos])
				p.spans.add(spanSend, spanGen, device, id, l.send[pos], l.sent[pos])
				p.spans.add(spanWire, spanGen, device, id, l.sent[pos], at[pos])
			}
		}
	}
	if o.observe {
		p.layer["transport.ack_batch_mean"] = ob.Registry().Snapshot().Histograms["transport.collector.ack_batch"].Mean()
	}
	return p, nil
}

// worker runs the sessions released to it one after the other: dial,
// spool the burst, wait for the collector's ACKs to drain the spool,
// disconnect.
func (w fleetWorkload) worker(in *inputs, addr string, clk clock, q <-chan int, l *sessionLog, o passOpts) {
	for k := range q {
		if l.err != nil {
			continue // drain the queue so the generator's release count holds
		}
		l.start[k] = clk.now()
		up, err := w.dial(in, addr, k)
		if err != nil {
			l.err = fmt.Errorf("session %d: %w", k, err)
			continue
		}
		for j := 0; j < w.perSession; j++ {
			pos := k*w.perSession + j
			if o.traced {
				l.send[pos] = clk.now()
			}
			if err := sendWaiting(up, w.frame(in, pos)); err != nil {
				l.failed++
				continue
			}
			if o.traced {
				l.sent[pos] = clk.now()
			}
			if o.open {
				l.depth = append(l.depth, float64(up.Pending()))
			}
		}
		if err := up.WaitDrain(drainTimeout); err != nil {
			l.err = fmt.Errorf("session %d: %w", k, err)
		}
		l.drained[k] = clk.now()
		l.framesSent += up.Stats().FramesSent
		_ = up.Close()
	}
}
