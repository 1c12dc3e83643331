package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Phase budgets of a run.
const (
	tracedShare      = 0.3 // per-layer run: alternating untraced/traced closed-loop passes
	minClosedPasses  = 3
	minReplayBench   = 20 * time.Millisecond
	maxReplayBench   = 200 * time.Millisecond
	replayBenchSlack = 1.5 // testing.Benchmark runs a cell for about this many benchtimes
)

// run is what a whole benchmark run reports.
type run struct {
	attempted, failed int
	metrics           map[string]metric
}

// runPass collects garbage left by the previous pass, so every pass starts
// from a similar heap, and runs one pass.
func runPass(w workload, in *inputs, o passOpts) (*pass, error) {
	runtime.GC()
	p, err := w.pass(in, o)
	if err != nil {
		return nil, fmt.Errorf("%s pass (open=%v traced=%v observe=%v): %w", w.name, o.open, o.traced, o.observe, err)
	}
	return p, nil
}

// endToEnd measures the end-to-end metrics over untraced closed-loop
// passes for the whole budget. Every pass sets the program up from
// scratch, so each contributes a set-up time.
func endToEnd(w workload, in *inputs, budget time.Duration) (run, error) {
	start := time.Now()
	var passes []*pass
	for len(passes) < minClosedPasses || time.Since(start) < budget {
		p, err := runPass(w, in, passOpts{})
		if err != nil {
			return run{}, err
		}
		passes = append(passes, p)
	}
	r := tally(passes)
	if err := sameOutcome(passes); err != nil {
		return r, err
	}
	var setup, rate, cpu, alloc []float64
	for _, p := range passes {
		segs := float64(p.offered - p.failed)
		setup = append(setup, p.setup.Seconds())
		rate = append(rate, p.segPerSec())
		cpu = append(cpu, p.cpu.Seconds()*1e6/segs)
		alloc = append(alloc, float64(p.alloc)/segs)
	}
	fmt.Printf("perfbench: %d closed-loop passes of %d segments\n", len(passes), in.n)
	return r, r.report(endToEndMetrics, map[string]float64{
		"setup_s":             median(setup),
		"seg_per_s":           median(rate),
		"cpu_us_per_seg":      median(cpu),
		"alloc_bytes_per_seg": median(alloc),
		"max_rss_mb":          maxRSSMiB(),
		"ratio":               passes[0].ratio,
	}, false)
}

// perLayer measures the per-layer metrics: untraced and traced closed-loop
// passes alternate (their throughput ratio is the tracing overhead), one
// traced open-loop pass gives the latencies at the ingest rate, one
// observed pass gives the counts only the program's observer sees, and the
// replay cells fill the rest of the budget.
func perLayer(w workload, in *inputs, budget time.Duration) (run, error) {
	start := time.Now()
	var untraced, traced []*pass
	// Span durations (µs) pooled over the traced closed-loop passes. Each
	// pass drops its spans once they are pooled, except the last one,
	// which is written out with the open-loop pass's.
	durs := map[string][]float64{}
	var busy, wall float64
	for len(traced) < minClosedPasses || time.Since(start) < time.Duration(tracedShare*float64(budget)) {
		u, err := runPass(w, in, passOpts{})
		if err != nil {
			return run{}, err
		}
		t, err := runPass(w, in, passOpts{traced: true})
		if err != nil {
			return run{}, err
		}
		for _, name := range []string{spanProcess, spanIngest, spanSend, spanSession} {
			durs[name] = append(durs[name], t.spans.durations(name)...)
		}
		busy += t.spans.total(spanProcess)
		wall += t.wall.Seconds()
		if len(traced) > 0 {
			traced[len(traced)-1].spans = nil
		}
		untraced, traced = append(untraced, u), append(traced, t)
	}
	open, err := runPass(w, in, passOpts{open: true, traced: true})
	if err != nil {
		return run{}, err
	}
	observed, err := runPass(w, in, passOpts{observe: true})
	if err != nil {
		return run{}, err
	}
	all := append(append(append([]*pass(nil), untraced...), traced...), open, observed)
	r := tally(all)
	if err := sameOutcome(all); err != nil {
		return r, err
	}

	m := map[string]float64{}
	// Counts a pass measured itself: the median over the passes that
	// measured them.
	perKey := map[string][]float64{}
	for _, p := range all {
		for k, v := range p.layer {
			perKey[k] = append(perKey[k], v)
		}
	}
	for k, vs := range perKey {
		m[k] = median(vs)
	}
	tails := func(name string, xs []float64, scale float64) {
		m[name+".p50"], m[name+".p99"] = quantile(xs, 0.5)/scale, quantile(xs, 0.99)/scale
	}
	tails("core.process_us", durs[spanProcess], 1)
	tails("core.ingest_us", durs[spanIngest], 1)
	tails("transport.send_us", durs[spanSend], 1)
	tails("transport.session_ms", durs[spanSession], 1e3)
	tails("transport.wire_us", open.spans.durations(spanWire), 1)
	m["core.process_busy_frac"] = busy / wall
	m["e2e_p50_us"], m["e2e_p99_us"] = quantile(open.e2e, 0.5), quantile(open.e2e, 0.99)
	m["gen.late_p50_us"], m["gen.late_p99_us"] = quantile(open.late, 0.5), quantile(open.late, 0.99)
	m["gen.self_us.p50"] = median(open.spans.selfTimes(spanGen))
	m["accuracy_loss"] = all[0].accLoss
	var rateU, rateT []float64
	for i := range traced {
		rateT, rateU = append(rateT, traced[i].segPerSec()), append(rateU, untraced[i].segPerSec())
	}
	m["trace.overhead_frac"] = 1 - median(rateT)/median(rateU)
	if err := w.inRegime(m); err != nil {
		return r, fmt.Errorf("%s left its regime: %w", w.name, err)
	}
	path, err := writeSpans(w.name, in.seed, []*spanLog{traced[len(traced)-1].spans, open.spans})
	if err != nil {
		return r, fmt.Errorf("writing spans: %w", err)
	}

	cells, err := replayCells(in, traced[0].frames)
	if err != nil {
		return r, fmt.Errorf("replay cells: %w", err)
	}
	left := budget - time.Since(start)
	bench := time.Duration(float64(left) / (replayBenchSlack * float64(len(cells))))
	bench = min(max(bench, minReplayBench), maxReplayBench)
	cellNs, err := runReplay(cells, bench)
	if err != nil {
		return r, err
	}
	for k, v := range cellNs {
		m[k] = v
	}
	fmt.Printf("perfbench: %d untraced + %d traced closed-loop passes, 1 traced open-loop pass, 1 observed pass, %d replay cells at %v; spans in %s\n",
		len(untraced), len(traced), len(cells), bench, path)
	return r, r.report(perLayerMetrics, m, true)
}

// tally counts offered and failed segments over every pass, and prints
// how many raw -0 points sprintz decoded as +0 (see sink).
func tally(passes []*pass) run {
	var r run
	zeroSigns := 0
	for _, p := range passes {
		r.attempted += p.offered
		r.failed += p.failed
		zeroSigns += p.zeroSigns
	}
	fmt.Printf("perfbench: failed_frac %.6g (%d of %d segments); %d raw -0 points decoded as +0 by sprintz\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted, zeroSigns)
	return r
}

// sameOutcome checks that every pass of one seed reached the same
// outcome. Decisions are seeded and never read a clock, so closed-loop,
// open-loop, traced and observed passes must agree to the bit, and
// sprintz must have decoded the same raw -0 points as +0.
func sameOutcome(passes []*pass) error {
	p0 := passes[0]
	for i, p := range passes[1:] {
		if p.ratio != p0.ratio || p.accLoss != p0.accLoss || p.zeroSigns != p0.zeroSigns {
			return fmt.Errorf("pass %d reached ratio %v, accuracy loss %v, %d signed-zero flips; pass 0 reached %v, %v, %d",
				i+1, p.ratio, p.accLoss, p.zeroSigns, p0.ratio, p0.accLoss, p0.zeroSigns)
		}
	}
	return nil
}

// report fills r.metrics with exactly the declared metrics. A declared
// metric the workload cannot measure (a layer it bypasses) reads 0 when
// zeroOK; otherwise every declared metric must have been measured.
func (r *run) report(declared []struct{ name, unit string }, values map[string]float64, zeroOK bool) error {
	r.metrics = make(map[string]metric, len(declared))
	known := map[string]bool{}
	for _, d := range declared {
		known[d.name] = true
		v, ok := values[d.name]
		if !ok && !zeroOK {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for k := range values {
		if !known[k] {
			return fmt.Errorf("metric %s is measured but not declared", k)
		}
	}
	return nil
}
