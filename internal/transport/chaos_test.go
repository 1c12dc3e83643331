package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/sim"
)

// chaosOutcome is everything one chaos run exposes for assertions: the
// uplink's obs event stream (pump order), the collector's obs observer,
// the collector itself, and what the sink received.
type chaosOutcome struct {
	events   []obs.Event
	upObs    *obs.Observer
	colObs   *obs.Observer
	col      *Collector
	payloads map[uint64][]byte
	counts   map[uint64]int
}

// chaosRun pushes frames through a ResilientUplink whose dialer and
// connections are faulted by a sim.FaultPlan, against a live Collector.
// Both sides carry their own obs.Observer: the uplink's ring holds the
// delivery trace (a lockstep session, AckEvery 1, so pump and ACK reader
// alternate → deterministic order for a fixed seed and fault schedule),
// the collector's holds per-frame deliver/redeliver events from its
// handler goroutines (only totals are deterministic there).
//
// The uplink trace deliberately excludes fail-event error text tied to
// OS-level close/reset races (see normalizeChaosEvents); everything else
// is a pure function of (seed, fault schedule, traffic).
func chaosRun(t *testing.T, seed int64, frames []Frame) chaosOutcome {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	out := chaosOutcome{
		upObs:    obs.New(1 << 16),
		colObs:   obs.New(1 << 16),
		payloads: map[uint64][]byte{},
		counts:   map[uint64]int{},
	}
	var sinkMu sync.Mutex
	out.col = NewCollector(reg, func(f Frame, _ []float64) {
		sinkMu.Lock()
		out.payloads[f.ID] = append([]byte(nil), f.Enc.Data...)
		out.counts[f.ID]++
		sinkMu.Unlock()
	}).Instrument(out.colObs)
	addr, err := out.col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer out.col.Close()

	// 0.30 virtual seconds up, 0.15 down, repeating; the byte meter and
	// per-dial cost place outages mid-frame and mid-redial.
	link := sim.NewLink(
		sim.LinkPhase{Seconds: 0.30, Bandwidth: sim.Net4G},
		sim.LinkPhase{Seconds: 0.15, Bandwidth: 0},
	)
	plan := sim.NewFaultPlan(link, 20000, 0.02)
	plan.StallAt(0.5)
	plan.ResetAt(1.0)

	cfg := ResilientConfig{
		Addr:         addr.String(),
		DeviceID:     42,
		AckEvery:     1, // lockstep: the trace is a pure function of the schedule
		Seed:         seed,
		BackoffBase:  200 * time.Microsecond,
		BackoffMax:   2 * time.Millisecond,
		WriteTimeout: 5 * time.Second,
		AckTimeout:   5 * time.Second,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			return plan.Dial(func() (net.Conn, error) {
				return net.DialTimeout("tcp", a, timeout)
			})
		},
		Obs: out.upObs,
	}
	up, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := up.Send(f); err != nil {
			t.Fatalf("send %d: %v", f.ID, err)
		}
	}
	if err := up.WaitDrain(30 * time.Second); err != nil {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("drain: %v (pending %d, vt %.3f)\n%s", err, up.Pending(), plan.Now(), buf[:n])
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if resets, stalls := plan.Injected(); resets == 0 || stalls == 0 {
		t.Fatalf("chaos run injected no faults (resets=%d stalls=%d) — schedule too tame", resets, stalls)
	}
	if d := out.upObs.Ring().Dropped(); d != 0 {
		t.Fatalf("uplink trace ring dropped %d events — raise the test ring capacity", d)
	}
	out.events = out.upObs.Ring().Events()
	return out
}

// normalizeChaosEvents strips the fields a deterministic comparison must
// ignore: fail-event error strings depend on OS-level close/reset timing
// (ECONNRESET vs EPIPE vs EOF). Kind, ID, backoff delay (Value, from the
// seeded jitter) and ring sequence all stay.
func normalizeChaosEvents(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	copy(out, events)
	for i := range out {
		out[i].Err = ""
	}
	return out
}

// counter reads one named counter from an observer's snapshot.
func counter(t *testing.T, o *obs.Observer, name string) int64 {
	t.Helper()
	return o.Registry().Snapshot().Counters[name]
}

// TestChaosExactlyOnceDeterministic is the tentpole acceptance test:
// under deterministic link outages, scripted stalls/resets and torn
// frames, every spooled segment reaches the collector sink exactly once
// with a byte-identical payload, the obs substrate's redial/redelivery
// counters agree with the collector's own accounting, and the same seed
// reproduces the same uplink event sequence across two executions.
func TestChaosExactlyOnceDeterministic(t *testing.T) {
	frames, _ := sampleFrames(t, 60)

	run1 := chaosRun(t, 7, frames)
	for _, f := range frames {
		if run1.counts[f.ID] != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once", f.ID, run1.counts[f.ID])
		}
		if !bytes.Equal(run1.payloads[f.ID], f.Enc.Data) {
			t.Fatalf("frame %d payload corrupted in transit", f.ID)
		}
	}

	// The fault schedule forces redials and retransmissions; the obs
	// counters must show them and agree with the collector's accounting.
	if dials := counter(t, run1.upObs, "transport.uplink.dials"); dials < 2 {
		t.Fatalf("uplink dials = %d, want at least one redial", dials)
	}
	if sends := counter(t, run1.upObs, "transport.uplink.sends"); sends < int64(len(frames)) {
		t.Fatalf("uplink sends = %d, want >= %d", sends, len(frames))
	}
	delivered := counter(t, run1.colObs, "transport.collector.frames")
	if delivered != int64(len(frames)) {
		t.Fatalf("collector frames counter = %d, want %d", delivered, len(frames))
	}
	dups := counter(t, run1.colObs, "transport.collector.duplicates")
	if dups != int64(run1.col.Duplicates()) {
		t.Fatalf("collector duplicates counter = %d, Duplicates() = %d", dups, run1.col.Duplicates())
	}
	// Every deliver/redeliver trace event must be in the collector ring.
	colEvents := run1.colObs.Ring().Events()
	if got := int64(len(colEvents)); got != delivered+dups {
		t.Fatalf("collector ring has %d events, want %d deliveries + %d redeliveries", got, delivered, dups)
	}
	for _, ev := range colEvents {
		if ev.Source != "transport.collector" || (ev.Kind != "deliver" && ev.Kind != "redeliver") {
			t.Fatalf("unexpected collector event %+v", ev)
		}
		if uint64(ev.Value) != 42 {
			t.Fatalf("collector event for device %v, want 42", ev.Value)
		}
	}

	run2 := chaosRun(t, 7, frames)
	for _, f := range frames {
		if run2.counts[f.ID] != 1 {
			t.Fatalf("rerun: frame %d delivered %d times", f.ID, run2.counts[f.ID])
		}
	}
	ev1, ev2 := normalizeChaosEvents(run1.events), normalizeChaosEvents(run2.events)
	if len(ev1) != len(ev2) {
		t.Fatalf("uplink event streams differ in length: %d vs %d\nrun1 tail: %+v\nrun2 tail: %+v",
			len(ev1), len(ev2), tailEvents(ev1, 5), tailEvents(ev2, 5))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("uplink event streams diverge at %d:\nrun1: %+v\nrun2: %+v", i, ev1[i], ev2[i])
		}
	}
}

func tailEvents(s []obs.Event, n int) []obs.Event {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
