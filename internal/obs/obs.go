// Package obs is the observability substrate for the AdaEdge
// reproduction: a stdlib-only metrics and decision-tracing layer the rest
// of the system reports through. It exists because the framework's whole
// premise is that the bandit reacts to *measured* outcomes — ratio,
// throughput, accuracy loss, uplink pressure — and those measurements
// must be watchable live, not only as end-of-run statistics.
//
// Three primitives cover the needs of every subsystem:
//
//   - Counters and gauges: single atomic words, safe from any goroutine,
//     readable while the hot path increments them (Registry, Counter,
//     Gauge).
//   - Fixed-bucket histograms: lock-free Observe on atomic bucket
//     counters, for compress/decompress latency and spool depth
//     distributions (Histogram).
//   - A bounded in-memory ring of structured decision-trace events, one
//     per bandit pull or delivery step (Event, Ring, TraceSink).
//
// The Observer type bundles a Registry and a Ring and is what engines and
// transports accept in their configs. A nil Observer (the default
// everywhere) disables instrumentation entirely: every metric method is
// nil-receiver safe, so the instrumented hot paths pay one predictable
// branch and no clock reads when observability is off. That property is
// load-bearing — the online engine's zero-allocation pins
// (internal/core/allocs_test.go) run with the layer disabled.
//
// # Clock ownership
//
// Codecs are pure functions (DESIGN.md §7) and must never read clocks;
// the codecpurity analyzer additionally forbids importing this package
// from the codec substrate. Timing therefore happens only at the
// instrumented call sites (core, transport), which time the pure work
// from outside and feed durations into histograms here.
//
// # Determinism
//
// Trace events deliberately carry no wall-clock fields. Events emitted by
// a single decision goroutine (an engine's sequencer, an uplink's pump)
// therefore form a deterministic sequence: the same seeded run produces
// the same events in the same order, which is what lets the chaos and
// determinism tests assert on event streams instead of scraping logs.
// When several goroutines share one Ring, only per-goroutine order is
// guaranteed. See DESIGN.md §9.
//
// # HTTP exposure
//
// Handler serves the whole substrate over an opt-in debug mux: a JSON
// metrics snapshot, expvar-style vars, the trace ring, and net/http/pprof
// profiling. Both CLIs expose it behind -debug-addr; OBSERVABILITY.md
// catalogues every metric and endpoint.
package obs

import (
	"net"
	"net/http"
	"sync"
)

// Observer bundles the two halves of the substrate — a metric Registry
// and a trace Ring — into the single handle engine and transport configs
// accept. The zero-value-nil Observer disables instrumentation: all
// methods are nil-receiver safe and return nil components, whose methods
// are in turn nil-receiver safe.
type Observer struct {
	reg  *Registry
	ring *Ring

	mu    sync.Mutex
	spans *SpanRing             // guarded by mu (set once by EnableSpans)
	fleet *FleetBoard           // guarded by mu (lazily created)
	pages map[string]func() any // guarded by mu
}

// New builds an Observer with a fresh Registry and a trace Ring holding
// up to ringCap events (DefaultRingCap when ringCap <= 0).
func New(ringCap int) *Observer {
	return &Observer{reg: NewRegistry(), ring: NewRing(ringCap)}
}

// Registry returns the metric registry, or nil on a nil Observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Ring returns the trace ring, or nil on a nil Observer.
func (o *Observer) Ring() *Ring {
	if o == nil {
		return nil
	}
	return o.ring
}

// Sink returns the Observer's trace sink as an interface, or a nil
// interface on a nil Observer — callers can store the result and guard
// emission with a plain `if sink != nil`.
func (o *Observer) Sink() TraceSink {
	if o == nil || o.ring == nil {
		return nil
	}
	return o.ring
}

// EnableSpans turns on the segment-lifecycle span layer: it creates the
// SpanRing (holding up to ringCap stage records, DefaultSpanRingCap when
// ringCap <= 0) and registers the per-stage latency histograms
// (span.stage_seconds.<stage>) the ring feeds. Idempotent — a second call
// returns the existing ring and ignores ringCap. Spans must be enabled
// before the engines and transports that should emit them are built:
// emitters cache the ring pointer at construction. Nil-receiver safe
// (returns nil, and a nil SpanRing ignores Record).
func (o *Observer) EnableSpans(ringCap int) *SpanRing {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.spans == nil {
		o.spans = NewSpanRing(ringCap)
		for st := Stage(0); st < numSpanStages; st++ {
			o.spans.hist[st] = o.reg.Histogram("span.stage_seconds."+st.String(), LatencyBuckets)
		}
	}
	return o.spans
}

// Spans returns the span ring, or nil when spans are disabled or the
// Observer is nil. Callers cache the result; nil rings no-op.
func (o *Observer) Spans() *SpanRing {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans
}

// Fleet returns the per-device health board behind /debug/fleet, creating
// it on first use. Nil-receiver safe (returns nil; a nil board's Device
// returns nil entries whose update methods no-op).
func (o *Observer) Fleet() *FleetBoard {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fleet == nil {
		o.fleet = NewFleetBoard()
	}
	return o.fleet
}

// Publish mounts a JSON page under the debug mux: requests to path (which
// must start with "/debug/") serve snapshot()'s result JSON-encoded.
// Components register their structured state this way — the quality
// tracker publishes /debug/quality — without the handler having to know
// them. Publishing is safe at any time, including after Serve: page lookup
// happens per request, so pages registered by engines built after the
// debug server started still appear. Nil-receiver safe (no-op).
func (o *Observer) Publish(path string, snapshot func() any) {
	if o == nil || path == "" || snapshot == nil {
		return
	}
	o.mu.Lock()
	if o.pages == nil {
		o.pages = make(map[string]func() any)
	}
	o.pages[path] = snapshot
	o.mu.Unlock()
}

// page resolves a published page by exact path (nil when absent).
func (o *Observer) page(path string) func() any {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pages[path]
}

// Handler returns the debug HTTP mux over this Observer (see NewHandler),
// including /debug/spans, /debug/fleet and any pages registered via
// Publish. The span ring and fleet board resolve per request, so enabling
// spans after Serve still surfaces them.
func (o *Observer) Handler() http.Handler {
	return newHandler(o.Registry(), o.Ring(), o.Spans, o.Fleet, o.page)
}

// Serve starts the debug endpoint on addr (":0" picks an ephemeral port)
// and returns the bound address plus a stop function that closes the
// listener. The server goroutine exits when stop is called.
func (o *Observer) Serve(addr string) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: o.Handler()}
	go func() { _ = srv.Serve(ln) }()
	stop := func() error { return srv.Close() }
	return ln.Addr(), stop, nil
}
