package transport

import "repro/internal/obs"

// Transport instrumentation. The uplink mirrors its delivery trace
// (Event) into obs counters and the trace ring; the collector counts
// deliveries, redeliveries and bad connections. As in core, a nil bundle
// is the disabled configuration and costs one branch per call site.
//
// Ordering note: uplink events come from the pump and the session's ACK
// reader, serialized by ResilientUplink.evMu. In a lockstep session
// (AckEvery 1) the two strictly alternate, so the ring order is
// deterministic for a fixed fault schedule and seed. Collector events
// come from per-connection handler goroutines; only per-device order and
// the totals are deterministic, which is what the chaos test asserts
// (DESIGN.md §9).

// uplinkMetrics is the ResilientUplink's cached obs handles.
type uplinkMetrics struct {
	sink     obs.TraceSink
	spans    *obs.SpanRing     // nil when spans are disabled
	health   *obs.DeviceHealth // this device's fleet-board row
	deviceID uint64

	dials     *obs.Counter
	dialFails *obs.Counter
	sends     *obs.Counter
	sendFails *obs.Counter
	acks      *obs.Counter
	ackFails  *obs.Counter
	backoffs  *obs.Counter
	rejects   *obs.Counter

	pending *obs.Gauge
	depth   *obs.Histogram
}

func newUplinkMetrics(o *obs.Observer, deviceID uint64) *uplinkMetrics {
	if o == nil {
		return nil
	}
	reg := o.Registry()
	return &uplinkMetrics{
		sink:      o.Sink(),
		spans:     o.Spans(),
		health:    o.Fleet().Device(deviceID),
		deviceID:  deviceID,
		dials:     reg.Counter("transport.uplink.dials"),
		dialFails: reg.Counter("transport.uplink.dial_failures"),
		sends:     reg.Counter("transport.uplink.sends"),
		sendFails: reg.Counter("transport.uplink.send_failures"),
		acks:      reg.Counter("transport.uplink.acks"),
		ackFails:  reg.Counter("transport.uplink.ack_failures"),
		backoffs:  reg.Counter("transport.uplink.backoffs"),
		rejects:   reg.Counter("transport.uplink.spool_rejects"),
		pending:   reg.Gauge("transport.uplink.pending"),
		depth:     reg.Histogram("transport.uplink.spool_depth", obs.DepthBuckets),
	}
}

// event mirrors one delivery-trace Event into counters and the ring.
// Backoff delays land in Event.Value as seconds; they come from the
// seeded jitter generator, not a clock, so the event stream stays
// reproducible.
func (m *uplinkMetrics) event(e Event) {
	if m == nil {
		return
	}
	switch e.Kind {
	case "dial":
		m.dials.Inc()
	case "dial-fail":
		m.dialFails.Inc()
	case "send":
		m.sends.Inc()
	case "send-fail":
		m.sendFails.Inc()
	case "ack":
		m.acks.Inc()
	case "ack-fail":
		m.ackFails.Inc()
	case "backoff":
		m.backoffs.Inc()
	}
	if m.sink != nil {
		ev := obs.Event{Source: "transport.uplink", Kind: e.Kind, ID: e.ID, Device: m.deviceID, Err: e.Err}
		if e.Kind == "backoff" {
			ev.Value = e.Wait.Seconds()
		}
		m.sink.Record(ev)
	}
}

// spoolDepth records the backlog after an append or an ACK advance.
func (m *uplinkMetrics) spoolDepth(n int) {
	if m == nil {
		return
	}
	m.pending.Set(float64(n))
	m.depth.Observe(float64(n))
	m.health.SetSpoolDepth(int64(n))
}

// spanEnqueue closes the spool.enqueue stage for a traced frame entering
// the spool (untraced frames stay span-silent) and advances the fleet
// board's spooled watermark.
func (m *uplinkMetrics) spanEnqueue(trace, frameID uint64, depth int) {
	if m == nil {
		return
	}
	m.health.NoteSpooled(frameID)
	if m.spans == nil || trace == 0 {
		return
	}
	m.spans.Record(obs.StageSpoolEnqueue, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: -1, Value: float64(depth),
	})
}

// spanSend records the wire.send stage: the traced frame left the device
// over the wire (retransmissions record one stage each).
func (m *uplinkMetrics) spanSend(trace, frameID uint64) {
	if m == nil || m.spans == nil || trace == 0 {
		return
	}
	m.spans.Record(obs.StageWireSend, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: -1, Value: float64(frameID),
	})
}

// spanAck records the wire.ack stage: the collector's cumulative ACK
// covered the traced frame and the spool released it.
func (m *uplinkMetrics) spanAck(trace, frameID uint64) {
	if m == nil || m.spans == nil || trace == 0 {
		return
	}
	m.spans.Record(obs.StageWireAck, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: -1, Value: float64(frameID),
	})
}

// ackWatermark mirrors the device-side cumulative ACK watermark onto the
// fleet board.
func (m *uplinkMetrics) ackWatermark(next uint64) {
	if m == nil {
		return
	}
	m.health.SetSpoolAcked(next)
}

// reject counts frames the bounded spool refused (caller sheds them).
func (m *uplinkMetrics) reject() {
	if m == nil {
		return
	}
	m.rejects.Inc()
}

// collectorMetrics is the Collector's cached obs handles.
type collectorMetrics struct {
	sink  obs.TraceSink
	spans *obs.SpanRing   // nil when spans are disabled
	fleet *obs.FleetBoard // per-device scoreboard (nil when uninstrumented)

	frames     *obs.Counter
	duplicates *obs.Counter
	badConns   *obs.Counter
	kicked     *obs.Counter
	evictions  *obs.Counter

	ackBatchH   *obs.Histogram
	shardDepthH *obs.Histogram
}

func newCollectorMetrics(o *obs.Observer) *collectorMetrics {
	if o == nil {
		return nil
	}
	reg := o.Registry()
	return &collectorMetrics{
		sink:        o.Sink(),
		spans:       o.Spans(),
		fleet:       o.Fleet(),
		frames:      reg.Counter("transport.collector.frames"),
		duplicates:  reg.Counter("transport.collector.duplicates"),
		badConns:    reg.Counter("transport.collector.bad_conns"),
		kicked:      reg.Counter("transport.collector.sessions_kicked"),
		evictions:   reg.Counter("transport.collector.evictions"),
		ackBatchH:   reg.Histogram("transport.collector.ack_batch", obs.DepthBuckets),
		shardDepthH: reg.Histogram("transport.collector.shard_depth", obs.DepthBuckets),
	}
}

// device resolves the fleet-board row for a device (nil when the board is
// off; nil rows no-op). Sessions cache the result at attach so the
// per-frame path touches atomics only.
func (m *collectorMetrics) device(id uint64) *obs.DeviceHealth {
	if m == nil {
		return nil
	}
	return m.fleet.Device(id)
}

// frame records one received frame: delivered to the sink, or dropped as
// a redelivery by the per-device watermark. Event.Value carries the
// device ID (kept for pre-Device-field consumers; Event.Device carries it
// too). A traced delivery also closes the span's collector.deliver stage,
// joining the device-side stages through the propagated identity.
func (m *collectorMetrics) frame(deviceID, frameID, trace uint64, delivered bool) {
	if m == nil {
		return
	}
	kind := "deliver"
	if delivered {
		m.frames.Inc()
	} else {
		m.duplicates.Inc()
		kind = "redeliver"
	}
	if m.sink != nil {
		m.sink.Record(obs.Event{
			Source: "transport.collector", Kind: kind,
			ID: frameID, Device: deviceID, Value: float64(deviceID),
		})
	}
	if delivered && trace != 0 && m.spans != nil {
		m.spans.Record(obs.StageCollectorDeliver, obs.SpanStage{
			Device: deviceID, Trace: trace, Arm: -1, Value: float64(frameID),
		})
	}
}

// badConn records a connection dropped on malformed input.
func (m *collectorMetrics) badConn() {
	if m == nil {
		return
	}
	m.badConns.Inc()
}

// sessionKicked records a stale same-device session displaced by a newer
// connection (single-writer takeover).
func (m *collectorMetrics) sessionKicked() {
	if m == nil {
		return
	}
	m.kicked.Inc()
}

// eviction records one idle device evicted down to the watermark table.
func (m *collectorMetrics) eviction() {
	if m == nil {
		return
	}
	m.evictions.Inc()
}

// ackBatch records how many frames one cumulative ACK covered (always 1
// for a lockstep session).
func (m *collectorMetrics) ackBatch(n uint64) {
	if m == nil {
		return
	}
	m.ackBatchH.Observe(float64(n))
}

// shardDepth records a shard's resident-device count after an attach or
// an eviction.
func (m *collectorMetrics) shardDepth(n int) {
	if m == nil {
		return
	}
	m.shardDepthH.Observe(float64(n))
}
