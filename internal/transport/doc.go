// Package transport ships compressed segments over a network connection —
// the egress stage of AdaEdge's online mode ("we send out those segments
// through a network protocol", paper §IV-B1). The wire format is a
// varint-framed stream of self-describing segments carrying the codec
// metadata the receiver needs to decompress (paper §IV-C: "each segment …
// is associated with metadata describing its compression configurations").
//
// Frame layout (little-endian, one frame per segment):
//
//	magic "AES2"
//	uvarint id | zigzag-varint label | uvarint trace | uvarint len(codec) |
//	codec | uvarint N | uvarint len(data) | data
//
// trace is the segment's span identity, 0 when untraced. The Writer/Reader
// pair frames and parses this stream.
//
// # Reliable delivery
//
// Every connection is one session (wire.go): the device opens with a
// hello naming itself and its requested ACK coalescing factor, then
// streams frames; the collector answers with cumulative ACKs.
// ResilientUplink (resilient.go) is the sender: frames are journaled into
// a bounded Spool before any network I/O, a single pump goroutine sends
// them in ID order while a per-session reader applies ACKs, and on any
// error the uplink redials with seeded exponential-backoff jitter and
// resends from the first unacknowledged frame. AckEvery 1 makes the
// session lockstep, which is what seeded chaos runs use. Collector
// (server.go) is the receiving side: a per-device ACK watermark makes
// redelivered frames idempotent, so the pair provides exactly-once
// delivery to the sink (DESIGN.md §8).
//
// # Observability
//
// ResilientConfig.Obs instruments the uplink (dial/send/ack/backoff
// counters, a spool-depth histogram, and one trace event per lifecycle
// transition, emitted in order); Collector.Instrument attaches the
// receiving side (frame, duplicate and bad-connection counters plus
// deliver/redeliver events). Event fields
// carry no wall clocks, so seeded chaos runs compare traces byte-for-byte
// (DESIGN.md §9).
package transport
