package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
)

// tracedFrame is smallFrame with a span identity stamped the canonical
// way (trace = segment ID + 1, never zero).
func tracedFrame(id uint64) Frame {
	f := smallFrame(id)
	f.Trace = obs.TraceOfSegment(id)
	return f
}

// TestFrameTraceRoundTrip pins the AES2 header: a traced frame leads
// with the AES2 magic and round-trips its trace identity.
func TestFrameTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := tracedFrame(3)
	want.Trace = 1 << 40 // multi-byte uvarint
	if err := w.Send(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("AES2")) {
		t.Fatalf("traced frame magic = %q, want AES2", buf.Bytes()[:4])
	}
	got, err := NewReader(&buf).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != want.Trace || got.ID != want.ID || got.Label != want.Label {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if got.Enc.Codec != want.Enc.Codec || !bytes.Equal(got.Enc.Data, want.Enc.Data) {
		t.Fatalf("payload drifted: %+v", got.Enc)
	}
}

// TestFrameUntracedByteIdentical pins the one frame layout for an
// untraced frame: it serializes byte-for-byte as the hand-rolled AES2
// encoding with a zero trace uvarint, and round-trips as untraced.
func TestFrameUntracedByteIdentical(t *testing.T) {
	f := smallFrame(7) // Trace zero
	var got bytes.Buffer
	w := NewWriter(&got)
	if err := w.Send(f); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { want.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	want.WriteString("AES2")
	put(f.ID)
	put(zigzag(int64(f.Label)))
	put(0) // trace
	put(uint64(len(f.Enc.Codec)))
	want.WriteString(f.Enc.Codec)
	put(uint64(f.Enc.N))
	put(uint64(len(f.Enc.Data)))
	want.Write(f.Enc.Data)

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("zero-trace frame not byte-identical to AES2:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}

	rt, err := NewReader(&got).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Trace != 0 || rt.ID != f.ID || rt.Label != f.Label || rt.Enc.Codec != f.Enc.Codec ||
		rt.Enc.N != f.Enc.N || !bytes.Equal(rt.Enc.Data, f.Enc.Data) {
		t.Fatalf("zero-trace round trip = %+v, want %+v", rt, f)
	}
}

// TestCollectorSpanKickEvictReattach drives traced frames through the
// session fault paths — a same-device kick, an idle eviction, and a
// reattach with retransmission — and asserts the span layer stays
// exactly-once: one collector.deliver per trace identity, duplicates
// surfacing as redeliveries on the fleet board, kicks and evictions
// counted on the device's health row.
func TestCollectorSpanKickEvictReattach(t *testing.T) {
	o := obs.New(64)
	spans := o.EnableSpans(256)
	col := NewCollectorWith(compress.DefaultRegistry(4), nil,
		CollectorConfig{Shards: 1, MaxIdleDevices: 1}).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Session A delivers frame 0, then session B kicks it and retransmits
	// frame 0 (duplicate) before continuing with frame 1.
	a := dialSession(t, addr.String(), 5)
	a.send(t, tracedFrame(0))
	if next := a.ack(t); next != 1 {
		t.Fatalf("ack = %d, want 1", next)
	}
	b := dialSession(t, addr.String(), 5)
	b.send(t, tracedFrame(0))
	b.send(t, tracedFrame(1))
	if next := b.ack(t); next != 1 {
		t.Fatalf("dup ack = %d, want 1", next)
	}
	if next := b.ack(t); next != 2 {
		t.Fatalf("ack = %d, want 2", next)
	}
	_ = a.conn.Close()

	// Occupy the single idle slot with another device, so device 5's
	// detach takes the evict path (the bound evicts the detaching device
	// once the idle slot is full).
	filler := dialSession(t, addr.String(), 6)
	filler.send(t, tracedFrame(0))
	if next := filler.ack(t); next != 1 {
		t.Fatalf("filler ack = %d, want 1", next)
	}
	_ = filler.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := col.Watermarks().Load(6); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filler never detached")
		}
		time.Sleep(time.Millisecond)
	}

	// Device 5 detaches into a full idle set: evicted down to its
	// watermark. Then it reattaches and retransmits frame 1 (duplicate)
	// plus delivers frame 2.
	_ = b.conn.Close()
	deadline = time.Now().Add(5 * time.Second)
	for col.Evictions() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("device 5 never evicted (evictions = %d)", col.Evictions())
		}
		time.Sleep(time.Millisecond)
	}

	c := dialSession(t, addr.String(), 5)
	defer c.conn.Close()
	c.send(t, tracedFrame(1))
	if next := c.ack(t); next != 2 {
		t.Fatalf("post-evict dup ack = %d, want 2 (watermark lost)", next)
	}
	c.send(t, tracedFrame(2))
	if next := c.ack(t); next != 3 {
		t.Fatalf("ack = %d, want 3", next)
	}

	// Span layer: exactly one deliver per distinct trace across both
	// devices (3 for device 5, 1 for device 6) despite the kick, the
	// eviction and two retransmissions.
	if got := spans.StageCount(obs.StageCollectorDeliver); got != 4 {
		t.Fatalf("collector.deliver count = %d, want 4", got)
	}
	perTrace := map[[2]uint64]int{}
	for _, s := range spans.Stages() {
		if s.Stage != "collector.deliver" {
			continue
		}
		perTrace[[2]uint64{s.Device, s.Trace}]++
	}
	for k, n := range perTrace {
		if n != 1 {
			t.Fatalf("device %d trace %d delivered %d span stages, want 1", k[0], k[1], n)
		}
	}
	for _, want := range [][2]uint64{{5, 1}, {5, 2}, {5, 3}, {6, 1}} {
		if perTrace[want] != 1 {
			t.Fatalf("missing deliver span for device %d trace %d (have %v)", want[0], want[1], perTrace)
		}
	}

	// Fleet board: device 5 saw the kick, the eviction and both
	// redeliveries; watermarks advanced to the delivered counts.
	var d5 obs.DeviceHealthSnapshot
	found := false
	for _, row := range o.Fleet().Snapshot() {
		if row.Device == 5 {
			d5, found = row, true
		}
	}
	if !found {
		t.Fatal("device 5 missing from fleet board")
	}
	if d5.Delivered != 3 || d5.Redelivered != 2 {
		t.Fatalf("device 5 delivered=%d redelivered=%d, want 3/2", d5.Delivered, d5.Redelivered)
	}
	if d5.SessionKicks != 1 {
		t.Fatalf("device 5 kicks = %d, want 1", d5.SessionKicks)
	}
	if d5.Evictions == 0 {
		t.Fatal("device 5 eviction not recorded")
	}
	if d5.Watermark != 3 {
		t.Fatalf("device 5 watermark = %d, want 3", d5.Watermark)
	}
}
