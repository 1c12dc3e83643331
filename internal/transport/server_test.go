package transport

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/store"
)

// sessionClient is a raw session client for collector tests: a lockstep
// hello (one ACK per frame), then hand-rolled frames and ACK reads, so
// tests can drive exactly the wire interleavings the resilient uplink
// would never produce.
type sessionClient struct {
	conn net.Conn
	w    *Writer
	br   *bufio.Reader
}

func dialSession(t *testing.T, addr string, deviceID uint64) *sessionClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHelloV2(conn, deviceID, 1); err != nil {
		t.Fatal(err)
	}
	return &sessionClient{conn: conn, w: NewWriter(conn), br: bufio.NewReader(conn)}
}

func (s *sessionClient) send(t *testing.T, f Frame) {
	t.Helper()
	if err := s.w.Send(f); err != nil {
		t.Fatal(err)
	}
	if err := s.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (s *sessionClient) ack(t *testing.T) uint64 {
	t.Helper()
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	next, err := readAck(s.br)
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	return next
}

// TestCollectorWatermarkOverflowRejected is the regression for the
// watermark wrap bug: a frame with ID MaxUint64 used to set
// next = ID+1 = 0, silently re-opening every past ID for redelivery.
// The collector must reject the frame as a bad connection and keep the
// watermark (and dedup) intact.
func TestCollectorWatermarkOverflowRejected(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	s := dialSession(t, addr.String(), 42)
	s.send(t, smallFrame(0))
	if next := s.ack(t); next != 1 {
		t.Fatalf("ack after frame 0 = %d, want 1", next)
	}
	overflow := smallFrame(0)
	overflow.ID = math.MaxUint64
	s.send(t, overflow)
	// The collector drops the connection without acking the poison frame.
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readAck(s.br); err == nil {
		t.Fatal("collector acked a watermark-overflowing frame")
	}
	_ = s.conn.Close()

	// Reconnect and retransmit frame 0: with the watermark intact it is a
	// duplicate. Under the wrap bug it would be delivered a second time.
	s2 := dialSession(t, addr.String(), 42)
	defer s2.conn.Close()
	s2.send(t, smallFrame(0))
	if next := s2.ack(t); next != 1 {
		t.Fatalf("ack after retransmit = %d, want 1 (watermark lost)", next)
	}
	if f, d := col.Frames(), col.Duplicates(); f != 1 || d != 1 {
		t.Fatalf("frames=%d duplicates=%d, want 1 and 1 (exactly-once broken)", f, d)
	}
	if col.BadConns() == 0 {
		t.Fatal("overflow frame was not counted as a bad connection")
	}
	if next, ok := col.Acked(42); !ok || next != 1 {
		t.Fatalf("device watermark = %d ok=%v, want 1 true", next, ok)
	}
}

// TestCollectorSameDeviceSessionsSerializedAndOrdered is the regression
// for concurrent same-device sink races: a zombie connection surviving a
// redial could invoke the sink concurrently and out of ID order, because
// delivery was decided under the lock but the sink ran outside it. With
// single-writer sessions the second connection kicks the first, and sink
// calls are serialized and ID-ordered per device.
func TestCollectorSameDeviceSessionsSerializedAndOrdered(t *testing.T) {
	o := obs.New(64)
	var mu sync.Mutex
	var order []uint64
	inSink, maxConc := 0, 0
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	sink := func(f Frame, _ []float64) {
		mu.Lock()
		inSink++
		if inSink > maxConc {
			maxConc = inSink
		}
		order = append(order, f.ID)
		mu.Unlock()
		if f.ID == 0 {
			once.Do(func() {
				entered <- struct{}{}
				<-release // park the zombie session mid-sink
			})
		}
		mu.Lock()
		inSink--
		mu.Unlock()
	}
	col := NewCollector(compress.DefaultRegistry(4), sink).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Session A delivers frame 0 and parks inside the sink — a zombie
	// connection mid-delivery.
	a := dialSession(t, addr.String(), 9)
	defer a.conn.Close()
	a.send(t, smallFrame(0))
	<-entered

	// Session B redials with the same device ID while A is mid-sink and
	// retransmits everything unacked, then continues with frame 1.
	b := dialSession(t, addr.String(), 9)
	defer b.conn.Close()
	b.send(t, smallFrame(0))
	b.send(t, smallFrame(1))
	// Give a racy collector time to (wrongly) run B's delivery while A is
	// still parked, then let A finish.
	time.Sleep(100 * time.Millisecond)
	close(release)

	if next := b.ack(t); next != 1 {
		t.Fatalf("first ack on B = %d, want 1", next)
	}
	if next := b.ack(t); next != 2 {
		t.Fatalf("second ack on B = %d, want 2", next)
	}

	mu.Lock()
	defer mu.Unlock()
	if maxConc != 1 {
		t.Fatalf("sink ran %d-way concurrent for one device", maxConc)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("sink order = %v, want [0 1]", order)
	}
	if col.Frames() != 2 || col.Duplicates() != 1 {
		t.Fatalf("frames=%d duplicates=%d, want 2 and 1", col.Frames(), col.Duplicates())
	}
	if col.Kicked() != 1 {
		t.Fatalf("kicked = %d, want 1", col.Kicked())
	}
	if v := o.Registry().Counter("transport.collector.sessions_kicked").Value(); v != 1 {
		t.Fatalf("sessions_kicked counter = %d, want 1", v)
	}
}

// TestCollectorIdleEviction: devices beyond the idle bound are evicted
// down to a watermark entry, and dedup survives both the eviction and a
// collector restart carrying the serialized watermark table.
func TestCollectorIdleEviction(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	col := NewCollectorWith(reg, nil, CollectorConfig{Shards: 4, MaxIdleDevices: 2})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const devices = 6
	for id := uint64(1); id <= devices; id++ {
		s := dialSession(t, addr.String(), id)
		s.send(t, smallFrame(0))
		if next := s.ack(t); next != 1 {
			t.Fatalf("device %d ack = %d, want 1", id, next)
		}
		_ = s.conn.Close()
		// Detach is asynchronous; wait for the handler to let go before
		// the next device connects so the idle accounting is sequential.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if next, ok := col.Acked(id); ok && next == 1 && col.ResidentDevices() <= 2+int(id) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("device %d never detached", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.ResidentDevices() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("resident devices = %d, want <= 2", col.ResidentDevices())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if col.Evictions() < devices-2 {
		t.Fatalf("evictions = %d, want >= %d", col.Evictions(), devices-2)
	}

	// An evicted device reconnecting and retransmitting must still dedup:
	// its watermark was preserved in the table.
	s := dialSession(t, addr.String(), 6)
	s.send(t, smallFrame(0))
	if next := s.ack(t); next != 1 {
		t.Fatalf("evicted device retransmit ack = %d, want 1", next)
	}
	_ = s.conn.Close()
	if col.Duplicates() == 0 {
		t.Fatal("retransmit to evicted device was not deduplicated")
	}

	// Serialize the watermark table, restart the collector with it, and
	// verify dedup survives the restart.
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := col.Watermarks().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wm, err := store.ReadWatermarks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	col2 := NewCollectorWith(reg, nil, CollectorConfig{MaxIdleDevices: 2, Watermarks: wm})
	addr2, err := col2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	s2 := dialSession(t, addr2.String(), 3)
	defer s2.conn.Close()
	s2.send(t, smallFrame(0))
	if next := s2.ack(t); next != 1 {
		t.Fatalf("post-restart retransmit ack = %d, want 1", next)
	}
	if col2.Frames() != 0 || col2.Duplicates() != 1 {
		t.Fatalf("post-restart frames=%d duplicates=%d, want 0 and 1", col2.Frames(), col2.Duplicates())
	}
}

// TestCollectorEvictReattachRace is the regression for the eviction
// window bug: detach used to delete the device from its shard map and
// release the shard lock *before* storing the watermark into the table,
// so a device redialing in that window found neither resident state nor
// a watermark entry, seeded next=0, and redelivered everything — exactly
// during the herd-reconnect scenario eviction exists for. Hammer
// immediate evict/reattach cycles (the idle slot is pinned by a filler
// device, so every detach of the hot device evicts) and assert the sink
// never sees a frame twice.
func TestCollectorEvictReattachRace(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	counts := map[uint64]int{}
	col := NewCollectorWith(reg, func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	}, CollectorConfig{Shards: 1, MaxIdleDevices: 1})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// The filler device detaches first and occupies the single idle
	// slot, so every later detach of device 1 takes the evict path.
	const fillerID, fillerFrame = 2, uint64(1000)
	filler := dialSession(t, addr.String(), fillerID)
	filler.send(t, smallFrame(fillerFrame))
	if next := filler.ack(t); next != fillerFrame+1 {
		t.Fatalf("filler ack = %d, want %d", next, fillerFrame+1)
	}
	_ = filler.conn.Close()
	// Detach is asynchronous; its non-evict path stores the watermark,
	// which is the signal that the idle slot is taken.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := col.Watermarks().Load(fillerID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filler never detached")
		}
		time.Sleep(time.Millisecond)
	}

	// Evict/reattach cycles: close and immediately redial, so attach
	// races the previous handler's evicting detach. Frame 0 is resent
	// every cycle; if any interleaving loses the watermark it is
	// redelivered and the per-ID count breaks.
	const cycles = 200
	for i := uint64(0); i < cycles; i++ {
		s := dialSession(t, addr.String(), 1)
		if i > 0 {
			s.send(t, smallFrame(0))
			if next := s.ack(t); next != i {
				t.Fatalf("cycle %d: dup ack = %d, want %d (watermark lost)", i, next, i)
			}
		}
		s.send(t, smallFrame(i))
		if next := s.ack(t); next != i+1 {
			t.Fatalf("cycle %d: ack = %d, want %d", i, next, i+1)
		}
		_ = s.conn.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once", id, n)
		}
	}
	if len(counts) != cycles+1 {
		t.Fatalf("delivered %d distinct frames, want %d", len(counts), cycles+1)
	}
	if f, d := col.Frames(), col.Duplicates(); f != cycles+1 || d != cycles-1 {
		t.Fatalf("frames=%d duplicates=%d, want %d and %d", f, d, cycles+1, cycles-1)
	}
}

// TestResilientPipelinedDelivery: a pipelined session delivers exactly
// once with coalesced ACKs, and WaitDrain's notification path (no
// polling) sees the drain.
func TestResilientPipelinedDelivery(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	counts := map[uint64]int{}
	col := NewCollectorWith(reg, func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	}, CollectorConfig{AckEvery: 8})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 11, AckEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	for i := uint64(0); i < frames; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if got := up.Acked(); got != frames {
		t.Fatalf("uplink watermark = %d, want %d", got, frames)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != frames {
		t.Fatalf("delivered %d distinct frames, want %d", len(counts), frames)
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times", id, n)
		}
	}
	if col.Frames() != frames {
		t.Fatalf("collector frames = %d, want %d", col.Frames(), frames)
	}
}

// TestResilientPipelinedRedial: a connection reset mid-stream in a
// pipelined session triggers a redial and retransmit; the collector's
// watermark keeps delivery exactly-once.
func TestResilientPipelinedRedial(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	counts := map[uint64]int{}
	col := NewCollector(reg, func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Kill the first connection after it is established so the uplink
	// has to back off, redial, and resend whatever was unacked.
	var dialMu sync.Mutex
	dials := 0
	dialer := func(a string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", a, timeout)
		dialMu.Lock()
		first := dials == 0
		dials++
		dialMu.Unlock()
		if err == nil && first {
			go func() {
				time.Sleep(20 * time.Millisecond)
				_ = conn.Close()
			}()
		}
		return conn, err
	}
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 13, AckEvery: 4,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Dialer: dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	for i := uint64(0); i < frames; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // stretch the stream across the reset
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != frames {
		t.Fatalf("delivered %d distinct frames, want %d", len(counts), frames)
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times", id, n)
		}
	}
}

// TestAllocsCollectorDecode pins the pooled-decode contract: after
// warm-up, decoding a frame on the collector hot path performs no
// steady-state heap allocations beyond occasional pool refills.
func TestAllocsCollectorDecode(t *testing.T) {
	c := NewCollector(compress.DefaultRegistry(4), nil)
	frame := smallFrame(3)
	for i := 0; i < 400; i++ {
		values, release := c.decode(frame)
		_ = values
		release()
	}
	avg := testing.AllocsPerRun(300, func() {
		values, release := c.decode(frame)
		_ = values
		release()
	})
	if avg > 1.0 {
		t.Fatalf("collector decode allocates %.2f/op, want <= 1.0", avg)
	}
}
