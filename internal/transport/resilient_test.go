package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/store"
)

func smallFrame(id uint64) Frame {
	return Frame{ID: id, Label: 1, Enc: compress.Encoded{Codec: "paa", Data: []byte{byte(id), 1, 2, 3}, N: 4}}
}

// TestResilientDelivery: frames spooled through the resilient uplink reach
// the collector sink exactly once, byte-identical, and the cumulative ACK
// watermark covers them all.
func TestResilientDelivery(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	payloads := map[uint64][]byte{}
	counts := map[uint64]int{}
	col := NewCollector(reg, func(f Frame, _ []float64) {
		mu.Lock()
		payloads[f.ID] = append([]byte(nil), f.Enc.Data...)
		counts[f.ID]++
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up, err := DialResilient(ResilientConfig{Addr: addr.String(), DeviceID: 7})
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sampleFrames(t, 10)
	for _, f := range frames {
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if got := up.Acked(); got != uint64(len(frames)) {
		t.Fatalf("uplink watermark = %d, want %d", got, len(frames))
	}
	if next, ok := col.Acked(7); !ok || next != uint64(len(frames)) {
		t.Fatalf("collector watermark = %d ok=%v", next, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range frames {
		if counts[f.ID] != 1 {
			t.Fatalf("frame %d delivered %d times", f.ID, counts[f.ID])
		}
		if !bytes.Equal(payloads[f.ID], f.Enc.Data) {
			t.Fatalf("frame %d payload differs", f.ID)
		}
	}
	if up.Send(smallFrame(99)) != ErrUplinkClosed {
		t.Fatal("Send after Close must fail with ErrUplinkClosed")
	}
}

// TestResilientRedial: dial failures back off and retry until the
// collector is reachable; nothing is lost in between.
func TestResilientRedial(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	var dialMu sync.Mutex
	failsLeft := 3
	cfg := ResilientConfig{
		Addr:        addr.String(),
		DeviceID:    1,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			dialMu.Lock()
			fail := failsLeft > 0
			if fail {
				failsLeft--
			}
			dialMu.Unlock()
			if fail {
				return nil, errors.New("injected dial failure")
			}
			return net.DialTimeout("tcp", a, timeout)
		},
	}
	up, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := up.Stats()
	_ = up.Close()
	if st.DialFailures != 3 {
		t.Fatalf("dial failures = %d, want 3", st.DialFailures)
	}
	if st.Dials < 4 {
		t.Fatalf("dials = %d, want >= 4", st.Dials)
	}
	if st.Acked != 5 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResilientSpoolPressure: an unreachable collector fills the bounded
// spool, fires the high-water pressure callback (the Degrade hook), and
// sheds with ErrSpoolFull once full.
func TestResilientSpoolPressure(t *testing.T) {
	var mu sync.Mutex
	var events []bool
	cfg := ResilientConfig{
		Addr:          "127.0.0.1:1",
		DeviceID:      2,
		SpoolSegments: 4,
		HighWater:     0.5,
		BackoffBase:   time.Millisecond,
		BackoffMax:    2 * time.Millisecond,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("link permanently down")
		},
		OnPressure: func(over bool) {
			mu.Lock()
			events = append(events, over)
			mu.Unlock()
		},
	}
	up, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for i := uint64(0); i < 4; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := up.Send(smallFrame(4)); !errors.Is(err, store.ErrSpoolFull) {
		t.Fatalf("want ErrSpoolFull, got %v", err)
	}
	st := up.Stats()
	if st.Pending != 4 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || !events[0] {
		t.Fatalf("pressure events = %v, want one over=true", events)
	}
}

// TestBackoffDeterministic: the jitter stream is a pure function of the
// seed, and every delay stays inside [ceil/2, ceil].
func TestBackoffDeterministic(t *testing.T) {
	base, max := time.Millisecond, 100*time.Millisecond
	b1 := newBackoff(base, max, 42)
	b2 := newBackoff(base, max, 42)
	b3 := newBackoff(base, max, 43)
	diverged := false
	ceil := base
	for i := 0; i < 20; i++ {
		d1, d2, d3 := b1.next(), b2.next(), b3.next()
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", i, d1, d2)
		}
		if d1 != d3 {
			diverged = true
		}
		if d1 < ceil/2 || d1 > ceil {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d1, ceil/2, ceil)
		}
		if ceil < max {
			ceil *= 2
			if ceil > max {
				ceil = max
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter")
	}
	b1.reset()
	if d := b1.next(); d > base {
		t.Fatalf("post-reset delay %v exceeds base %v", d, base)
	}
}

// silentCollector accepts connections and reads everything sent, but
// never answers with an ACK. It returns the address; the listener and
// its readers stop at test cleanup.
func silentCollector(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, conn)
				_ = conn.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// failingWriteConn fails its failAt-th Write (1-based) without closing
// the connection, as a write timeout would.
type failingWriteConn struct {
	net.Conn
	writes, failAt int
}

func (c *failingWriteConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writes == c.failAt {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
}

// signalWriteConn posts to writing as each Write begins.
type signalWriteConn struct {
	net.Conn
	writing chan<- struct{}
}

func (c *signalWriteConn) Write(b []byte) (int, error) {
	c.writing <- struct{}{}
	return c.Conn.Write(b)
}

// TestResilientTeardownNotAckFailure is the regression for spurious
// failures: when the pump tears a session down (a failed write) or Close
// cuts it short, the ACK reader's read error is the teardown itself and
// must not be counted as an AckFailure or traced as ack-fail, and a write
// Close interrupts is not a SendFailure. The peer never ACKs, so every
// frame stays in flight.
func TestResilientTeardownNotAckFailure(t *testing.T) {
	dial := func(t *testing.T, addr string, onEvent func(Event), dialer func(string, time.Duration) (net.Conn, error)) *ResilientUplink {
		t.Helper()
		up, err := DialResilient(ResilientConfig{
			Addr: addr, DeviceID: 5, AckTimeout: 30 * time.Second,
			BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
			OnEvent: onEvent, Dialer: dialer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = up.Close() })
		return up
	}
	waitKind := func(t *testing.T, ch <-chan string, kind string) {
		t.Helper()
		timeout := time.After(5 * time.Second)
		for {
			select {
			case k := <-ch:
				if k == kind {
					return
				}
			case <-timeout:
				t.Fatalf("no %s event", kind)
			}
		}
	}
	events := func(t *testing.T) (chan string, func(Event)) {
		ch := make(chan string, 256)
		return ch, func(e Event) {
			select {
			case ch <- e.Kind:
			default:
			}
			if e.Kind == "ack-fail" {
				t.Errorf("ack-fail traced: %+v", e)
			}
		}
	}

	t.Run("write-failure", func(t *testing.T) {
		addr := silentCollector(t)
		var dialMu sync.Mutex
		dials := 0
		dialer := func(a string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", a, timeout)
			if err != nil {
				return nil, err
			}
			dialMu.Lock()
			defer dialMu.Unlock()
			if dials++; dials == 1 {
				// Write 1 is the hello, 2 is frame 1, 3 is frame 2.
				return &failingWriteConn{Conn: conn, failAt: 3}, nil
			}
			return conn, nil
		}
		ch, onEvent := events(t)
		up := dial(t, addr, onEvent, dialer)
		for id := uint64(1); id <= 3; id++ {
			if err := up.Send(smallFrame(id)); err != nil {
				t.Fatal(err)
			}
		}
		waitKind(t, ch, "send-fail")
		if err := up.Close(); err != nil {
			t.Fatal(err)
		}
		st := up.Stats()
		if st.SendFailures != 1 || st.AckFailures != 0 {
			t.Fatalf("stats = %+v, want SendFailures 1 and AckFailures 0", st)
		}
	})

	t.Run("close-mid-write", func(t *testing.T) {
		// The peer reads the hello and then nothing, so the first frame
		// write blocks until Close cuts it short.
		writing := make(chan struct{}, 1)
		dialer := func(string, time.Duration) (net.Conn, error) {
			device, peer := net.Pipe()
			t.Cleanup(func() { _ = peer.Close() })
			go func() {
				var hello bytes.Buffer
				_ = writeHelloV2(&hello, 5, 0)
				_, _ = io.ReadFull(peer, make([]byte, hello.Len()))
			}()
			return &signalWriteConn{Conn: device, writing: writing}, nil
		}
		ch, onEvent := events(t)
		up := dial(t, "pipe", onEvent, dialer)
		if err := up.Send(smallFrame(1)); err != nil {
			t.Fatal(err)
		}
		<-writing // the hello
		<-writing // frame 1, now blocked
		if err := up.Close(); err != nil {
			t.Fatal(err)
		}
		if st := up.Stats(); st.SendFailures != 0 || st.AckFailures != 0 {
			t.Fatalf("stats = %+v, want no send or ACK failures", st)
		}
		for len(ch) > 0 {
			if k := <-ch; k == "send-fail" {
				t.Fatal("send-fail traced for a write Close cut short")
			}
		}
	})

	t.Run("close-in-flight", func(t *testing.T) {
		addr := silentCollector(t)
		ch, onEvent := events(t)
		up := dial(t, addr, onEvent, nil)
		if err := up.Send(smallFrame(1)); err != nil {
			t.Fatal(err)
		}
		waitKind(t, ch, "send")
		if err := up.Close(); err != nil {
			t.Fatal(err)
		}
		if st := up.Stats(); st.AckFailures != 0 {
			t.Fatalf("stats = %+v, want AckFailures 0", st)
		}
	})
}
