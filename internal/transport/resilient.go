package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// ResilientUplink is the fault-tolerant device-side sender: Send spools
// the frame in a bounded on-device queue (backed by store.Spool) and
// returns without touching the network. A single pump goroutine owns
// every write, streaming spooled frames in ID order with write deadlines,
// and a per-session ACK-reader goroutine applies the collector's
// cumulative ACKs. On any connection error the pump backs off
// exponentially (deterministic, seeded jitter), redials, and resends from
// the first unacknowledged frame. The wire is therefore at-least-once;
// the collector's per-device watermark turns it into exactly-once at the
// sink.
//
// ResilientConfig.AckEvery sets the ACK coalescing factor. With
// AckEvery 1 the session is lockstep: the pump sends the next frame only
// after the reader has applied and emitted the ACK covering the previous
// one. That trades pipelining for a property the chaos tests depend on:
// the entire network interaction is a deterministic function of the
// spooled traffic and the fault schedule, so two runs with the same seed
// produce the same retry/ACK trace. Any other value pipelines, and the
// interleaving of send and ack events is scheduler-dependent.
type ResilientUplink struct {
	cfg   ResilientConfig
	spool *store.Spool
	boff  backoff
	work  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
	// om caches the obs handles; nil when ResilientConfig.Obs is unset.
	om *uplinkMetrics
	// ackVisit closes the wire.ack span stage for each entry an ACK
	// releases (nil when uninstrumented; built once to keep the ACK path
	// allocation-free).
	ackVisit func(*store.Entry)
	// evMu serializes the delivery trace: events come from both the pump
	// and the session's ACK reader, and OnEvent consumers are promised
	// sequential calls.
	evMu sync.Mutex

	mu     sync.Mutex
	conn   net.Conn // current connection, nil between dials; guarded by mu
	closed bool     // guarded by mu
	stats  UplinkStats
	// drainWait, when non-nil, is closed as soon as the spool is
	// observed empty after an ACK advance; guarded by mu. WaitDrain
	// blocks on it instead of polling.
	drainWait chan struct{}
	// br and w frame the current conn; replaced on redial. Only the pump
	// touches them, but they are replaced under mu alongside conn.
	br *bufio.Reader
	w  *Writer
}

// ResilientConfig parameterizes DialResilient. The zero value of every
// field except Addr is usable.
type ResilientConfig struct {
	// Addr is the collector address.
	Addr string
	// DeviceID identifies this device to the collector's dedup watermark.
	// Devices sharing a collector must use distinct IDs.
	DeviceID uint64
	// Protocol names the session protocol version. There is one (2);
	// DialResilient accepts 0 or 2 and rejects any other value.
	//
	// Deprecated: leave it unset.
	Protocol int
	// AckEvery is the ACK coalescing factor requested in the session
	// hello (0 asks for the collector's default). 1 is lockstep: one ACK
	// per frame, awaited before the next frame is sent.
	AckEvery int
	// DialTimeout bounds each dial attempt (default DefaultDialTimeout).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 10s).
	WriteTimeout time.Duration
	// AckTimeout bounds the wait for each cumulative ACK (default 10s).
	AckTimeout time.Duration
	// BackoffBase and BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter; the same seed yields the same
	// delay sequence.
	Seed int64
	// SpoolSegments and SpoolBytes bound the spool (see store.NewSpool).
	SpoolSegments int
	SpoolBytes    int64
	// HighWater is the spool pressure mark in (0,1) (default 0.75).
	HighWater float64
	// OnPressure fires when spool utilization crosses HighWater in either
	// direction. Wire it to OnlineEngine.Degrade for graceful
	// degradation: tighten the effective bandwidth target while the
	// backlog is deep, restore it once the spool drains.
	OnPressure func(over bool)
	// Dialer overrides the transport (fault injection, tests). Default
	// is net.DialTimeout over TCP.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// OnEvent observes the delivery trace (dials, sends, ACKs, backoff).
	// Calls are sequential, from the pump or the ACK reader; must not
	// block.
	OnEvent func(Event)
	// Obs mirrors the delivery trace into the observability substrate:
	// per-kind counters, a spool-depth gauge/histogram, and one
	// trace-ring event per delivery-trace Event. Nil disables at the cost
	// of one branch per event.
	Obs *obs.Observer
}

// Event is one entry of the uplink's delivery trace.
type Event struct {
	// Kind is one of "dial", "dial-fail", "send", "send-fail", "ack",
	// "ack-fail", "backoff".
	Kind string
	// ID is the frame ID (send), ACK watermark (ack), or dial attempt
	// ordinal (dial/dial-fail).
	ID uint64
	// Wait is the backoff delay (backoff events only).
	Wait time.Duration
	// Err carries the failure (fail events only).
	Err string
}

// UplinkStats summarizes delivery progress.
type UplinkStats struct {
	// FramesSent counts frame writes, including retransmissions.
	FramesSent int
	// Acked is the collector's cumulative watermark.
	Acked uint64
	// Dials and DialFailures count connection attempts.
	Dials, DialFailures int
	// SendFailures counts frame writes that broke the connection.
	SendFailures int
	// AckFailures counts ACK reads that broke the connection (timeouts
	// and torn reads on the collector→device half), kept separate from
	// SendFailures so the two halves stay diagnosable. A read cut short
	// by the pump's own teardown or by Close is not counted.
	AckFailures int
	// Pending and Dropped report the spool state.
	Pending, Dropped int
}

// DefaultDialTimeout bounds each dial attempt: a black-holed collector
// address must fail the attempt quickly, not hang the pump forever.
const DefaultDialTimeout = 10 * time.Second

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 5 * time.Second
		if c.BackoffMax < c.BackoffBase {
			c.BackoffMax = c.BackoffBase
		}
	}
	if c.AckEvery < 0 {
		c.AckEvery = 0
	}
	if c.Dialer == nil {
		c.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// ErrUplinkClosed is returned by Send after Close.
var ErrUplinkClosed = errors.New("transport: uplink closed")

// DialResilient starts a resilient uplink toward cfg.Addr. It returns
// immediately: the first dial happens on the pump goroutine, and an
// unreachable collector just means frames accumulate in the spool until
// the bound sheds them.
func DialResilient(cfg ResilientConfig) (*ResilientUplink, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, errors.New("transport: resilient uplink needs an address")
	}
	if cfg.Protocol != 0 && cfg.Protocol != helloVersion2 {
		return nil, fmt.Errorf("transport: unsupported session protocol %d", cfg.Protocol)
	}
	u := &ResilientUplink{
		cfg:  cfg,
		boff: newBackoff(cfg.BackoffBase, cfg.BackoffMax, cfg.Seed),
		work: make(chan struct{}, 1),
		done: make(chan struct{}),
		om:   newUplinkMetrics(cfg.Obs, cfg.DeviceID),
	}
	if u.om != nil {
		u.ackVisit = func(e *store.Entry) { u.om.spanAck(e.Trace, e.ID) }
	}
	u.spool = store.NewSpool(cfg.SpoolSegments, cfg.SpoolBytes, cfg.HighWater, cfg.OnPressure)
	u.wg.Add(1)
	go u.run()
	return u, nil
}

// Send spools one frame for delivery. It never blocks on the network;
// when the spool bound is reached it fails with store.ErrSpoolFull and
// the caller sheds the segment.
func (u *ResilientUplink) Send(f Frame) error {
	u.mu.Lock()
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return ErrUplinkClosed
	}
	err := u.spool.Append(&store.Entry{ID: f.ID, Label: f.Label, Trace: f.Trace, Enc: f.Enc})
	if err != nil {
		u.om.reject()
		return err
	}
	if u.om != nil {
		depth := u.spool.Len()
		u.om.spoolDepth(depth)
		u.om.spanEnqueue(f.Trace, f.ID, depth)
	}
	select {
	case u.work <- struct{}{}:
	default:
	}
	return nil
}

// Pending returns the number of spooled, unacknowledged frames.
func (u *ResilientUplink) Pending() int { return u.spool.Len() }

// Acked returns the collector's cumulative watermark: every frame ID
// below it is confirmed delivered.
func (u *ResilientUplink) Acked() uint64 { return u.spool.Acked() }

// Stats returns a snapshot of delivery progress.
func (u *ResilientUplink) Stats() UplinkStats {
	u.mu.Lock()
	st := u.stats
	u.mu.Unlock()
	st.Acked = u.spool.Acked()
	st.Pending = u.spool.Len()
	st.Dropped = u.spool.Dropped()
	return st
}

// WaitDrain blocks until every spooled frame is acknowledged or the
// timeout expires. It parks on a drain-notification channel signalled
// from the ACK path (no polling).
func (u *ResilientUplink) WaitDrain(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		u.mu.Lock()
		if u.spool.Len() == 0 {
			u.mu.Unlock()
			return nil
		}
		if u.drainWait == nil {
			u.drainWait = make(chan struct{})
		}
		ch := u.drainWait
		u.mu.Unlock()
		select {
		case <-ch:
			// Woken by an ACK advance; re-check — a concurrent Send may
			// have refilled the spool.
		case <-t.C:
			return errors.New("transport: drain timeout")
		}
	}
}

// notifyDrain wakes WaitDrain callers when an ACK advance empties the
// spool. Spurious wakeups are fine (WaitDrain re-checks); missed empties
// are not, so it runs after every AckBelow.
func (u *ResilientUplink) notifyDrain() {
	if u.spool.Len() > 0 {
		return
	}
	u.mu.Lock()
	if u.drainWait != nil {
		close(u.drainWait)
		u.drainWait = nil
	}
	u.mu.Unlock()
}

// Close stops the pump and closes the connection. Frames still spooled
// are abandoned; call WaitDrain first for a graceful shutdown.
func (u *ResilientUplink) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	conn := u.conn
	u.mu.Unlock()
	close(u.done)
	if conn != nil {
		_ = conn.Close()
	}
	u.wg.Wait()
	return nil
}

func (u *ResilientUplink) event(e Event) {
	u.evMu.Lock()
	defer u.evMu.Unlock()
	if u.cfg.OnEvent != nil {
		u.cfg.OnEvent(e)
	}
	u.om.event(e)
}

// sleep waits d or until Close, reporting whether the uplink is still
// open.
func (u *ResilientUplink) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-u.done:
		return false
	}
}

// run is the pump: it owns every network write (a per-session
// ACK-reader goroutine owns the reads).
func (u *ResilientUplink) run() {
	defer u.wg.Done()
	defer u.dropConn()
	for {
		if u.spool.Len() == 0 {
			select {
			case <-u.work:
				continue
			case <-u.done:
				return
			}
		}
		select {
		case <-u.done:
			return
		default:
		}
		if !u.connected() && !u.connect() {
			// connect already backed off; bail out only on Close.
			select {
			case <-u.done:
				return
			default:
				continue
			}
		}
		if err := u.runSession(); err != nil {
			u.dropConn()
			wait := u.boff.next()
			u.event(Event{Kind: "backoff", Wait: wait})
			if !u.sleep(wait) {
				return
			}
		}
	}
}

func (u *ResilientUplink) connected() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.conn != nil
}

func (u *ResilientUplink) dropConn() {
	u.mu.Lock()
	conn := u.conn
	u.conn, u.br, u.w = nil, nil, nil
	u.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// connect dials, sends the session hello, and installs the connection.
// On failure it records the event and backs off; it reports whether a
// connection is installed.
func (u *ResilientUplink) connect() bool {
	u.mu.Lock()
	u.stats.Dials++
	attempt := uint64(u.stats.Dials)
	u.mu.Unlock()
	conn, err := u.cfg.Dialer(u.cfg.Addr, u.cfg.DialTimeout)
	if err == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(u.cfg.WriteTimeout))
		if err = writeHelloV2(conn, u.cfg.DeviceID, uint64(u.cfg.AckEvery)); err != nil {
			_ = conn.Close()
		}
	}
	if err != nil {
		u.mu.Lock()
		u.stats.DialFailures++
		u.mu.Unlock()
		u.event(Event{Kind: "dial-fail", ID: attempt, Err: err.Error()})
		wait := u.boff.next()
		u.event(Event{Kind: "backoff", Wait: wait})
		if !u.sleep(wait) {
			return false
		}
		return false
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		_ = conn.Close()
		return false
	}
	u.conn = conn
	u.br = bufio.NewReader(conn)
	u.w = NewWriter(conn)
	u.mu.Unlock()
	u.event(Event{Kind: "dial", ID: attempt})
	return true
}

// session is the state one connection's pump and ACK reader share.
type session struct {
	// sentThrough is one past the ID of the last frame written in this
	// session (0: none yet); the reader reads only while the spool's ACK
	// watermark is below it.
	sentThrough atomic.Uint64
	// ackedThrough is the last ACK watermark the reader applied and
	// emitted (0: none yet); a lockstep pump waits for it to pass the
	// frame it just sent.
	ackedThrough atomic.Uint64
	sent         chan struct{} // pump → reader: a frame was written
	acked        chan struct{} // reader → pump: an ACK was emitted
	ackErr       chan error    // reader → pump: the ACK half broke
	stop         chan struct{} // closed when the pump tears the session down
}

// wake posts a non-blocking wakeup on a one-slot channel.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// runSession runs one session on the installed connection: the pump
// streams spooled frames past a send cursor, while ackLoop (a per-session
// goroutine) applies the collector's cumulative ACKs. With AckEvery 1 the
// pump waits after each frame until the ACK covering it was applied and
// emitted, so pump and reader strictly alternate. Either side's error
// tears the session down; the pump then backs off, redials, and resends
// from the first unacknowledged frame. It returns nil only when the
// uplink is closing.
func (u *ResilientUplink) runSession() error {
	u.mu.Lock()
	conn, br, w := u.conn, u.br, u.w
	u.mu.Unlock()
	if conn == nil {
		return net.ErrClosed
	}
	s := &session{
		sent:   make(chan struct{}, 1),
		acked:  make(chan struct{}, 1),
		ackErr: make(chan error, 1),
		stop:   make(chan struct{}),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		u.ackLoop(conn, br, s)
	}()
	teardown := func(err error) error {
		close(s.stop)
		u.dropConn() // unblocks the reader's readAck
		wg.Wait()
		if s.ackedThrough.Load() > 0 {
			// The session made progress; the next failure is a fresh
			// incident, not a continuation of this one.
			u.boff.reset()
		}
		return err
	}

	lockstep := u.cfg.AckEvery == 1
	for {
		var e *store.Entry
		var ok bool
		if n := s.sentThrough.Load(); n > 0 {
			e, ok = u.spool.HeadAfter(n - 1)
		} else {
			e, ok = u.spool.Head()
		}
		if !ok {
			// Everything spooled is in flight (or the spool is empty):
			// park until new work, an ACK-side verdict, or Close.
			select {
			case <-u.work:
				continue
			case err := <-s.ackErr:
				return teardown(err)
			case <-u.done:
				return teardown(nil)
			}
		}
		select {
		case err := <-s.ackErr:
			return teardown(err)
		case <-u.done:
			return teardown(nil)
		default:
		}
		_ = conn.SetWriteDeadline(time.Now().Add(u.cfg.WriteTimeout))
		err := w.Send(Frame{ID: e.ID, Label: e.Label, Trace: e.Trace, Enc: e.Enc})
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			select {
			case <-u.done:
				return teardown(nil) // Close cut the write short
			default:
			}
			u.mu.Lock()
			u.stats.SendFailures++
			u.mu.Unlock()
			u.event(Event{Kind: "send-fail", ID: e.ID, Err: err.Error()})
			return teardown(err)
		}
		u.mu.Lock()
		u.stats.FramesSent++
		u.mu.Unlock()
		u.event(Event{Kind: "send", ID: e.ID})
		u.om.spanSend(e.Trace, e.ID)
		s.sentThrough.Store(e.ID + 1)
		wake(s.sent)
		for lockstep && s.ackedThrough.Load() <= e.ID {
			select {
			case <-s.acked:
			case err := <-s.ackErr:
				return teardown(err)
			case <-u.done:
				return teardown(nil)
			}
		}
	}
}

// ackLoop is the session's read half. It reads only while a frame written
// in this session is unacknowledged: before the first send, and whenever
// everything sent is acknowledged, no ACK is due, so no read deadline may
// fire. Each ACK is applied and emitted before the pump is woken. The
// first error is posted to ackErr and ends the loop; a read cut short by
// the pump's teardown or by Close is not an ACK failure.
func (u *ResilientUplink) ackLoop(conn net.Conn, br *bufio.Reader, s *session) {
	for {
		if u.spool.Acked() >= s.sentThrough.Load() {
			select {
			case <-s.sent:
				continue // a frame is in flight again; resume reading
			case <-s.stop:
				return
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(u.cfg.AckTimeout))
		next, err := readAck(br)
		if err != nil {
			select {
			case <-s.stop:
				return
			case <-u.done:
				return
			default:
			}
			u.mu.Lock()
			u.stats.AckFailures++
			u.mu.Unlock()
			u.event(Event{Kind: "ack-fail", Err: err.Error()})
			s.ackErr <- err
			return
		}
		u.ackTo(next)
		u.event(Event{Kind: "ack", ID: next})
		s.ackedThrough.Store(next)
		wake(s.acked)
	}
}

// ackTo applies one cumulative ACK: it releases every spooled entry below
// next — closing each traced frame's wire.ack span stage via ackVisit —
// mirrors the watermark and depth onto the obs surfaces, and wakes drain
// waiters.
func (u *ResilientUplink) ackTo(next uint64) {
	u.spool.AckBelowVisit(next, u.ackVisit)
	u.notifyDrain()
	if u.om != nil {
		u.om.ackWatermark(u.spool.Acked())
		u.om.spoolDepth(u.spool.Len())
	}
}

// backoff computes exponential redial delays with deterministic jitter.
// The jitter stream is a splitmix64 generator over the configured seed —
// not math/rand, whose construction is reserved to the seeded-RNG
// packages by the seqdeterminism analyzer — so the same seed reproduces
// the same delay sequence, which is what makes chaos-test retry traces
// comparable across runs.
type backoff struct {
	base, max time.Duration
	attempt   int
	state     uint64
}

func newBackoff(base, max time.Duration, seed int64) backoff {
	return backoff{base: base, max: max, state: uint64(seed)*0x9e3779b97f4a7c15 + 1}
}

// next returns the delay for the current attempt: cap(base·2^attempt)
// jittered into [d/2, d].
func (b *backoff) next() time.Duration {
	d := b.base
	for i := 0; i < b.attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(splitmix64(&b.state)%uint64(half+1))
}

func (b *backoff) reset() { b.attempt = 0 }

// splitmix64 is the standard SplitMix64 step (Steele et al.), enough for
// jitter and fully reproducible from the seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
