package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
)

func sampleFrames(t *testing.T, n int) ([]Frame, [][]float64) {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	X, y := datasets.CBF(n, datasets.CBFConfig{Seed: 5})
	names := reg.Names()
	frames := make([]Frame, n)
	for i, row := range X {
		codec, _ := reg.Lookup(names[i%len(names)])
		var enc compress.Encoded
		var err error
		if lc, ok := codec.(compress.LossyCodec); ok {
			enc, err = lc.CompressRatio(row, 0.3)
			if err != nil {
				enc, err = codec.Compress(row)
			}
		} else {
			enc, err = codec.Compress(row)
		}
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		frames[i] = Frame{ID: uint64(i), Label: y[i], Enc: enc}
	}
	return frames, X
}

func TestFrameRoundTrip(t *testing.T) {
	frames, _ := sampleFrames(t, 17) // one per codec
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, f := range frames {
		if err := w.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want.ID || got.Label != want.Label || got.Enc.Codec != want.Enc.Codec || got.Enc.N != want.Enc.N {
			t.Fatalf("frame %d metadata: %+v vs %+v", i, got, want)
		}
		if !bytes.Equal(got.Enc.Data, want.Enc.Data) {
			t.Fatalf("frame %d payload differs", i)
		}
	}
	if _, err := r.Recv(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameNegativeLabel(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := Frame{ID: 3, Label: -1, Enc: compress.Encoded{Codec: "paa", Data: []byte{1}, N: 1}}
	if err := w.Send(f); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := NewReader(&buf).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != -1 {
		t.Fatalf("label = %d", got.Label)
	}
}

func TestFrameRejectsBadInput(t *testing.T) {
	cases := [][]byte{
		{'X', 'X', 'X', 'X'},
		{'A', 'E', 'S', '2'},                 // truncated
		append([]byte("AES2"), 1, 2, 0, 0),   // zero-length codec name
		append([]byte("AES1"), 1, 2, 1, 'p'), // retired header version
	}
	for i, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)).Recv(); err == nil || err == io.EOF {
			t.Errorf("case %d: bad frame accepted (%v)", i, err)
		}
	}
	// Empty codec name rejected at send time.
	if err := NewWriter(io.Discard).Send(Frame{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

func TestFrameTruncatedMidPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Send(Frame{ID: 1, Enc: compress.Encoded{Codec: "paa", Data: make([]byte, 100), N: 10}})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-10]
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Recv(); err == nil || err == io.EOF {
		t.Fatalf("truncated payload accepted: %v", err)
	}
}

// rawFrameWithN builds frame bytes whose point-count uvarint the Writer
// would refuse to produce, so the Reader's own bound is what gets tested.
func rawFrameWithN(n uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString("AES2")
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		k := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:k])
	}
	put(7)                // id
	put(zigzag(int64(1))) // label
	put(0)                // trace
	put(3)
	buf.WriteString("paa")
	put(n) // point count under test
	put(0) // empty payload
	return buf.Bytes()
}

// TestRecvRejectsHostilePointCount is the regression for the unvalidated
// wire-supplied N: a count that cannot fit the decoder's arithmetic must
// be rejected as a bad frame, not stored into Encoded.N.
func TestRecvRejectsHostilePointCount(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64, 1 << 40, maxFramePoints + 1} {
		_, err := NewReader(bytes.NewReader(rawFrameWithN(n))).Recv()
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("N=%d: want ErrBadFrame, got %v", n, err)
		}
	}
	// The bound itself is still a legal frame.
	f, err := NewReader(bytes.NewReader(rawFrameWithN(maxFramePoints))).Recv()
	if err != nil {
		t.Fatalf("N at bound rejected: %v", err)
	}
	if f.Enc.N != maxFramePoints {
		t.Fatalf("N = %d, want %d", f.Enc.N, maxFramePoints)
	}
}

func TestSendRejectsBadPointCount(t *testing.T) {
	w := NewWriter(io.Discard)
	for _, n := range []int{-1, maxFramePoints + 1} {
		err := w.Send(Frame{Enc: compress.Encoded{Codec: "paa", N: n}})
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("N=%d: want ErrBadFrame, got %v", n, err)
		}
	}
}

func TestAckRoundTripAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeAck(&buf, 42); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	next, err := readAck(bufio.NewReader(bytes.NewReader(full)))
	if err != nil || next != 42 {
		t.Fatalf("round trip: next=%d err=%v", next, err)
	}
	// Every mid-ACK truncation is a bad frame, never a silent zero.
	for i := 1; i < len(full); i++ {
		if _, err := readAck(bufio.NewReader(bytes.NewReader(full[:i]))); !errors.Is(err, ErrBadFrame) {
			t.Errorf("truncated at %d: want ErrBadFrame, got %v", i, err)
		}
	}
	// A clean end of stream is io.EOF, and a foreign magic is a bad frame.
	if _, err := readAck(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	if _, err := readAck(bufio.NewReader(bytes.NewReader([]byte("AES2\x00")))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("foreign magic: want ErrBadFrame, got %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHelloV2(&buf, 7, 32); err != nil {
		t.Fatal(err)
	}
	h, err := readHello(bufio.NewReader(&buf))
	if err != nil || h.deviceID != 7 || h.ackEvery != 32 {
		t.Fatalf("round trip: %+v err=%v", h, err)
	}
	// The retired version-1 (lockstep) hello is rejected like any other
	// unknown version.
	v1 := []byte{'A', 'E', 'H', '1', 1, 99}
	if _, err := readHello(bufio.NewReader(bytes.NewReader(v1))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("version 1: want ErrBadFrame, got %v", err)
	}
	// A connection closed before its first byte is a clean end, not a
	// bad hello.
	if _, err := readHello(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	// Unknown protocol versions are rejected up front.
	bad := []byte{'A', 'E', 'H', '1', 3, 99}
	if _, err := readHello(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("version 3: want ErrBadFrame, got %v", err)
	}
	// A hello torn mid-version reports the read failure, not a bogus
	// "version 0" (the readHello error-conflation regression).
	torn := []byte{'A', 'E', 'H', '1'}
	_, err = readHello(bufio.NewReader(bytes.NewReader(torn)))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn hello: want ErrBadFrame, got %v", err)
	}
	if !strings.Contains(err.Error(), "reading hello version") || strings.Contains(err.Error(), "version 0") {
		t.Fatalf("torn hello error conflates read failure with version mismatch: %v", err)
	}
	// Torn mid-deviceID and mid-ackEvery are likewise diagnosable reads.
	if _, err := readHello(bufio.NewReader(bytes.NewReader([]byte{'A', 'E', 'H', '1', 2}))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn device id: want ErrBadFrame, got %v", err)
	}
	if _, err := readHello(bufio.NewReader(bytes.NewReader([]byte{'A', 'E', 'H', '1', 2, 7}))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn ack interval: want ErrBadFrame, got %v", err)
	}
}

// TestCollectorServeGuards is the regression for Serve silently
// overwriting the live listener: a second Serve and a Serve after Close
// must fail loudly.
func TestCollectorServeGuards(t *testing.T) {
	col := NewCollector(nil, nil)
	if _, err := col.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Serve("127.0.0.1:0"); !errors.Is(err, ErrCollectorServing) {
		t.Fatalf("second Serve: want ErrCollectorServing, got %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Serve("127.0.0.1:0"); !errors.Is(err, ErrCollectorClosed) {
		t.Fatalf("Serve after Close: want ErrCollectorClosed, got %v", err)
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	received := map[uint64][]float64{}
	col := NewCollector(reg, func(f Frame, values []float64) {
		mu.Lock()
		// values is only valid during the callback (pooled decode
		// buffers) — retaining requires a copy.
		received[f.ID] = append([]float64(nil), values...)
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	frames, raws := sampleFrames(t, 12)
	up, err := DialResilient(ResilientConfig{Addr: addr.String(), DeviceID: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(5 * time.Second); err != nil {
		t.Fatalf("%v: received %d/%d frames", err, col.Frames(), len(frames))
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, f := range frames {
		vals, ok := received[f.ID]
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if len(vals) != len(raws[i]) {
			t.Fatalf("frame %d decoded to %d values", i, len(vals))
		}
	}
}

func TestCollectorSurvivesGarbageConnection(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// A connection that does not open with a hello must be dropped
	// without affecting the next one.
	garbage, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	garbage.Write([]byte("not a frame at all"))
	garbage.Close()

	frames, _ := sampleFrames(t, 2)
	s := dialSession(t, addr.String(), 4)
	defer s.conn.Close()
	for i, f := range frames {
		s.send(t, f)
		if next := s.ack(t); next != uint64(i+1) {
			t.Fatalf("ack after frame %d = %d, want %d", i, next, i+1)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.BadConns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage connection not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if col.Frames() != 2 {
		t.Fatalf("frames = %d after garbage connection", col.Frames())
	}
}

func TestCollectorCloseIdempotent(t *testing.T) {
	col := NewCollector(nil, nil)
	if _, err := col.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecvHostileLengthAllocatesLittle is the regression for trusting the
// payload length field: a 14-byte frame claiming a 1 GiB payload used to
// make Recv allocate the full gibibyte before reading a byte. It must now
// fail as a bad frame having allocated only what the input delivered.
func TestRecvHostileLengthAllocatesLittle(t *testing.T) {
	frame := []byte("AES2")
	frame = binary.AppendUvarint(frame, 1)     // id
	frame = binary.AppendUvarint(frame, 0)     // label
	frame = binary.AppendUvarint(frame, 0)     // trace
	frame = binary.AppendUvarint(frame, 1)     // codec name length
	frame = append(frame, 'p')                 // codec name
	frame = binary.AppendUvarint(frame, 8)     // point count
	frame = binary.AppendUvarint(frame, 1<<30) // payload length: never sent
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(frame)).Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Recv allocated %d bytes for a %d-byte frame, want < 1 MiB", got, len(frame))
	}
}
