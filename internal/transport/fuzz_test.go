package transport

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/compress"
)

// FuzzFrameReader: arbitrary bytes must never panic the frame parser or
// make it allocate past the payload bound.
func FuzzFrameReader(f *testing.F) {
	// Seed with a valid two-frame stream.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	paa := compress.NewPAA()
	enc, err := paa.CompressRatio([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Send(Frame{ID: 1, Label: 2, Enc: enc})
	_ = w.Send(Frame{ID: 2, Label: -1, Enc: enc})
	_ = w.Flush()
	f.Add(buf.Bytes())
	// The watermark-overflow poison frame: ID MaxUint64 parses fine at
	// this layer (the collector rejects it) and must never panic or wrap
	// anything in the reader.
	var poison bytes.Buffer
	pw := NewWriter(&poison)
	_ = pw.Send(Frame{ID: 1<<64 - 1, Label: 0, Enc: enc})
	_ = pw.Flush()
	f.Add(poison.Bytes())
	// A retired header magic in front of an otherwise plausible body:
	// rejected outright.
	f.Add(append([]byte("AES1"), 1, 2, 3, 'p', 'a', 'a', 4, 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded frames per input
			frame, err := r.Recv()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // rejected: fine
			}
			if len(frame.Enc.Data) > maxFrameData {
				t.Fatal("payload bound violated")
			}
			if frame.Enc.N < 0 || frame.Enc.N > maxFramePoints {
				t.Fatalf("point count %d escaped validation", frame.Enc.N)
			}
		}
	})
}

// FuzzAckReader: arbitrary bytes must never panic the ACK parser; torn
// input is an error, never a silently wrong watermark.
func FuzzAckReader(f *testing.F) {
	var buf bytes.Buffer
	_ = writeAck(&buf, 7)
	_ = writeAck(&buf, 1<<40)
	f.Add(buf.Bytes())
	f.Add([]byte("AEA1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded ACKs per input
			if _, err := readAck(r); err != nil {
				return // io.EOF or rejected: fine
			}
		}
	})
}

// FuzzHelloReader: arbitrary bytes must never panic the session-hello
// parser, and every hello it accepts must re-serialize byte-identically
// through writeHelloV2 — the parser accepts exactly the one layout the
// uplink writes.
func FuzzHelloReader(f *testing.F) {
	var buf bytes.Buffer
	_ = writeHelloV2(&buf, 42, 1)
	f.Add(buf.Bytes())
	buf.Reset()
	_ = writeHelloV2(&buf, 1<<40, 0)
	f.Add(buf.Bytes())
	f.Add([]byte{'A', 'E', 'H', '1', 1, 7})    // retired version 1
	f.Add([]byte{'A', 'E', 'H', '1', 2, 0x80}) // torn device id
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		h, err := readHello(r)
		if err != nil {
			return // io.EOF or rejected: fine
		}
		consumed := len(data) - src.Len() - r.Buffered()
		var out bytes.Buffer
		if err := writeHelloV2(&out, h.deviceID, h.ackEvery); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("accepted hello %x re-serializes as %x", data[:consumed], out.Bytes())
		}
	})
}
