package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/compress"
)

// Frame is one transmitted segment.
type Frame struct {
	// ID is the segment id on the sending device.
	ID uint64
	// Label is the segment's class label (-1 when unknown).
	Label int
	// Trace is the span identity joining this frame's collector-side
	// delivery to its device-side lifecycle (see internal/obs); zero
	// means untraced.
	Trace uint64
	// Enc is the compressed representation plus codec metadata.
	Enc compress.Encoded
}

// frameMagicV2 leads every frame. The "2" is the header version: the
// trace uvarint sits between the label and the codec name.
var frameMagicV2 = [4]byte{'A', 'E', 'S', '2'}

// ErrBadFrame is returned on malformed input.
var ErrBadFrame = errors.New("transport: bad frame")

// maxFrameData bounds a frame's payload against hostile length fields.
const maxFrameData = 1 << 30

// maxFramePoints bounds the wire-supplied point count N. The count is
// metadata (decoders allocate from it and Ratio/cost accounting divide by
// it), so a hostile uvarint up to 2^64-1 must not reach Encoded.N: it
// overflows int on 32-bit platforms and poisons every N-derived quantity.
// 1<<27 points is 1 GiB of raw float64s — matching maxFrameData — and
// comfortably fits an int32.
const maxFramePoints = 1 << 27

// Writer frames segments onto an io.Writer.
type Writer struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (t *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(t.tmp[:], v)
	_, err := t.w.Write(t.tmp[:n])
	return err
}

// Send writes one frame. Call Flush (or Send more frames and then Flush)
// to push buffered bytes to the connection.
func (t *Writer) Send(f Frame) error {
	if len(f.Enc.Codec) == 0 || len(f.Enc.Codec) > 255 {
		return fmt.Errorf("%w: codec name %q", ErrBadFrame, f.Enc.Codec)
	}
	if f.Enc.N < 0 || f.Enc.N > maxFramePoints {
		return fmt.Errorf("%w: point count %d", ErrBadFrame, f.Enc.N)
	}
	if _, err := t.w.Write(frameMagicV2[:]); err != nil {
		return err
	}
	if err := t.uvarint(f.ID); err != nil {
		return err
	}
	if err := t.uvarint(zigzag(int64(f.Label))); err != nil {
		return err
	}
	if err := t.uvarint(f.Trace); err != nil {
		return err
	}
	if err := t.uvarint(uint64(len(f.Enc.Codec))); err != nil {
		return err
	}
	if _, err := t.w.WriteString(f.Enc.Codec); err != nil {
		return err
	}
	if err := t.uvarint(uint64(f.Enc.N)); err != nil {
		return err
	}
	if err := t.uvarint(uint64(len(f.Enc.Data))); err != nil {
		return err
	}
	_, err := t.w.Write(f.Enc.Data)
	return err
}

// Flush pushes buffered frames downstream.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader parses frames from an io.Reader.
type Reader struct {
	r *bufio.Reader
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Recv reads the next frame. io.EOF signals a clean end of stream (the
// sender closed between frames); any mid-frame truncation is an error.
func (t *Reader) Recv() (Frame, error) {
	var magic [4]byte
	if _, err := io.ReadFull(t.r, magic[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if magic != frameMagicV2 {
		return Frame{}, ErrBadFrame
	}
	var f Frame
	var err error
	if f.ID, err = binary.ReadUvarint(t.r); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	labelZZ, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	f.Label = int(unzigzag(labelZZ))
	if f.Trace, err = binary.ReadUvarint(t.r); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	nameLen, err := binary.ReadUvarint(t.r)
	if err != nil || nameLen == 0 || nameLen > 255 {
		return Frame{}, ErrBadFrame
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(t.r, name); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	f.Enc.Codec = string(name)
	n, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if n > maxFramePoints {
		return Frame{}, fmt.Errorf("%w: point count %d", ErrBadFrame, n)
	}
	f.Enc.N = int(n)
	dataLen, err := binary.ReadUvarint(t.r)
	if err != nil || dataLen > maxFrameData {
		return Frame{}, ErrBadFrame
	}
	// dataLen is untrusted: ReadN allocates for the bytes that actually
	// arrive, so a short frame claiming 1 GiB costs what it carries.
	if f.Enc.Data, err = bitio.ReadN(t.r, dataLen); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return f, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
