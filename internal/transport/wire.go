package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Session wire format. A resilient uplink opens each connection with a
// hello frame identifying the device; the collector answers the segment
// frames on that connection with cumulative ACKs. A connection that does
// not open with a hello is a bad connection.
//
// Hello (device → collector, once per connection):
//
//	magic "AEH1" | uvarint 2 | uvarint deviceID | uvarint ackEvery
//
// The device streams frames without waiting, and the collector coalesces
// ACKs: one every ackEvery frames, or sooner when its read side goes idle
// (nothing buffered), so the tail of a burst is acknowledged promptly.
// ackEvery is the device's request; the collector may ack more often
// (idle flush) but never less. ackEvery of 0 asks for the collector's
// default, and 1 is lockstep: one ACK per frame, which the uplink waits
// for before sending the next (see ResilientUplink).
//
// ACK (collector → device):
//
//	magic "AEA1" | uvarint next
//
// next is the cumulative watermark: every segment ID < next has been
// delivered to the sink (or deduplicated). The device drops spooled
// segments below next and, after a reconnect, resends from next upward —
// at-least-once on the wire, exactly-once at the sink.

var (
	helloMagic = [4]byte{'A', 'E', 'H', '1'}
	ackMagic   = [4]byte{'A', 'E', 'A', '1'}
)

// helloVersion2 is the session protocol version a hello carries; any
// other version is rejected.
const helloVersion2 = 2

// hello carries the negotiated parameters of one session.
type hello struct {
	deviceID uint64
	ackEvery uint64 // requested ACK coalescing factor (0 = collector default)
}

// writeHelloV2 emits the session hello for deviceID, requesting an ACK
// at least every ackEvery frames.
func writeHelloV2(w io.Writer, deviceID, ackEvery uint64) error {
	var buf [4 + 3*binary.MaxVarintLen64]byte
	n := copy(buf[:], helloMagic[:])
	n += binary.PutUvarint(buf[n:], helloVersion2)
	n += binary.PutUvarint(buf[n:], deviceID)
	n += binary.PutUvarint(buf[n:], ackEvery)
	_, err := w.Write(buf[:n])
	return err
}

// readHello parses a session hello. A connection closed before its first
// byte is io.EOF; a failed read after that is reported as the underlying
// error (torn hello), distinct from a cleanly-read but unsupported
// version.
func readHello(r *bufio.Reader) (hello, error) {
	var h hello
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if err == io.EOF {
			return h, io.EOF
		}
		return h, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if magic != helloMagic {
		return h, ErrBadFrame
	}
	version, err := readHelloField(r, "version")
	if err != nil {
		return h, err
	}
	if version != helloVersion2 {
		return h, fmt.Errorf("%w: hello version %d", ErrBadFrame, version)
	}
	if h.deviceID, err = readHelloField(r, "device id"); err != nil {
		return h, err
	}
	if h.ackEvery, err = readHelloField(r, "ack interval"); err != nil {
		return h, err
	}
	return h, nil
}

// readHelloField reads one hello uvarint and rejects overlong encodings,
// so an accepted hello has exactly one byte form: the one writeHelloV2
// emits.
func readHelloField(r *bufio.Reader, what string) (uint64, error) {
	cr := countingByteReader{r: r}
	v, err := binary.ReadUvarint(&cr)
	if err != nil {
		return 0, fmt.Errorf("%w: reading hello %s: %v", ErrBadFrame, what, err)
	}
	var tmp [binary.MaxVarintLen64]byte
	if cr.n != binary.PutUvarint(tmp[:], v) {
		return 0, fmt.Errorf("%w: hello %s is not minimally encoded", ErrBadFrame, what)
	}
	return v, nil
}

// countingByteReader counts the bytes a uvarint read consumed.
type countingByteReader struct {
	r *bufio.Reader
	n int
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// writeAck emits a cumulative acknowledgement: all IDs < next received.
func writeAck(w io.Writer, next uint64) error {
	var buf [4 + binary.MaxVarintLen64]byte
	n := copy(buf[:], ackMagic[:])
	n += binary.PutUvarint(buf[n:], next)
	_, err := w.Write(buf[:n])
	return err
}

// readAck parses the next cumulative ACK. Truncation mid-ACK is
// ErrBadFrame, like any other torn frame.
func readAck(r *bufio.Reader) (next uint64, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if magic != ackMagic {
		return 0, ErrBadFrame
	}
	next, err = binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return next, nil
}
