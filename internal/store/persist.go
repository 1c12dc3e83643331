package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/bitio"
	"repro/internal/compress"
)

// Persistence for the compressed pool. Each segment in the framework is
// associated with metadata describing its compression configuration
// (paper §IV-C), and the offline mode's whole purpose is to hold data for
// later offloading — so the pool must be serializable: spilling to local
// disk, shipping over a restored link, or surviving a device restart.
//
// Format (little-endian, varint-framed):
//
//	magic "AEP1"
//	uvarint segmentCount
//	per segment:
//	  uvarint id | zigzag-varint label | 1B flags (bit0 lossless) |
//	  uvarint level | uvarint len(codec) | codec |
//	  uvarint N | uvarint len(data) | data

var persistMagic = [4]byte{'A', 'E', 'P', '1'}

// ErrBadFormat is returned when the input is not a valid pool dump.
var ErrBadFormat = errors.New("store: bad persistence format")

// maxSegmentPoints bounds a stored entry's point count N, the same bound
// the transport puts on a frame's: 1<<27 points is 1 GiB of raw float64s
// and fits an int32, so a hostile count cannot overflow Encoded.N.
const maxSegmentPoints = 1 << 27

// WriteTo serializes every pool entry (sorted by id) to w and returns the
// byte count. EvalRaw measurement data is never persisted.
func (p *Pool) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(bw.Write(persistMagic[:])); err != nil {
		return written, err
	}

	var entries []*Entry
	p.Each(func(e *Entry) { entries = append(entries, e) })
	sortEntriesByID(entries)

	var tmp [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		return count(bw.Write(tmp[:n]))
	}
	if err := writeUvarint(uint64(len(entries))); err != nil {
		return written, err
	}
	for _, e := range entries {
		if err := writeUvarint(e.ID); err != nil {
			return written, err
		}
		if err := writeUvarint(zigzag64(int64(e.Label))); err != nil {
			return written, err
		}
		flags := byte(0)
		if e.Lossless {
			flags |= 1
		}
		if err := count(bw.Write([]byte{flags})); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(e.Level)); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(len(e.Enc.Codec))); err != nil {
			return written, err
		}
		if err := count(bw.Write([]byte(e.Enc.Codec))); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(e.Enc.N)); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(len(e.Enc.Data))); err != nil {
			return written, err
		}
		if err := count(bw.Write(e.Enc.Data)); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// ReadPool deserializes a pool dump into a fresh Pool with the given
// policy (nil = LRU). Entries re-enter the policy in id order.
func ReadPool(r io.Reader, policy Policy) (*Pool, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != persistMagic {
		return nil, ErrBadFormat
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	const maxSegments = 1 << 26 // sanity bound against corrupt counts
	if count > maxSegments {
		return nil, ErrBadFormat
	}
	pool := NewPool(policy)
	for i := uint64(0); i < count; i++ {
		e := &Entry{}
		if e.ID, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		labelZZ, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		e.Label = int(unzigzag64(labelZZ))
		var flags [1]byte
		if _, err := io.ReadFull(br, flags[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		e.Lossless = flags[0]&1 != 0
		level, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		e.Level = int(level)
		codec, err := readString(br)
		if err != nil {
			return nil, err
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		if n > maxSegmentPoints {
			return nil, fmt.Errorf("%w: point count %d", ErrBadFormat, n)
		}
		dataLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		const maxSegmentBytes = 1 << 30
		if dataLen > maxSegmentBytes {
			return nil, ErrBadFormat
		}
		// dataLen is untrusted: ReadN allocates for the bytes that
		// actually arrive, so a truncated dump cannot claim 1 GiB.
		data, err := bitio.ReadN(br, dataLen)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		e.Enc = compress.Encoded{Codec: codec, Data: data, N: int(n)}
		pool.Put(e)
	}
	return pool, nil
}

func readString(br *bufio.Reader) (string, error) {
	l, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	const maxName = 256
	if l > maxName {
		return "", ErrBadFormat
	}
	buf := make([]byte, l)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return string(buf), nil
}

func zigzag64(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func sortEntriesByID(entries []*Entry) {
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })
}
