package bitio

import "io"

// exactAllocMax is the largest length ReadN allocates for up front. Every
// frame and pool entry a real workload produces is far below it, so they
// keep their single allocation.
const exactAllocMax = 64 << 10

// ReadN reads exactly n bytes from r into a fresh slice. n usually comes
// from a length field in untrusted input (a wire frame, a disk dump), so
// ReadN never allocates much more than r actually delivers: up to
// exactAllocMax it allocates n bytes once; above that the buffer starts
// at exactAllocMax and doubles (capped at n) each time the bytes read so
// far fill it. A stream that ends early yields io.ErrUnexpectedEOF
// (io.EOF when it ends before the first byte), like io.ReadFull.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	if n <= exactAllocMax {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, exactAllocMax)
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grown := uint64(2 * cap(buf))
			if grown > n {
				grown = n
			}
			buf = append(make([]byte, 0, grown), buf...)
		}
		end := uint64(cap(buf))
		if end > n {
			end = n
		}
		got, err := io.ReadFull(r, buf[len(buf):end])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}
