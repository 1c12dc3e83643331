package bitio

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestReadN(t *testing.T) {
	src := make([]byte, 3*exactAllocMax+17) // exercises the chunked path
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, exactAllocMax, exactAllocMax + 1, len(src)} {
		got, err := ReadN(bytes.NewReader(src), uint64(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, src[:n]) {
			t.Fatalf("n=%d: read bytes differ from the source", n)
		}
	}
}

func TestReadNShortInput(t *testing.T) {
	for _, tc := range []struct {
		have, want int
		err        error
	}{
		{0, 10, io.EOF},
		{5, 10, io.ErrUnexpectedEOF},
		{0, 1 << 30, io.EOF},
		{exactAllocMax + 3, 1 << 30, io.ErrUnexpectedEOF},
	} {
		_, err := ReadN(bytes.NewReader(make([]byte, tc.have)), uint64(tc.want))
		if !errors.Is(err, tc.err) {
			t.Errorf("have %d, want %d: err = %v, want %v", tc.have, tc.want, err, tc.err)
		}
	}
}
