package compress

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// Flate-based codecs pool their writer and reader state: DEFLATE setup
// (Huffman tables, window buffers) dominates the cost of (de)compressing
// the ~1 KiB segments AdaEdge works with, and pooling amortizes it the way
// a long-lived C zlib stream would.

// Gzip is the general-purpose byte compressor, operating on the IEEE-754
// byte representation of the segment. It is typically the slowest codec
// but achieves good ratios on low-entropy data (paper Fig 2: Gzip fails
// the 4 M pts/s ingest rate).
type Gzip struct {
	writers sync.Pool // *gzip.Writer
	readers sync.Pool // *gzip.Reader
}

// NewGzip returns the Gzip codec at the default compression level.
func NewGzip() *Gzip { return &Gzip{} }

// Name implements Codec.
func (*Gzip) Name() string { return "gzip" }

// Compress implements Codec.
func (g *Gzip) Compress(values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	var buf bytes.Buffer
	w, _ := g.writers.Get().(*gzip.Writer)
	if w == nil {
		w = gzip.NewWriter(&buf)
	} else {
		w.Reset(&buf)
	}
	if _, err := w.Write(floatsToBytes(values)); err != nil {
		return Encoded{}, err
	}
	if err := w.Close(); err != nil {
		return Encoded{}, err
	}
	g.writers.Put(w)
	return Encoded{Codec: "gzip", Data: buf.Bytes(), N: len(values)}, nil
}

// Decompress implements Codec.
func (g *Gzip) Decompress(enc Encoded) ([]float64, error) {
	if enc.Codec != g.Name() {
		return nil, ErrCodecMismatch
	}
	r, _ := g.readers.Get().(*gzip.Reader)
	if r == nil {
		var err error
		r, err = gzip.NewReader(bytes.NewReader(enc.Data))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	} else if err := r.Reset(bytes.NewReader(enc.Data)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	g.readers.Put(r)
	return bytesToFloats(raw)
}

// Zlib is the DEFLATE byte compressor with a configurable level, covering
// the paper's zlib-1/zlib-6/zlib-9 candidates (Fig 15).
type Zlib struct {
	level   int
	name    string
	writers sync.Pool // *zlib.Writer
	readers sync.Pool // io.ReadCloser implementing zlib.Resetter
}

// NewZlib returns a Zlib codec at the given level (1..9).
func NewZlib(level int) *Zlib {
	if level < 1 {
		level = 1
	}
	if level > 9 {
		level = 9
	}
	return &Zlib{level: level, name: fmt.Sprintf("zlib-%d", level)}
}

// Name implements Codec.
func (z *Zlib) Name() string { return z.name }

// Compress implements Codec.
func (z *Zlib) Compress(values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	var buf bytes.Buffer
	w, _ := z.writers.Get().(*zlib.Writer)
	if w == nil {
		var err error
		w, err = zlib.NewWriterLevel(&buf, z.level)
		if err != nil {
			return Encoded{}, err
		}
	} else {
		w.Reset(&buf)
	}
	if _, err := w.Write(floatsToBytes(values)); err != nil {
		return Encoded{}, err
	}
	if err := w.Close(); err != nil {
		return Encoded{}, err
	}
	z.writers.Put(w)
	return Encoded{Codec: z.name, Data: buf.Bytes(), N: len(values)}, nil
}

// Decompress implements Codec.
func (z *Zlib) Decompress(enc Encoded) ([]float64, error) {
	if enc.Codec != z.name {
		return nil, ErrCodecMismatch
	}
	r, _ := z.readers.Get().(io.ReadCloser)
	if r == nil {
		var err error
		r, err = zlib.NewReader(bytes.NewReader(enc.Data))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	} else if err := r.(zlib.Resetter).Reset(bytes.NewReader(enc.Data), nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	z.readers.Put(r)
	return bytesToFloats(raw)
}
