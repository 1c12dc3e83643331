// Package compress implements every compression method AdaEdge selects
// among (paper §III-A): the lossless codecs Gzip, Zlib (with levels),
// Snappy, Dictionary, Gorilla, Chimp, Sprintz and BUFF, and the lossy
// codecs BUFF-lossy, PAA, PLA, FFT, LTTB and RRD-sample. All lossy codecs
// are tunable to a target compression ratio and support recoding — applying
// more aggressive compression to already-compressed data without a full
// decompression round trip (paper §IV-E, "virtual decompression").
package compress

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Encoded is a compressed representation of one segment. It is
// self-describing: Data begins with any codec-specific header needed for
// decompression.
type Encoded struct {
	// Codec is the registry name of the codec that produced Data.
	Codec string
	// Data is the compressed payload, including codec-specific headers.
	Data []byte
	// N is the number of original data points.
	N int
}

// Size returns the compressed size in bytes.
func (e Encoded) Size() int { return len(e.Data) }

// Ratio returns compressed size / original size (original = 8 bytes/point).
func (e Encoded) Ratio() float64 {
	if e.N == 0 {
		return 0
	}
	return float64(len(e.Data)) / float64(8*e.N)
}

// Codec is a lossless compression method over float64 segments.
type Codec interface {
	// Name returns the registry name, e.g. "gorilla" or "zlib-9".
	Name() string
	// Compress encodes values.
	Compress(values []float64) (Encoded, error)
	// Decompress restores the original values exactly (for lossless
	// codecs) or an approximation (for lossy codecs).
	Decompress(enc Encoded) ([]float64, error)
}

// IntoCodec is a codec whose hot paths can reuse caller-owned buffers,
// mirroring the EstimatesInto append idiom in internal/bandit. The bit-kernel
// codecs (Gorilla, Chimp, Sprintz, BUFF) implement it so the online
// engine's trial loop can run allocation-free in steady state.
//
// Buffer ownership: CompressInto appends the encoding to dst[:0] and the
// returned Encoded.Data aliases dst's backing array (or a growth of it) —
// the caller must not reuse dst until it is done with the Encoded.
// DecompressInto likewise appends decoded points to dst[:0] and returns a
// slice aliasing it. Neither retains its arguments past the call; see
// DESIGN.md §10 for the full ownership rules.
type IntoCodec interface {
	Codec
	// CompressInto encodes values into dst's backing array, growing it as
	// needed. Equivalent bytes to Compress.
	CompressInto(dst []byte, values []float64) (Encoded, error)
	// DecompressInto decodes enc into dst's backing array, growing it as
	// needed. Equivalent values to Decompress.
	DecompressInto(dst []float64, enc Encoded) ([]float64, error)
}

// CompressInto dispatches to c's buffer-reusing path when it has one and
// falls back to a plain Compress (which allocates fresh output) otherwise.
func CompressInto(c Codec, dst []byte, values []float64) (Encoded, error) {
	if ic, ok := c.(IntoCodec); ok {
		return ic.CompressInto(dst, values)
	}
	return c.Compress(values)
}

// DecompressInto dispatches to c's buffer-reusing decode path when it has
// one, falling back to a plain Decompress.
func DecompressInto(c Codec, dst []float64, enc Encoded) ([]float64, error) {
	if ic, ok := c.(IntoCodec); ok {
		return ic.DecompressInto(dst, enc)
	}
	return c.Decompress(enc)
}

// LossyCodec is a codec tunable to a desired compression ratio. Given a
// target ratio r, CompressRatio produces output of approximately r × 8N
// bytes, trading accuracy for space.
type LossyCodec interface {
	Codec
	// CompressRatio encodes values targeting the given compression ratio
	// in (0, 1].
	CompressRatio(values []float64, ratio float64) (Encoded, error)
	// MinRatio reports the smallest ratio the codec can achieve on a
	// segment of n points (e.g. BUFF-lossy cannot discard the integer
	// part, bounding its minimum ratio).
	MinRatio(values []float64) float64
}

// Recoder is a lossy codec that supports direct recoding: producing a more
// aggressively compressed Encoded from an existing one with the same codec,
// bypassing decompression (paper §IV-E).
type Recoder interface {
	LossyCodec
	// Recode further compresses enc (produced by the same codec) to the
	// new, smaller target ratio.
	Recode(enc Encoded, ratio float64) (Encoded, error)
}

// Errors shared across codecs.
var (
	ErrCodecMismatch   = errors.New("compress: encoded data belongs to a different codec")
	ErrCorrupt         = errors.New("compress: corrupt encoded data")
	ErrRatioInfeasible = errors.New("compress: target ratio not achievable by this codec")
	ErrEmptyInput      = errors.New("compress: empty input")
)

// Registry holds the codec candidate set C the bandit selects from.
//
// Concurrency contract: lookups are read-mostly and guarded by an RWMutex,
// so any number of goroutines (oracle shadow trials, transport
// receivers) may Lookup/Names/Decompress concurrently, including alongside
// a late Register. Codec instances themselves must be stateless across
// calls — every implementation in this package is — since one instance
// serves all of them.
type Registry struct {
	mu     sync.RWMutex
	codecs map[string]Codec // guarded by mu
	order  []string         // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{codecs: make(map[string]Codec)}
}

// Register adds a codec. Registering the same name twice panics: the
// candidate set is assembled once at startup and a duplicate indicates a
// programming error.
func (r *Registry) Register(c Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codecs[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", c.Name()))
	}
	r.codecs[c.Name()] = c
	r.order = append(r.order, c.Name())
}

// Lookup returns the codec registered under name.
func (r *Registry) Lookup(name string) (Codec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.codecs[name]
	return c, ok
}

// Names returns registered codec names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Lossless returns the names of all lossless codecs, sorted by
// registration order.
func (r *Registry) Lossless() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, n := range r.order {
		if _, lossy := r.codecs[n].(LossyCodec); !lossy {
			out = append(out, n)
		}
	}
	return out
}

// Lossy returns the names of all lossy codecs.
func (r *Registry) Lossy() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, n := range r.order {
		if _, lossy := r.codecs[n].(LossyCodec); lossy {
			out = append(out, n)
		}
	}
	return out
}

// Decompress dispatches to the codec recorded in enc. The codec runs
// outside the registry lock.
func (r *Registry) Decompress(enc Encoded) ([]float64, error) {
	c, ok := r.Lookup(enc.Codec)
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", enc.Codec)
	}
	return c.Decompress(enc)
}

// DecompressInto dispatches to the codec recorded in enc, reusing dst's
// backing array when the codec supports it.
func (r *Registry) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	c, ok := r.Lookup(enc.Codec)
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", enc.Codec)
	}
	return DecompressInto(c, dst, enc)
}

// DefaultRegistry assembles the full candidate set evaluated in the paper:
// lossless Gzip, Snappy, Zlib (levels 1/6/9), Dictionary, Gorilla, Chimp,
// Sprintz, BUFF, Elf; lossy PAA, PLA, FFT, LTTB, BUFF-lossy, RRD-sample.
// precision is the dataset's decimal precision (paper: 4 for CBF, 5 for
// UCR, 6 for UCI).
func DefaultRegistry(precision int) *Registry {
	r := NewRegistry()
	// Lossless.
	r.Register(NewGzip())
	r.Register(NewSnappy())
	r.Register(NewZlib(1))
	r.Register(NewZlib(6))
	r.Register(NewZlib(9))
	r.Register(NewDict())
	r.Register(NewGorilla())
	r.Register(NewChimp())
	r.Register(NewSprintz(precision))
	r.Register(NewBUFF(precision))
	r.Register(NewElf(precision))
	// Lossy.
	r.Register(NewBUFFLossy(precision))
	r.Register(NewPAA())
	r.Register(NewPLA())
	r.Register(NewFFT())
	r.Register(NewLTTB())
	r.Register(NewRRDSample(1))
	return r
}

// ExtendedRegistry is DefaultRegistry plus the codecs modelled on the
// related-work systems (paper §II): ModelarDB-style multi-model
// compression and SummaryStore-style aggregate summaries. They are kept
// out of the paper's candidate set so the figure experiments match the
// paper, but are available for the doubled-decision-space experiments
// (Fig 15 style) and for users who want them.
func ExtendedRegistry(precision int) *Registry {
	r := DefaultRegistry(precision)
	r.Register(NewModelar())
	r.Register(NewSummary())
	return r
}

// SortedNames returns all codec names sorted lexicographically; useful for
// deterministic test output.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}
