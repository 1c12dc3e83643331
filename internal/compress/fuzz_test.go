package compress

import (
	"testing"
)

// Decoder robustness: no codec may panic, hang, or allocate unboundedly on
// arbitrary bytes — corrupt flash and truncated transmissions are routine
// on edge devices. Each fuzz target's seed corpus includes valid encodings
// so the happy path is exercised too; run with `go test -fuzz FuzzX` for a
// real campaign, or as plain unit tests for the corpus.

// fuzzSeeds produces valid encodings for the corpus.
func fuzzSeeds(t interface{ Helper() }, c Codec) [][]byte {
	sig := []float64{1.5, -2.25, 3.125, 3.125, 7, -0.0625, 42, 42, 42, 0.5}
	var seeds [][]byte
	if enc, err := c.Compress(sig); err == nil {
		seeds = append(seeds, enc.Data)
	}
	// Growth-boundary lengths: segments whose encodings land on the edges
	// of the kernels' internal block and buffer boundaries (Sprintz
	// 8-residual blocks, partial trailing bytes, append-doubling points of
	// the pre-pooling writers), where the scratch-reuse paths are most
	// likely to mis-handle a reallocation.
	for _, n := range []int{1, 8, 9, 64, 65, 255, 257} {
		edge := make([]float64, n)
		for i := range edge {
			edge[i] = float64((i*11)%19)/8 - 0.75
		}
		if enc, err := CompressInto(c, make([]byte, 0, 8), edge); err == nil {
			seeds = append(seeds, append([]byte(nil), enc.Data...))
		}
	}
	if lc, ok := c.(LossyCodec); ok {
		long := make([]float64, 256)
		for i := range long {
			long[i] = float64(i%17) / 4
		}
		if enc, err := lc.CompressRatio(long, 0.2); err == nil {
			seeds = append(seeds, enc.Data)
		}
	}
	return seeds
}

// fuzzDecode runs one decode attempt, requiring graceful error handling.
func fuzzDecode(t *testing.T, c Codec, data []byte) {
	t.Helper()
	enc := Encoded{Codec: c.Name(), Data: data, N: 128}
	vals, err := c.Decompress(enc)
	if err != nil {
		return // rejected: fine
	}
	if len(vals) > maxDecodePoints {
		t.Fatalf("decoded %d values past the allocation bound", len(vals))
	}
}

func fuzzCodec(f *testing.F, mk func() Codec) {
	c := mk()
	for _, seed := range fuzzSeeds(f, c) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, c, data)
	})
}

func FuzzGorillaDecode(f *testing.F)   { fuzzCodec(f, func() Codec { return NewGorilla() }) }
func FuzzChimpDecode(f *testing.F)     { fuzzCodec(f, func() Codec { return NewChimp() }) }
func FuzzSprintzDecode(f *testing.F)   { fuzzCodec(f, func() Codec { return NewSprintz(4) }) }
func FuzzBUFFDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewBUFF(4) }) }
func FuzzElfDecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewElf(4) }) }
func FuzzSnappyDecode(f *testing.F)    { fuzzCodec(f, func() Codec { return NewSnappy() }) }
func FuzzDictDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewDict() }) }
func FuzzPAADecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewPAA() }) }
func FuzzPLADecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewPLA() }) }
func FuzzFFTDecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewFFT() }) }
func FuzzLTTBDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewLTTB() }) }
func FuzzRRDDecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewRRDSample(1) }) }
func FuzzModelarDecode(f *testing.F)   { fuzzCodec(f, func() Codec { return NewModelar() }) }
func FuzzSummaryDecode(f *testing.F)   { fuzzCodec(f, func() Codec { return NewSummary() }) }
func FuzzBUFFLossyDecode(f *testing.F) { fuzzCodec(f, func() Codec { return NewBUFFLossy(4) }) }

// Hostile-header regression cases caught during hardening: forged counts
// must be rejected before any allocation.
func TestHostileHeadersRejected(t *testing.T) {
	hugeCount := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	reg := ExtendedRegistry(4)
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		if _, err := c.Decompress(Encoded{Codec: name, Data: hugeCount, N: 128}); err == nil {
			t.Errorf("%s: accepted a 2^63 count header", name)
		}
		if _, err := c.Decompress(Encoded{Codec: name, Data: nil, N: 128}); err == nil {
			t.Errorf("%s: accepted empty data", name)
		}
	}
	// An FFT payload declaring more points than maxFFTDecodePoints and no
	// coefficients: the inverse transform alone would allocate gigabytes.
	hugeFFT := putUvarint(nil, maxFFTDecodePoints+1)
	hugeFFT = putUvarint(hugeFFT, 0)
	if _, err := NewFFT().Decompress(Encoded{Codec: "fft", Data: hugeFFT, N: 128}); err == nil {
		t.Error("fft: accepted a point count past maxFFTDecodePoints")
	}
}
