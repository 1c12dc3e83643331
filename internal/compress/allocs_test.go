package compress

import (
	"fmt"
	"testing"
)

// Steady-state allocation pins for the bit-kernel codecs. These four sit
// under every codec trial the online evaluator runs, so a single
// stray allocation per Encode/Decode multiplies across arms × segments.
// The contract: after one warm-up call has sized the caller-owned scratch,
// CompressInto and DecompressInto allocate nothing.

// allocSignal is shaped to exercise every kernel path: repeats (Gorilla /
// Chimp zero-XOR flags), smooth ramps (Sprintz residual widths), and a
// non-trivial value range (BUFF width selection).
func allocSignal(n int) []float64 {
	sig := make([]float64, n)
	for i := range sig {
		switch {
		case i%7 == 3:
			sig[i] = sig[i-1] // repeat run
		default:
			sig[i] = float64(i%31)/8 + float64(i)/997
		}
	}
	return sig
}

func testCodecZeroAlloc(t *testing.T, c IntoCodec) {
	t.Helper()
	sig := allocSignal(256)

	// Warm-up sizes the scratch buffers.
	enc, err := c.CompressInto(nil, sig)
	if err != nil {
		t.Fatal(err)
	}
	encBuf := enc.Data
	decBuf, err := c.DecompressInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}

	if got := testing.AllocsPerRun(200, func() {
		e, err := c.CompressInto(encBuf[:0], sig)
		if err != nil {
			t.Fatal(err)
		}
		encBuf = e.Data
		enc = e
	}); got != 0 {
		t.Errorf("%s: CompressInto allocates %v/op steady-state, want 0", c.Name(), got)
	}

	if got := testing.AllocsPerRun(200, func() {
		v, err := c.DecompressInto(decBuf[:0], enc)
		if err != nil {
			t.Fatal(err)
		}
		decBuf = v
	}); got != 0 {
		t.Errorf("%s: DecompressInto allocates %v/op steady-state, want 0", c.Name(), got)
	}
}

func TestAllocsGorilla(t *testing.T) { testCodecZeroAlloc(t, NewGorilla()) }
func TestAllocsChimp(t *testing.T)   { testCodecZeroAlloc(t, NewChimp()) }
func TestAllocsSprintz(t *testing.T) { testCodecZeroAlloc(t, NewSprintz(4)) }
func TestAllocsBUFF(t *testing.T)    { testCodecZeroAlloc(t, NewBUFF(4)) }

// TestAllocsIntoEquivalence pins that the scratch paths produce exactly
// the bytes and values of the allocating paths, at lengths straddling the
// kernels' internal boundaries (Sprintz 8-blocks, partial final bytes).
func TestAllocsIntoEquivalence(t *testing.T) {
	codecs := []IntoCodec{NewGorilla(), NewChimp(), NewSprintz(4), NewBUFF(4), NewBUFFLossy(4)}
	for _, c := range codecs {
		for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 256} {
			sig := allocSignal(n)
			want, err := c.Compress(sig)
			if err != nil {
				t.Fatalf("%s n=%d: %v", c.Name(), n, err)
			}
			scratch := make([]byte, 0, 8)
			got, err := c.CompressInto(scratch, sig)
			if err != nil {
				t.Fatalf("%s n=%d: CompressInto: %v", c.Name(), n, err)
			}
			if string(got.Data) != string(want.Data) || got.N != want.N {
				t.Fatalf("%s n=%d: CompressInto bytes differ from Compress", c.Name(), n)
			}
			wantV, err := c.Decompress(want)
			if err != nil {
				t.Fatal(err)
			}
			gotV, err := c.DecompressInto(make([]float64, 0, 1), got)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gotV) != fmt.Sprint(wantV) {
				t.Fatalf("%s n=%d: DecompressInto values differ from Decompress", c.Name(), n)
			}
		}
	}
}
