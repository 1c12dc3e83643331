package compress

import (
	"encoding/binary"
	"math"

	"repro/internal/bitio"
)

// buffCore is the shared implementation behind the lossless BUFF codec and
// its lossy variant (Liu et al., VLDB 2021). Values are quantized at the
// dataset's decimal precision, offset against the segment minimum, and
// stored as fixed-width integers. The lossy variant discards low-order
// ("insignificant") bits; because the integer part can never be discarded,
// BUFF-lossy has a hard minimum achievable ratio — the behaviour behind its
// failure below ratio ≈0.125 on CBF in the paper (Fig 7).
//
// Layout: uvarint n | uvarint precision | zigzag-varint minQ | 1B width |
// 1B dropped | bit-packed deltas (width bits each).
type buffCore struct {
	precision int
	scale     float64
}

func (b buffCore) encode(values []float64, dropLimit int) (Encoded, error) {
	return b.encodeInto(nil, values, dropLimit)
}

// encodeInto appends the encoding to dst[:0]. The quantization runs twice —
// once for the min/max scan, once while packing — trading a handful of
// rounds per point for dropping the per-segment int64 staging slice, which
// is what keeps the online trial loop allocation-free.
func (b buffCore) encodeInto(dst []byte, values []float64, dropLimit int) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	minQ := int64(math.MaxInt64)
	maxQ := int64(math.MinInt64)
	for _, v := range values {
		q := int64(math.Round(v * b.scale))
		if q < minQ {
			minQ = q
		}
		if q > maxQ {
			maxQ = q
		}
	}
	width := bitsFor(uint64(maxQ - minQ))
	drop := dropLimit
	if drop >= width {
		drop = width - 1
	}
	if drop < 0 {
		drop = 0
	}
	storedWidth := width - drop

	if cap(dst) == 0 {
		dst = make([]byte, 0, len(values)*storedWidth/8+16)
	}
	out := putUvarint(dst[:0], uint64(len(values)))
	out = putUvarint(out, uint64(b.precision))
	out = binary.AppendUvarint(out, bitio.ZigZag(minQ))
	out = append(out, byte(width), byte(drop))
	var w bitio.Writer
	w.ResetBuf(out)
	for _, v := range values {
		q := int64(math.Round(v * b.scale))
		w.WriteBits(uint64(q-minQ)>>uint(drop), uint(storedWidth))
	}
	return Encoded{Data: w.Bytes(), N: len(values)}, nil
}

func (b buffCore) decode(enc Encoded) ([]float64, error) {
	return b.decodeInto(nil, enc)
}

func (b buffCore) decodeInto(dst []float64, enc Encoded) ([]float64, error) {
	data := enc.Data
	count, n, err := readCount(data)
	if err != nil {
		return nil, err
	}
	data = data[n:]
	prec, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	data = data[n:]
	minZZ, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	data = data[n:]
	if len(data) < 2 {
		return nil, ErrCorrupt
	}
	width, drop := int(data[0]), int(data[1])
	if drop >= width || width > 64 {
		return nil, ErrCorrupt
	}
	data = data[2:]
	minQ := bitio.UnZigZag(minZZ)
	scale := math.Pow10(int(prec))
	storedWidth := width - drop
	// Reconstruct at the midpoint of the truncated range to halve the
	// worst-case error.
	var bias uint64
	if drop > 0 {
		bias = 1 << uint(drop-1)
	}
	var r bitio.Reader
	r.Reset(data)
	if uint64(cap(dst)) < count {
		dst = make([]float64, count)
	}
	out := dst[:count]
	for i := range out {
		d, err := r.ReadBits(uint(storedWidth))
		if err != nil {
			return nil, ErrCorrupt
		}
		out[i] = float64(int64(d<<uint(drop)+bias)+minQ) / scale
	}
	return out, nil
}

// headerSize returns the byte size of enc's header (everything before the
// packed deltas), or -1 if corrupt.
func buffHeaderSize(data []byte) (hdr, width, drop int) {
	p := 0
	for _, field := range []int{0, 1, 2} {
		_ = field
		_, n := binary.Uvarint(data[p:])
		if n <= 0 {
			return -1, 0, 0
		}
		p += n
	}
	if len(data) < p+2 {
		return -1, 0, 0
	}
	return p + 2, int(data[p]), int(data[p+1])
}

// BUFF is the lossless bounded-float codec: exact round-trip for data
// quantized at the configured precision.
type BUFF struct{ core buffCore }

// NewBUFF returns a lossless BUFF codec for data at the given decimal
// precision.
func NewBUFF(precision int) *BUFF {
	return &BUFF{core: buffCore{precision: precision, scale: math.Pow10(precision)}}
}

// Name implements Codec.
func (*BUFF) Name() string { return "buff" }

// Compress implements Codec.
func (b *BUFF) Compress(values []float64) (Encoded, error) {
	return b.CompressInto(nil, values)
}

// CompressInto implements IntoCodec.
func (b *BUFF) CompressInto(dst []byte, values []float64) (Encoded, error) {
	enc, err := b.core.encodeInto(dst, values, 0)
	if err != nil {
		return Encoded{}, err
	}
	enc.Codec = b.Name()
	return enc, nil
}

// Decompress implements Codec.
func (b *BUFF) Decompress(enc Encoded) ([]float64, error) {
	return b.DecompressInto(nil, enc)
}

// DecompressInto implements IntoCodec.
func (b *BUFF) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != b.Name() {
		return nil, ErrCodecMismatch
	}
	return b.core.decodeInto(dst, enc)
}

// BUFFLossy is BUFF acting as a lossy codec by discarding insignificant
// low-order bits. It minimally perturbs values, which is why it wins on
// tree-based ML workloads at moderate ratios (paper Figs 5–7), but it
// cannot compress past the integer part of the value range.
type BUFFLossy struct{ core buffCore }

// NewBUFFLossy returns the lossy BUFF codec for the given precision.
func NewBUFFLossy(precision int) *BUFFLossy {
	return &BUFFLossy{core: buffCore{precision: precision, scale: math.Pow10(precision)}}
}

// Name implements Codec.
func (*BUFFLossy) Name() string { return "bufflossy" }

// Compress implements Codec (no truncation).
func (b *BUFFLossy) Compress(values []float64) (Encoded, error) {
	return b.CompressInto(nil, values)
}

// CompressInto implements IntoCodec (no truncation).
func (b *BUFFLossy) CompressInto(dst []byte, values []float64) (Encoded, error) {
	enc, err := b.core.encodeInto(dst, values, 0)
	if err != nil {
		return Encoded{}, err
	}
	enc.Codec = b.Name()
	return enc, nil
}

// Decompress implements Codec.
func (b *BUFFLossy) Decompress(enc Encoded) ([]float64, error) {
	return b.DecompressInto(nil, enc)
}

// DecompressInto implements IntoCodec.
func (b *BUFFLossy) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != b.Name() {
		return nil, ErrCodecMismatch
	}
	return b.core.decodeInto(dst, enc)
}

// widthForRatio converts a target ratio into the per-value bit width
// available after the header.
func buffWidthForRatio(n int, headerBytes int, ratio float64) int {
	budgetBits := ratio*float64(8*n)*8 - float64(8*headerBytes)
	if budgetBits < 0 {
		return 0
	}
	return int(budgetBits) / n
}

// CompressRatio implements LossyCodec.
func (b *BUFFLossy) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	full, err := b.core.encode(values, 0)
	if err != nil {
		return Encoded{}, err
	}
	hdr, width, _ := buffHeaderSize(full.Data)
	if hdr < 0 {
		return Encoded{}, ErrCorrupt
	}
	target := buffWidthForRatio(len(values), hdr, ratio)
	if target >= width {
		full.Codec = b.Name()
		return full, nil
	}
	if target < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	enc, err := b.core.encode(values, width-target)
	if err != nil {
		return Encoded{}, err
	}
	enc.Codec = b.Name()
	return enc, nil
}

// MinRatio implements LossyCodec: at least one bit per value plus header.
func (b *BUFFLossy) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	full, err := b.core.encode(values, 0)
	if err != nil {
		return 1
	}
	hdr, width, _ := buffHeaderSize(full.Data)
	if hdr < 0 {
		return 1
	}
	// BUFF-lossy may only discard fraction bits: the integer part of the
	// value range must survive.
	fracBits := bitsFor(uint64(b.core.scale) - 1)
	minWidth := width - fracBits
	if minWidth < 1 {
		minWidth = 1
	}
	return (float64(8*hdr) + float64(n*minWidth)) / float64(8*8*n)
}

// Recode implements Recoder: truncates additional low-order bits directly
// from the packed representation without reconstructing floats.
func (b *BUFFLossy) Recode(enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != b.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	hdr, width, drop := buffHeaderSize(enc.Data)
	if hdr < 0 {
		return Encoded{}, ErrCorrupt
	}
	curWidth := width - drop
	target := buffWidthForRatio(enc.N, hdr, ratio)
	if target < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	if target >= curWidth {
		return enc, nil
	}
	extra := curWidth - target
	r := bitio.NewReader(enc.Data[hdr:])
	w := bitio.NewWriter(enc.N*target/8 + 1)
	for i := 0; i < enc.N; i++ {
		v, err := r.ReadBits(uint(curWidth))
		if err != nil {
			return Encoded{}, ErrCorrupt
		}
		w.WriteBits(v>>uint(extra), uint(target))
	}
	out := make([]byte, hdr, hdr+w.Len())
	copy(out, enc.Data[:hdr])
	out[hdr-1] = byte(drop + extra) // update dropped-bits field
	out = append(out, w.Bytes()...)
	return Encoded{Codec: b.Name(), Data: out, N: enc.N}, nil
}
