package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
)

func populatedPool(t *testing.T, n int) *Pool {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	X, y := datasets.CBF(n, datasets.CBFConfig{Seed: 9})
	p := NewPool(nil)
	names := reg.Lossless()
	for i, row := range X {
		codec, _ := reg.Lookup(names[i%len(names)])
		enc, err := codec.Compress(row)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(&Entry{
			ID: uint64(i), Enc: enc, Lossless: true, Level: i % 3,
			Label:   y[i],
			EvalRaw: row, // must NOT be persisted
		})
	}
	return p
}

func TestPersistRoundTrip(t *testing.T) {
	p := populatedPool(t, 12)
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadPool(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != p.Len() {
		t.Fatalf("restored %d entries, want %d", got.Len(), p.Len())
	}
	reg := compress.DefaultRegistry(4)
	p.Each(func(orig *Entry) {
		restored, ok := got.Peek(orig.ID)
		if !ok {
			t.Fatalf("entry %d missing", orig.ID)
		}
		if restored.Label != orig.Label || restored.Level != orig.Level || restored.Lossless != orig.Lossless {
			t.Fatalf("entry %d metadata mismatch: %+v vs %+v", orig.ID, restored, orig)
		}
		if restored.EvalRaw != nil {
			t.Fatal("EvalRaw must not be persisted")
		}
		origVals, err := reg.Decompress(orig.Enc)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, err := reg.Decompress(restored.Enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range origVals {
			if origVals[i] != gotVals[i] {
				t.Fatalf("entry %d value %d differs", orig.ID, i)
			}
		}
	})
}

func TestPersistRestoredPolicyOrder(t *testing.T) {
	p := populatedPool(t, 5)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPool(&buf, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	// Entries re-enter in id order: the LRU victim is the lowest id.
	v, ok := got.Victim()
	if !ok || v.ID != 0 {
		t.Fatalf("victim = %+v, want id 0", v)
	}
}

func TestPersistEmptyPool(t *testing.T) {
	p := NewPool(nil)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPool(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("phantom entries")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("AEP1"), // truncated after magic
		append([]byte("AEP1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // absurd count
	}
	for i, data := range cases {
		if _, err := ReadPool(bytes.NewReader(data), nil); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestPersistTruncatedPayload(t *testing.T) {
	p := populatedPool(t, 4)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, len(data) / 2, len(data) - 1} {
		if _, err := ReadPool(bytes.NewReader(data[:cut]), nil); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestReadPoolHostileLengthAllocatesLittle is the regression for trusting
// the entry length field: a 23-byte dump claiming a 1 GiB payload used to
// make ReadPool (and so ResumeOfflineEngine) allocate the full gibibyte
// before reading a byte. It must now fail having allocated only what the
// input delivered.
func TestReadPoolHostileLengthAllocatesLittle(t *testing.T) {
	dump := hostileDump(8, 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadPool(bytes.NewReader(dump), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ReadPool allocated %d bytes for a %d-byte dump, want < 1 MiB", got, len(dump))
	}
}

// TestReadPoolRejectsHostilePointCount: a point count above the
// transport's frame bound must be rejected, not stored into Encoded.N
// (2^64-1 used to come back as N = -1).
func TestReadPoolRejectsHostilePointCount(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64, maxSegmentPoints + 1} {
		if _, err := ReadPool(bytes.NewReader(hostileDump(n, 0)), nil); !errors.Is(err, ErrBadFormat) {
			t.Errorf("N=%d: want ErrBadFormat, got %v", n, err)
		}
	}
	p, err := ReadPool(bytes.NewReader(hostileDump(maxSegmentPoints, 0)), nil)
	if err != nil {
		t.Fatalf("N at the bound rejected: %v", err)
	}
	if e, ok := p.Peek(1); !ok || e.Enc.N != maxSegmentPoints {
		t.Fatalf("entry = %+v, want N = %d", e, maxSegmentPoints)
	}
}

// hostileDump is a one-entry pool dump whose length fields are chosen by
// the test; its payload bytes are never present.
func hostileDump(n, dataLen uint64) []byte {
	dump := []byte("AEP1")
	dump = binary.AppendUvarint(dump, 1) // segment count
	dump = binary.AppendUvarint(dump, 1) // id
	dump = binary.AppendUvarint(dump, 0) // label
	dump = append(dump, 1)               // flags: lossless
	dump = binary.AppendUvarint(dump, 0) // level
	dump = binary.AppendUvarint(dump, 7) // codec name length
	dump = append(dump, "gorilla"...)
	dump = binary.AppendUvarint(dump, n)
	return binary.AppendUvarint(dump, dataLen)
}
