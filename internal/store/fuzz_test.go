package store

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/compress"
)

// FuzzReadPool: arbitrary bytes must never panic the pool-dump reader, and
// any dump it accepts must survive WriteTo→ReadPool→WriteTo byte for byte
// (WriteTo is canonical: entries sorted by id, EvalRaw dropped).
func FuzzReadPool(f *testing.F) {
	p := NewPool(nil)
	for i, codec := range []compress.Codec{compress.NewGorilla(), compress.NewPAA()} {
		enc, err := codec.Compress([]float64{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			f.Fatal(err)
		}
		p.Put(&Entry{ID: uint64(10 - i), Enc: enc, Lossless: i == 0, Level: i, Label: -i})
	}
	var dump bytes.Buffer
	if _, err := p.WriteTo(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	var empty bytes.Buffer
	if _, err := NewPool(nil).WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add(hostileDump(8, 1<<30))
	f.Add(hostileDump(math.MaxUint64, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		pool, err := ReadPool(bytes.NewReader(data), nil)
		if err != nil {
			return // rejected: fine
		}
		var first bytes.Buffer
		if _, err := pool.WriteTo(&first); err != nil {
			t.Fatalf("WriteTo of an accepted dump: %v", err)
		}
		again, err := ReadPool(bytes.NewReader(first.Bytes()), nil)
		if err != nil {
			t.Fatalf("ReadPool rejected its own WriteTo output: %v", err)
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatalf("second WriteTo: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteTo→ReadPool→WriteTo is not byte-identical")
		}
	})
}

// FuzzReadWatermarks: arbitrary bytes must never panic the watermark
// reader, and any table it accepts must survive
// WriteTo→ReadWatermarks→WriteTo byte for byte.
func FuzzReadWatermarks(f *testing.F) {
	w := NewWatermarks()
	w.Store(0, 1)
	w.Store(42, 1000)
	w.Store(math.MaxUint64, math.MaxUint64)
	var table bytes.Buffer
	if _, err := w.WriteTo(&table); err != nil {
		f.Fatal(err)
	}
	f.Add(table.Bytes())
	var empty bytes.Buffer
	if _, err := NewWatermarks().WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("AEW1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		wm, err := ReadWatermarks(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		var first bytes.Buffer
		if _, err := wm.WriteTo(&first); err != nil {
			t.Fatalf("WriteTo of an accepted table: %v", err)
		}
		again, err := ReadWatermarks(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadWatermarks rejected its own WriteTo output: %v", err)
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatalf("second WriteTo: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteTo→ReadWatermarks→WriteTo is not byte-identical")
		}
	})
}
