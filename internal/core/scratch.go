package core

import (
	"sync"

	"repro/internal/compress"
)

// Trial-buffer recycling for the decision loop.
//
// Every segment decision runs up to a dozen codec trials; before this pass
// each trial allocated its encode buffer (and, for lossy arms, a decode
// slice) and dropped it on the floor. The pools below keep those buffers
// circulating: trials carry their pool wrapper through losslessTrial /
// lossyTrial so recycling a rejected trial is a pointer hand-back, never
// an allocation.
//
// Ownership rules (DESIGN.md §10):
//
//   - A trial's buffers belong to the trial until it is released. Each
//     kind of trial has one release site, on the decision goroutine: a
//     losing lossless trial is released in the decision loop, and the
//     chosen lossy trial's decode slice is parked and released when
//     Process returns, after the oracle's observe pass (its last
//     reader). On oracle-sampled decisions the losing lossless trials
//     are not released at all: the oracle reads them later in the same
//     Process call, so they are left to the garbage collector.
//   - The selected trial's encoding escapes to the caller with the
//     returned compress.Encoded and leaves the pool's circulation; its
//     emptied wrapper parks in spareEncBufs so RecycleEncoded can re-arm
//     it without allocating.
//   - Releasing is idempotent per trial copy (the wrapper pointer is
//     nil'ed), but distinct copies of one trial share a wrapper — never
//     release the same trial through two copies.
//
// The pools are shared by every engine in the process; sync.Pool keeps
// them race-safe when several engines (one per Pipeline worker) run at
// once.

// encBuf wraps a trial encode buffer so pool round trips are pointer-sized.
type encBuf struct{ b []byte }

// decBuf wraps a lossy trial's decode slice.
type decBuf struct{ v []float64 }

var encBufPool = sync.Pool{New: func() any { return new(encBuf) }}
var decBufPool = sync.Pool{New: func() any { return new(decBuf) }}

// spareEncBufs holds wrappers whose buffer escaped to a caller.
// RecycleEncoded re-arms one with the returned bytes, so the
// winner-buffer hand-off round trip allocates nothing steady-state.
var spareEncBufs = sync.Pool{New: func() any { return new(encBuf) }}

func getEncBuf() *encBuf { return encBufPool.Get().(*encBuf) }
func getDecBuf() *decBuf { return decBufPool.Get().(*decBuf) }

// release returns a rejected trial's encode buffer to the pool. Safe on
// trials that never had a wrapper (error trials, fallback codecs) and on
// already-released copies.
//
// adaedge:decision-goroutine
func (t *losslessTrial) release() {
	if t.buf == nil {
		return
	}
	t.buf.b = t.enc.Data
	encBufPool.Put(t.buf)
	t.buf = nil
	t.enc.Data = nil // poison: the encoding is dead after release
}

// handOff parks the wrapper of a trial whose encoding escapes to the
// caller. The buffer itself leaves with the Encoded; only the empty
// wrapper is kept, for RecycleEncoded.
//
// adaedge:decision-goroutine
func (t *losslessTrial) handOff() {
	if t.buf == nil {
		return
	}
	t.buf.b = nil
	spareEncBufs.Put(t.buf)
	t.buf = nil
}

// RecycleEncoded hands an Encoded's backing buffer back to the trial
// pools. Callers that drop every reference to enc.Data once a segment is
// accounted (benchmark drivers, metrics-only consumers) can call this
// after each Process to make the steady-state decision loop
// allocation-free. Callers that retain the bytes — an uplink spool, a
// storage pool — must NOT recycle: the buffer would be overwritten by a
// later trial while still referenced.
func RecycleEncoded(enc compress.Encoded) {
	if cap(enc.Data) == 0 {
		return
	}
	eb := spareEncBufs.Get().(*encBuf)
	eb.b = enc.Data
	encBufPool.Put(eb)
}

// engineScratch holds slices reused across segments by the decision
// goroutine.
type engineScratch struct {
	mask       []bool
	pendingDec *decBuf
}

// boolMask returns a length-n mask with every entry set to fill, reusing
// the scratch backing array.
//
// adaedge:decision-goroutine
func (s *engineScratch) boolMask(n int, fill bool) []bool {
	if cap(s.mask) < n {
		s.mask = make([]bool, n)
	}
	m := s.mask[:n]
	for i := range m {
		m[i] = fill
	}
	return m
}

// parkDec defers a decode buffer's release to the end of the current
// process call — after the oracle's observe pass, its last reader.
//
// adaedge:decision-goroutine
func (s *engineScratch) parkDec(d *decBuf) {
	s.pendingDec = d
}

// flushDec releases the parked decode buffer, if any.
//
// adaedge:decision-goroutine
func (s *engineScratch) flushDec() {
	if s.pendingDec != nil {
		decBufPool.Put(s.pendingDec)
		s.pendingDec = nil
	}
}
