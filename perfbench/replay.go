package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bandit"
	"repro/internal/bandit/contextual"
	"repro/internal/compress"
	"repro/internal/ml"
	"repro/internal/store"
	"repro/internal/transport"
)

// replayFrames is how many of the workload's segments and frames the
// replay cells cycle through.
const replayFrames = 256

// The lossy replay ratios are the ones the repository's BenchmarkCodec*
// cells use: encode at 0.1, recode that to 0.05. A segment on which a
// codec cannot reach them is encoded at its own minimum ratio instead.
const (
	replayRatio  = 0.1
	replayRecode = 0.05
)

// cell is one replay measurement: fn runs b.N operations, and the result
// is reported as ns per op divided by perOp (points per op for ns/pt).
type cell struct {
	name  string
	perOp float64
	fn    func(b *testing.B)
}

// sinkBytes keeps results alive so the compiler cannot drop measured calls.
var sinkBytes int

// replayCells builds the cells on the workload's own segments and frames.
// Codec cells call the same public functions the BenchmarkCodec* tests
// call; the other cells call each layer's public per-segment functions.
func replayCells(in *inputs, frames []compress.Encoded) ([]cell, error) {
	segs := in.segs[:min(replayFrames, len(in.segs))]
	if len(frames) == 0 {
		return nil, errors.New("no frames to replay")
	}
	reg := compress.DefaultRegistry(cbfPrecision)
	var cells []cell
	for _, name := range reg.Lossless() {
		c, _ := reg.Lookup(name)
		encs := make([]compress.Encoded, len(segs))
		for i, s := range segs {
			e, err := c.Compress(s)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			encs[i] = e
		}
		cells = append(cells, codecCells(name, c, segs, encs,
			func(c compress.Codec, s []float64, _ int) (compress.Encoded, error) { return c.Compress(s) })...)
	}
	for _, name := range reg.Lossy() {
		c, _ := reg.Lookup(name)
		lc := c.(compress.LossyCodec)
		ratios := make([]float64, len(segs))
		encs := make([]compress.Encoded, len(segs))
		for i, s := range segs {
			ratios[i] = max(replayRatio, lc.MinRatio(s))
			e, err := lc.CompressRatio(s, ratios[i])
			if err != nil {
				return nil, fmt.Errorf("%s at %v: %w", name, ratios[i], err)
			}
			encs[i] = e
		}
		cells = append(cells, codecCells(name, c, segs, encs,
			func(c compress.Codec, s []float64, i int) (compress.Encoded, error) {
				return c.(compress.LossyCodec).CompressRatio(s, ratios[i])
			})...)
		cells = append(cells, cell{"compress." + name + ".minratio_ns_per_pt", segPoints, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if lc.MinRatio(segs[i%len(segs)]) <= 0 {
					b.Fatal("non-positive minimum ratio")
				}
			}
		}})
		rec, ok := c.(compress.Recoder)
		if !ok {
			return nil, fmt.Errorf("%s is not a Recoder", name)
		}
		targets := make([]float64, len(segs))
		for i, s := range segs {
			targets[i] = max(replayRecode, lc.MinRatio(s))
			if _, err := rec.Recode(encs[i], targets[i]); err != nil {
				return nil, fmt.Errorf("%s recode to %v: %w", name, targets[i], err)
			}
		}
		cells = append(cells, cell{"compress." + name + ".recode_ns_per_pt", segPoints, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(segs)
				e, err := rec.Recode(encs[j], targets[j])
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes += len(e.Data)
			}
		}})
	}
	layer, err := layerCells(in.seed, segs, frames)
	if err != nil {
		return nil, err
	}
	return append(cells, layer...), nil
}

// codecCells times one codec's encode (through enc) and Decompress.
func codecCells(name string, c compress.Codec, segs [][]float64, encs []compress.Encoded,
	enc func(compress.Codec, []float64, int) (compress.Encoded, error)) []cell {
	return []cell{
		{"compress." + name + ".enc_ns_per_pt", segPoints, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(segs)
				e, err := enc(c, segs[j], j)
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes += len(e.Data)
			}
		}},
		{"compress." + name + ".dec_ns_per_pt", segPoints, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := c.Decompress(encs[i%len(encs)])
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes += len(v)
			}
		}},
	}
}

// layerCells times the bandit, contextual, ml, store and transport
// functions the engines call once or a few times per segment.
func layerCells(seed int64, segs [][]float64, frames []compress.Encoded) ([]cell, error) {
	const lossyArms, losslessArms = 6, 11
	rng := rand.New(rand.NewSource(seed))
	rewards := make([][]float64, len(segs))
	feats := make([][]float64, len(segs))
	for i, s := range segs {
		rewards[i] = make([]float64, losslessArms)
		for a := range rewards[i] {
			rewards[i][a] = rng.Float64()
		}
		feats[i] = contextual.FeaturesInto(nil, s)
	}
	rforest, err := fitModel("rforest")
	if err != nil {
		return nil, err
	}
	kmeans, err := fitModel("kmeans")
	if err != nil {
		return nil, err
	}
	policyCfg := bandit.Config{Epsilon: 0.01, Optimism: 1, Seed: seed}
	var wire bytes.Buffer
	tw := transport.NewWriter(&wire)
	for i, e := range frames {
		if err := tw.Send(transport.Frame{ID: uint64(i), Label: 1, Enc: e}); err != nil {
			return nil, err
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	predict := func(m ml.Classifier) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBytes += m.Predict(segs[i%len(segs)])
			}
		}
	}
	return []cell{
		{"bandit.select_update_ns", 1, func(b *testing.B) {
			p := bandit.NewEpsilonGreedy(lossyArms, policyCfg)
			for i := 0; i < b.N; i++ {
				a := p.Select(nil)
				p.Update(a, rewards[i%len(rewards)][a])
			}
		}},
		{"contextual.features_ns", 1, func(b *testing.B) {
			dst := make([]float64, 0, contextual.NumFeatures)
			for i := 0; i < b.N; i++ {
				dst = contextual.FeaturesInto(dst, segs[i%len(segs)])
			}
		}},
		{"contextual.predict_observe_ns", 1, func(b *testing.B) {
			p := contextual.NewPredictor(losslessArms, contextual.NumFeatures, 1)
			for i := 0; i < b.N; i++ {
				x, r := feats[i%len(feats)], rewards[i%len(rewards)]
				for a := 0; a < losslessArms; a++ {
					p.Predict(a, x)
				}
				a := i % losslessArms
				p.Observe(a, x, contextual.Targets{Ratio: r[a], Latency: 1e-6 * r[a], Reward: 1 - r[a]})
			}
		}},
		{"contextual.select_update_ns", 1, func(b *testing.B) {
			p := contextual.New(losslessArms, policyCfg)
			for i := 0; i < b.N; i++ {
				r := rewards[i%len(rewards)]
				p.SetPriors(r)
				a := p.Select(nil)
				p.Update(a, r[a])
			}
		}},
		{"ml.rforest_predict_ns", 1, predict(rforest)},
		{"ml.kmeans_predict_ns", 1, predict(kmeans)},
		{"store.spool_append_ack_ns", 1, func(b *testing.B) {
			sp := store.NewSpool(0, 0, 0, nil)
			entries := make([]store.Entry, len(frames))
			for i := 0; i < b.N; i++ {
				e := &entries[i%len(entries)]
				e.ID, e.Enc = uint64(i), frames[i%len(frames)]
				if err := sp.Append(e); err != nil {
					b.Fatal(err)
				}
				sp.AckBelow(uint64(i) + 1)
			}
		}},
		{"store.pool_put_victim_ns", 1, func(b *testing.B) {
			lru := store.NewLRU()
			for id := 0; id < offlineSegments; id++ {
				lru.Put(uint64(id))
			}
			for i := 0; i < b.N; i++ {
				lru.Put(uint64(offlineSegments + i))
				v, ok := lru.Victim()
				if !ok {
					b.Fatal("empty LRU")
				}
				lru.Remove(v)
			}
		}},
		{"transport.frame_enc_ns", 1, func(b *testing.B) {
			w := transport.NewWriter(io.Discard)
			for i := 0; i < b.N; i++ {
				if err := w.Send(transport.Frame{ID: uint64(i), Label: 1, Enc: frames[i%len(frames)]}); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"transport.frame_dec_ns", 1, func(b *testing.B) {
			r := transport.NewReader(bytes.NewReader(wire.Bytes()))
			for i := 0; i < b.N; i++ {
				f, err := r.Recv()
				if errors.Is(err, io.EOF) {
					r = transport.NewReader(bytes.NewReader(wire.Bytes()))
					f, err = r.Recv()
				}
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes += len(f.Enc.Data)
			}
		}},
	}, nil
}

// runReplay runs every cell under testing.Benchmark, which scales each
// cell's iteration count until it runs for benchtime.
func runReplay(cells []cell, benchtime time.Duration) (map[string]float64, error) {
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cells))
	for _, c := range cells {
		r := testing.Benchmark(c.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("replay cell %s failed", c.name)
		}
		out[c.name] = float64(r.T.Nanoseconds()) / float64(r.N) / c.perOp
	}
	return out, nil
}
