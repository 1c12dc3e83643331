package main

import (
	"fmt"

	"repro/internal/sim"
)

// program runs one workload against the system under test.
type program interface {
	// inputs generates the workload's seeded inputs; nothing in it is
	// timed, and the same seed always gives the same inputs.
	inputs(seed int64) *inputs
	// pass sets the program up from scratch and runs one pass over in.
	pass(in *inputs, o passOpts) (*pass, error)
}

type workload struct {
	name string
	program
	// inRegime checks the per-layer figures that show the workload still
	// loads the layers it was chosen for.
	inRegime func(m map[string]float64) error
}

// workloads are the benchmark's four edge workloads; README.md says why
// each was chosen and which layers it loads and bypasses.
var workloads = map[string]workload{
	// Every segment misses the best lossless ratio (≈0.27), so each one
	// probes all six lossy arms, encodes and decodes one of them and
	// scores it with the random forest.
	"cbf_lossy_ml": {"cbf_lossy_ml", onlineWorkload{target: 0.1, model: "rforest"},
		func(m map[string]float64) error {
			if v := m["core.lossless_frac"]; v > 0.05 {
				return fmt.Errorf("core.lossless_frac = %v, want ≤ 0.05", v)
			}
			return nil
		}},
	// The 3G-derived target is met losslessly (sprintz, ≈0.27), and the
	// contextual layer extracts features and predicts every arm per
	// segment.
	"cbf_lossless_ctx": {"cbf_lossless_ctx", onlineWorkload{target: sim.TargetRatio(ingestRate, sim.Net3G), policy: "contextual"},
		func(m map[string]float64) error {
			if v := m["core.lossless_frac"]; v != 1 {
				return fmt.Errorf("core.lossless_frac = %v, want 1", v)
			}
			return nil
		}},
	// 140 B per segment (≈14% of raw) makes every ingest recode about two
	// stored segments.
	"offline_recode": {"offline_recode", offlineWorkload{devices: 8, bytesPerSeg: 140, model: "kmeans"},
		func(m map[string]float64) error {
			if v := m["core.recodes_per_seg"]; v <= 1 {
				return fmt.Errorf("core.recodes_per_seg = %v, want > 1", v)
			}
			return nil
		}},
	// 200 device IDs over 2 connections with 50 idle sessions kept, so
	// most sessions resume from an evicted watermark; a quarter are torn
	// (README.md says how that share was chosen).
	"fleet_churn": {"fleet_churn", fleetWorkload{
		devices: 200, perSession: 8, sessions: 800, conns: 2, maxIdle: 50,
		tornShare: 0.25, distinctSeg: 1024,
	}, func(m map[string]float64) error {
		for _, k := range []string{"transport.duplicates_per_seg", "transport.evictions_per_session"} {
			if v := m[k]; v <= 0 {
				return fmt.Errorf("%s = %v, want > 0", k, v)
			}
		}
		return nil
	}},
}

// endToEndMetrics and perLayerMetrics are the metrics BENCHMARK.json
// declares, with their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"seg_per_s", "seg/s"},
	{"cpu_us_per_seg", "us"},
	{"alloc_bytes_per_seg", "B"},
	{"max_rss_mb", "MiB"},
	{"ratio", "B/B"},
}

var perLayerMetrics = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		{"core.process_us.p50", "us"},
		{"core.process_us.p99", "us"},
		{"core.process_busy_frac", "frac"},
		{"core.lossless_frac", "frac"},
		{"core.trials_per_seg", "count"},
		{"core.ingest_us.p50", "us"},
		{"core.ingest_us.p99", "us"},
		{"core.recodes_per_seg", "count"},
		{"quality.optimal_rate", "frac"},
		{"quality.regret", "reward"},
		{"accuracy_loss", "frac"},
		{"bandit.select_update_ns", "ns"},
		{"contextual.features_ns", "ns"},
		{"contextual.predict_observe_ns", "ns"},
		{"contextual.select_update_ns", "ns"},
	}
	lossless := []string{"gzip", "snappy", "zlib-1", "zlib-6", "zlib-9", "dict", "gorilla", "chimp", "sprintz", "buff", "elf"}
	lossy := []string{"bufflossy", "paa", "pla", "fft", "lttb", "rrdsample"}
	for _, c := range append(lossless, lossy...) {
		out = append(out, m{"compress." + c + ".enc_ns_per_pt", "ns/pt"}, m{"compress." + c + ".dec_ns_per_pt", "ns/pt"})
	}
	for _, c := range lossy {
		out = append(out, m{"compress." + c + ".minratio_ns_per_pt", "ns/pt"}, m{"compress." + c + ".recode_ns_per_pt", "ns/pt"})
	}
	return append(out,
		m{"compress.sprintz.zero_sign_flips_per_seg", "count"},
		m{"ml.rforest_predict_ns", "ns"},
		m{"ml.kmeans_predict_ns", "ns"},
		m{"store.spool_append_ack_ns", "ns"},
		m{"store.spool_depth.p99", "count"},
		m{"store.pool_put_victim_ns", "ns"},
		m{"transport.frame_enc_ns", "ns"},
		m{"transport.frame_dec_ns", "ns"},
		m{"transport.send_us.p50", "us"},
		m{"transport.send_us.p99", "us"},
		m{"transport.wire_us.p50", "us"},
		m{"transport.wire_us.p99", "us"},
		m{"transport.frames_per_seg", "count"},
		m{"transport.ack_batch_mean", "count"},
		m{"transport.session_ms.p50", "ms"},
		m{"transport.session_ms.p99", "ms"},
		m{"transport.duplicates_per_seg", "count"},
		m{"transport.evictions_per_session", "count"},
		m{"e2e_p50_us", "us"},
		m{"e2e_p99_us", "us"},
		m{"gen.late_p50_us", "us"},
		m{"gen.late_p99_us", "us"},
		m{"gen.self_us.p50", "us"},
		m{"trace.overhead_frac", "frac"},
	)
}()
