// Command perfbench is the repository's end-to-end benchmark. It drives
// the real public entry points of the AdaEdge reproduction on one of four
// seeded edge workloads, checks every output, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured untraced:
// a closed loop (the next segment is offered as soon as the previous
// one's Process+Send or Ingest returns) and an open loop at the paper's
// ingest rate of 200,000 points/s. With --trace 1 it reports the
// per-layer metrics: spans the benchmark records around its own calls into
// each layer, counts read from the program's observer, and replay cells
// that time each layer's public functions on the workload's own segments.
// README.md lists every metric and which end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// defaultSeed is the seed the benchmark's figures are quoted at; heldOutSeed
// is kept back for confirming a claimed change on inputs it was not tuned
// on (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	testing.Init() // registers -test.benchtime for the replay cells
	name := flag.String("workload", "cbf_lossy_ml", "workload name")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (figures are quoted at %d; %d is held out)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	in := w.inputs(*seed)
	budget := time.Duration(*seconds) * time.Second
	var (
		r   run
		err error
	)
	if *trace == 0 {
		r, err = endToEnd(w, in, budget)
	} else {
		r, err = perLayer(w, in, budget)
	}
	res := result{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
	if r.failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d offered segments failed\n", r.failed, r.attempted)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res) // a map of plain numbers always marshals
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
