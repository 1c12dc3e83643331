# Local developer entry points, kept in lockstep with .github/workflows/ci.yml
# so a green `make ci` locally means a green CI run.

GO      ?= go
BIN     := $(CURDIR)/bin
VETTOOL := $(BIN)/adaedge-lint

# Per-target fuzz time for the smoke pass (CI uses the same value).
FUZZTIME ?= 20s

.PHONY: all build vet lint escape-gate escape-gate-update test race chaos-repeat fuzz-smoke obs-smoke fleet-smoke perfbench-smoke bench-json bench-compare doc-drift ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds the adaedge-lint vettool (internal/lint: codecpurity,
# nopanicdecode, lockdiscipline, seqdeterminism, bufownership,
# goroutinediscipline, nowallclock) and runs the whole suite over the tree
# via its -run front-end (per-analyzer counts, exit 0/1/2), exactly as the
# adaedge-lint CI job does.
lint: $(VETTOOL)
	$(VETTOOL) -run ./...

# escape-gate is the compile-time half of the zero-alloc contract: diff
# the -gcflags=-m escape decisions in the pinned hot-path files against
# the committed ESCAPES.baseline (DESIGN.md §10). escape-gate-update
# refreshes the baseline after an intentional change.
escape-gate: $(VETTOOL)
	$(VETTOOL) -escape

escape-gate-update: $(VETTOOL)
	$(VETTOOL) -escape -escape-update

$(VETTOOL): FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(VETTOOL) ./cmd/adaedge-lint

FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos-repeat reruns the seeded transport chaos tests (lockstep sessions
# under injected outages, stalls and resets) 20 times under the race
# detector: a pump/ACK-reader race that shows only sometimes must still
# fail the gate.
chaos-repeat:
	$(GO) test -race -run Chaos -count=20 ./internal/transport

# fuzz-smoke mirrors the CI fuzz job: every Fuzz* target in the
# decoder-facing packages and the disk readers (and the bufownership
# analyzer, seeded with its fixture corpus) gets $(FUZZTIME) of fuzzing.
fuzz-smoke:
	@for pkg in ./internal/compress ./internal/transport ./internal/store ./internal/lint; do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); \
		for t in $$targets; do \
			echo "--- $$pkg $$t"; \
			$(GO) test -run "^$$t$$" -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# obs-smoke runs cmd/adaedge with -debug-addr and curls every debug
# endpoint (metrics, vars, trace, pprof) end to end; see OBSERVABILITY.md.
obs-smoke:
	./scripts/obs_smoke.sh

# fleet-smoke drives a small simulated fleet (v2 sessions, staggered
# outages, thundering-herd redial) end to end against one sharded
# collector; the run fails unless delivery is exactly-once.
fleet-smoke:
	./scripts/fleet_smoke.sh

# perfbench-smoke runs the repository benchmark (perfbench/, declared in
# BENCHMARK.json) for one traced second per workload. A traced run also
# performs every pass check and the per-workload regime checks; the
# target fails unless each workload prints "correct":true.
PERFBENCH_WORKLOADS := cbf_lossy_ml cbf_lossless_ctx offline_recode fleet_churn
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "--- $$w"; \
		out=$$(bash perfbench/run.sh --workload $$w --seconds 1 --trace 1) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		case "$$last" in \
			*'"correct":true'*) echo "$$w: correct" ;; \
			*) echo "$$last"; echo "perfbench-smoke: $$w did not report correct"; exit 1 ;; \
		esac; \
	done

# bench-json runs the continuous benchmark matrix and writes the next free
# BENCH_<n>.json in the repo root, then re-validates it against the schema.
# BENCHSEGMENTS scales the workload (CI uses a short scale).
BENCHSEGMENTS ?= 160
bench-json:
	@n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	out=BENCH_$$n.json; \
	$(GO) run ./cmd/adaedge-bench -exp bench -segments $(BENCHSEGMENTS) -json $$out && \
	$(GO) run ./cmd/adaedge-bench -validate $$out

# bench-compare is the perf gate: regenerate the pinned matrix at the
# committed baseline's scale and diff against BENCH_baseline.json —
# quality fields must match exactly, ns_per_segment may not regress more
# than 10%, allocs_per_op may not materially increase. The CI
# bench-compare job runs the identical command; EXPERIMENTS.md explains
# how to read a failure and when/how to refresh the baseline.
# BENCHBASESEGMENTS must match the committed baseline's matrix or the
# compare aborts with "matrix mismatch".
BENCHBASELINE     ?= BENCH_baseline.json
BENCHBASESEGMENTS ?= 120
bench-compare:
	$(GO) run ./cmd/adaedge-bench -exp bench -segments $(BENCHBASESEGMENTS) -json BENCH_head.json
	$(GO) run ./cmd/adaedge-bench -compare $(BENCHBASELINE) BENCH_head.json

# doc-drift cross-checks README.md against the CLI flag surface in both
# directions: every defined flag must be documented, every documented
# flag must still exist.
doc-drift:
	./scripts/doc_drift.sh

ci: build vet lint escape-gate race chaos-repeat obs-smoke fleet-smoke perfbench-smoke doc-drift

clean:
	rm -rf $(BIN)
