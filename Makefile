.PHONY: check build test examples bench bench-json bench-gate fuzz-smoke \
	wasm-smoke lint lint-workloads tv fmt \
	sweep-quick sweep-smoke snapshot-smoke sample-smoke stream-smoke \
	daemon-smoke sim-identity coverage clean

check: build test

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# Run every program in examples/ (they document the public API): each
# must exit 0, not just build.
EXAMPLES = quickstart compiler_tour pipeline_explorer distance_profile \
	power_report asm_playground
examples:
	dune build $(EXAMPLES:%=./examples/%.exe)
	@set -e; for e in $(EXAMPLES); do \
	  echo "examples: $$e"; ./_build/default/examples/$$e.exe >/dev/null; \
	done

bench:
	dune exec bench/main.exe -- --quick

# Measure the perf suite (engine host throughput + CPI stacks) into
# bench.json.  Pass QUICK= (empty) for the full workload sizes.
# Includes the micro suite so the measurement set matches the CI gate's
# first invocation exactly.
QUICK ?= --quick
bench-json:
	dune exec bench/main.exe -- micro $(QUICK) --json bench.json

# Perf-regression gate: fresh measurement vs the checked-in baseline.
# Host throughput is noisy, so a failing comparison gets one fresh
# re-measurement before the verdict sticks.
bench-gate: bench-json
	dune exec scripts/bench_gate.exe -- BENCH_baseline.json bench.json \
	  || { echo "bench-gate: retrying with a fresh measurement"; \
	       $(MAKE) bench-json; \
	       dune exec scripts/bench_gate.exe -- BENCH_baseline.json bench.json; }

# Static verification umbrella: the binary verifiers plus the
# translation validator.
lint: lint-workloads tv

# Both binary verifiers (STRAIGHT distance/SPADD invariants, RV32IM
# dataflow/ABI/stack invariants) over every benchmark image at O0/O1/O2,
# plus a JSON report for archiving.
lint-workloads:
	dune exec bin/fuzz.exe -- -lint-workloads -json lint-report.json

# Translation validation (straight-tv/1): symbolically re-execute every
# benchmark's IR and linked machine code in lockstep at O0/O1/O2 through
# both back ends, requiring every observable to agree and no function to
# be abstained on; then inject 300 seeded codegen bugs and require each
# to be rejected.
tv:
	dune exec bin/fuzz.exe -- -tv-workloads -json tv-report.json
	dune exec bin/fuzz.exe -- -tv-mutations 300

# Differential-fuzz smoke run: a fixed-seed batch (deterministic, so a
# failure is reproducible by seed number) with the translation validator
# armed on every seed, plus the static verifiers over every benchmark
# image.
fuzz-smoke: lint
	dune exec bin/fuzz.exe -- -seed 1 -count 200 -tv
	dune exec bin/fuzz.exe -- -target wasm -seed 1 -count 200 -tv

# WASM front-end smoke (see DESIGN.md, "The WASM front end"): the
# conformance fixture battery plus the generator properties and the
# TV/lint sweep over the WASM workloads (test/test_wasm.ml), then a
# deterministic 200-seed WASM differential batch with the translation
# validator armed on every seed.
wasm-smoke:
	dune exec test/test_wasm.exe
	dune exec bin/fuzz.exe -- -target wasm -seed 1 -count 200 -tv

# Design-space sweep (see EXPERIMENTS.md, "Design-space sweeps").
# The default 32-point grid at quick iteration counts; results land in
# sweep.json and the per-figure tables in FIGURES.md.  Re-runs are
# served from the _sweep/ cache; JOBS= overrides the worker count.
JOBS ?= 0
SWEEP_JOBS = $(if $(filter 0,$(JOBS)),,-j $(JOBS))
sweep-quick:
	dune exec bin/sweep.exe -- -quick $(SWEEP_JOBS) -no-stream \
	  -out sweep.json -figures FIGURES.md

# CI cache-hit smoke: the 2-point smoke grid twice against a scratch
# cache.  The second invocation must be served entirely from the cache
# (-expect-cached exits 3 if any point simulates again).
sweep-smoke:
	rm -rf _sweep_smoke
	dune exec bin/sweep.exe -- -grid smoke -j 2 -cache-dir _sweep_smoke \
	  -figures none -out /dev/null -no-stream
	dune exec bin/sweep.exe -- -grid smoke -j 2 -cache-dir _sweep_smoke \
	  -figures none -out /dev/null -no-stream -expect-cached

# Crash-recovery smoke: on two workloads x two pipelines, checkpoint a
# run mid-flight and abandon it (-stop-at, a simulated kill), restore
# from the file alone, and require the recovered run's -stats-json to
# be byte-identical to an uninterrupted baseline's.
SNAP_DIR = _snapshot_smoke
snapshot-smoke:
	rm -rf $(SNAP_DIR) && mkdir -p $(SNAP_DIR)
	@set -e; \
	for cfg in "straight-2way straight iota" "ss-2way riscv iota" \
	           "straight-4way straight sort" "ss-4way riscv sort"; do \
	  set -- $$cfg; model=$$1; target=$$2; wl=$$3; tag=$$model-$$wl; \
	  echo "snapshot-smoke: $$model/$$target/$$wl"; \
	  dune exec bin/straightsim.exe -- -model $$model -target $$target \
	    -workload $$wl -stats-json $(SNAP_DIR)/$$tag.base.json >/dev/null; \
	  dune exec bin/straightsim.exe -- -model $$model -target $$target \
	    -workload $$wl -checkpoint $(SNAP_DIR)/$$tag.snap -stop-at 400 \
	    >/dev/null; \
	  dune exec bin/straightsim.exe -- -restore $(SNAP_DIR)/$$tag.snap \
	    -stats-json $(SNAP_DIR)/$$tag.resumed.json >/dev/null; \
	  cmp $(SNAP_DIR)/$$tag.base.json $(SNAP_DIR)/$$tag.resumed.json || \
	    { echo "snapshot-smoke: $$tag diverged after restore"; exit 1; }; \
	done
	@echo "snapshot-smoke: recovered runs bit-identical on all 4 configs"
	rm -rf $(SNAP_DIR)

# Sampling smoke: on one workload x both pipelines, exercise the
# fast-forward warmed handoff, then run the interval sampler over a
# 4-worker pool and require the recombined CPI estimate to land within
# its reported error bars of an exact simulation of the same run
# (-sample-check exits 1 otherwise).  The straight-sample/1 reports are
# left in $(SAMPLE_DIR) for CI to archive.
SAMPLE_DIR = _sample_smoke
sample-smoke:
	rm -rf $(SAMPLE_DIR) && mkdir -p $(SAMPLE_DIR)
	dune exec bin/straightsim.exe -- -model straight-2way -target straight \
	  -workload dhrystone -fast-forward 20000 -warm >/dev/null
	dune exec bin/straightsim.exe -- -model ss-2way -target riscv \
	  -workload dhrystone -fast-forward 20000 -warm >/dev/null
	dune exec bin/straightsim.exe -- -model straight-2way -target straight \
	  -workload dhrystone -sample interval=5k,warmup=1k -j 4 \
	  -store $(SAMPLE_DIR) -sample-json $(SAMPLE_DIR)/sample-straight.json \
	  -sample-check
	dune exec bin/straightsim.exe -- -model ss-2way -target riscv \
	  -workload dhrystone -sample interval=5k,warmup=1k -j 4 \
	  -store $(SAMPLE_DIR) -sample-json $(SAMPLE_DIR)/sample-riscv.json \
	  -sample-check
	@echo "sample-smoke: sampled CPI within error bars on both pipelines"

# Memory ceiling for exact simulation (see DESIGN.md, "Streaming the
# correct path"): the full 30.2M-instruction stream workload, simulated
# exactly with the lockstep checker on, on STRAIGHT-4way and SS-4way.
# Each run fails if the simulator's peak RSS exceeds 100 MB (the
# script's fixed ceiling).  The binary runs directly (not through dune
# exec) so the measured child is the simulator.
STRAIGHTSIM = _build/default/bin/straightsim.exe
stream-smoke:
	dune build bin/straightsim.exe
	python3 scripts/stream_smoke.py $(STRAIGHTSIM) \
	  -model straight-4way -target straight -workload stream
	python3 scripts/stream_smoke.py $(STRAIGHTSIM) \
	  -model ss-4way -target riscv -workload stream
	@echo "stream-smoke: exact stream under 100 MB on both pipelines"

# Resident-daemon smoke (see EXPERIMENTS.md, "The resident daemon"):
# start straightd on a scratch socket, drive the load generator twice
# with an identical request mix, and require the warm run to be served
# >= 90% from the memo cache plus a clean shutdown.  The
# straightd-bench/1 reports land in _daemon_smoke/ for CI to archive.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Simulation identity for refactors that must not change a result: the
# simulator, bench and example outputs of this tree must be
# byte-identical to those of BASE, a built checkout of the parent, e.g.
#   git clone -q . ../base && git -C ../base checkout -q HEAD~1 \
#     && (cd ../base && dune build) && make sim-identity BASE=../base
# Each differing output is named (exit 1); see scripts/sim_identity.sh.
sim-identity: build
	sh scripts/sim_identity.sh $(BASE)

# Line coverage for the test suite via bisect_ppx (not vendored: the
# target is a no-op with a hint when the tooling is absent).  The HTML
# report lands in _coverage/.
coverage:
	@command -v bisect-ppx-report >/dev/null 2>&1 || \
	  { echo "coverage: bisect_ppx not installed (opam install bisect_ppx)"; exit 1; }
	find . -name '*.coverage' -delete
	dune runtest --force --instrument-with bisect_ppx
	bisect-ppx-report summary
	bisect-ppx-report html -o _coverage
	@echo "coverage: HTML report in _coverage/index.html"

clean:
	dune clean
