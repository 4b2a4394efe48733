.PHONY: check build test examples bench bench-json bench-gate fuzz-smoke \
	wasm-smoke lint lint-workloads tv fmt \
	paper paper-check sweep-smoke snapshot-smoke sample-smoke stream-smoke \
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

# Bechamel microbenchmarks of the simulator's primitives.  The paper's
# tables come from `make paper`.
bench:
	dune exec bench/main.exe -- micro

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

# The paper's evaluation (see EXPERIMENTS.md): every point of Figs.
# 11-17, Section VI-B, both ablations and the ROB sweep at full workload
# sizes, with Table I, Fig. 10 and Fig. 16 beside them, rendered into
# FIGURES.md (the one generated document; sweep.json holds the records).
# Re-runs are served from the _sweep/ cache; JOBS= overrides the worker
# count.
JOBS ?= 0
SWEEP_JOBS = $(if $(filter 0,$(JOBS)),,-j $(JOBS))
paper:
	dune exec bin/sweep.exe -- -grid paper $(SWEEP_JOBS) -no-stream \
	  -out sweep.json -figures FIGURES.md

# CI check that FIGURES.md is what the simulator measures: regenerate it
# from a cold cache and fail on any difference, so a change that moves a
# number must update the document in the same commit.
PAPER_DIR = _paper_check
paper-check:
	rm -rf $(PAPER_DIR)
	dune exec bin/sweep.exe -- -grid paper -j 2 -cache-dir $(PAPER_DIR)/cache \
	  -no-stream -out $(PAPER_DIR)/sweep.json -figures $(PAPER_DIR)/FIGURES.md
	diff -u FIGURES.md $(PAPER_DIR)/FIGURES.md
	@echo "paper-check: FIGURES.md matches a cold regeneration"

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
# run and abandon it (-stop-at, a simulated kill) at cycle 400 and again
# three cycles before its end, restore each from the file alone, and
# restore the first, checkpoint it again halfway to the end, and restore
# that; every recovered run's -stats-json must be byte-identical to an
# uninterrupted baseline's.  Last, checkpoint the 30.2M-instruction
# stream at cycle 1000 and restore it to a second checkpoint at cycle
# 2000: both must exit 0 (each fingerprints only the prefix its engine
# has read).
SNAP_DIR = _snapshot_smoke
SNAPSIM = dune exec bin/straightsim.exe --
snapshot-smoke:
	rm -rf $(SNAP_DIR) && mkdir -p $(SNAP_DIR)
	@set -e; \
	for cfg in "straight-2way straight iota" "ss-2way riscv iota" \
	           "straight-4way straight sort" "ss-4way riscv sort"; do \
	  set -- $$cfg; model=$$1; target=$$2; wl=$$3; tag=$$model-$$wl; \
	  d=$(SNAP_DIR)/$$tag; \
	  echo "snapshot-smoke: $$model/$$target/$$wl"; \
	  $(SNAPSIM) -model $$model -target $$target -workload $$wl \
	    -stats-json $$d.base.json >/dev/null; \
	  cycles=$$(sed -n 's/^  "cycles": \([0-9]*\),$$/\1/p' $$d.base.json); \
	  [ -n "$$cycles" ] || \
	    { echo "snapshot-smoke: no cycle count in $$d.base.json"; exit 1; }; \
	  late=$$((cycles - 3)); chain=$$(((400 + cycles) / 2)); \
	  for stop in 400 $$late; do \
	    $(SNAPSIM) -model $$model -target $$target -workload $$wl \
	      -checkpoint $$d.$$stop.snap -stop-at $$stop >/dev/null; \
	    $(SNAPSIM) -restore $$d.$$stop.snap \
	      -stats-json $$d.$$stop.json >/dev/null; \
	    cmp $$d.base.json $$d.$$stop.json || \
	      { echo "snapshot-smoke: $$tag diverged after a restore at" \
	             "cycle $$stop"; exit 1; }; \
	  done; \
	  $(SNAPSIM) -restore $$d.400.snap -checkpoint $$d.chain.snap \
	    -stop-at $$chain >/dev/null; \
	  $(SNAPSIM) -restore $$d.chain.snap -stats-json $$d.chain.json \
	    >/dev/null; \
	  cmp $$d.base.json $$d.chain.json || \
	    { echo "snapshot-smoke: $$tag diverged after restore ->" \
	           "checkpoint at cycle $$chain -> restore"; exit 1; }; \
	done
	@echo "snapshot-smoke: recovered runs bit-identical on all 4 configs"
	$(SNAPSIM) -model straight-4way -workload stream \
	  -checkpoint $(SNAP_DIR)/stream.1000.snap -stop-at 1000 >/dev/null
	$(SNAPSIM) -restore $(SNAP_DIR)/stream.1000.snap \
	  -checkpoint $(SNAP_DIR)/stream.2000.snap -stop-at 2000 >/dev/null
	@echo "snapshot-smoke: stream checkpointed at cycle 1000 and restored"
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
	  -workload dhrystone:100 -fast-forward 20000 -warm >/dev/null
	dune exec bin/straightsim.exe -- -model ss-2way -target riscv \
	  -workload dhrystone:100 -fast-forward 20000 -warm >/dev/null
	dune exec bin/straightsim.exe -- -model straight-2way -target straight \
	  -workload dhrystone:100 -sample interval=5k,warmup=1k -j 4 \
	  -store $(SAMPLE_DIR) -sample-json $(SAMPLE_DIR)/sample-straight.json \
	  -sample-check
	dune exec bin/straightsim.exe -- -model ss-2way -target riscv \
	  -workload dhrystone:100 -sample interval=5k,warmup=1k -j 4 \
	  -store $(SAMPLE_DIR) -sample-json $(SAMPLE_DIR)/sample-riscv.json \
	  -sample-check
	@echo "sample-smoke: sampled CPI within error bars on both pipelines"

# Memory ceiling for exact simulation (see DESIGN.md, "Streaming the
# correct path"): the full 30.2M-instruction stream workload, and
# pointer_chase, whose front-end queue backs up by hundreds of
# thousands of uops, simulated exactly with the lockstep checker on, on
# STRAIGHT-4way and SS-4way.  Each run fails if the simulator's peak RSS
# exceeds 100 MB (the script's fixed ceiling).  The binary runs directly
# (not through dune exec) so the measured child is the simulator.
STRAIGHTSIM = _build/default/bin/straightsim.exe
stream-smoke:
	dune build bin/straightsim.exe
	for wl in stream pointer_chase; do \
	  python3 scripts/stream_smoke.py $(STRAIGHTSIM) \
	    -model straight-4way -target straight -workload $$wl || exit 1; \
	  python3 scripts/stream_smoke.py $(STRAIGHTSIM) \
	    -model ss-4way -target riscv -workload $$wl || exit 1; \
	done
	@echo "stream-smoke: exact stream and pointer_chase under 100 MB on both pipelines"

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
