#!/bin/sh
# Simulation identity check for refactors that must not change a result:
# run one battery of simulator, bench and example commands with the
# binaries of a built base checkout and with this working tree's, and
# require every output to be byte-identical.
#
#   make sim-identity BASE=DIR        # DIR: a checkout built with `dune build`
#   sh scripts/sim_identity.sh DIR    # same, after `dune build` here
#
# The battery:
#   - straightsim stdout and -stats-json: fib, iota, sort, quicksort,
#     pointer-chase and dhrystone on straight-2way/straight,
#     straight-4way/straight-raw, ss-2way/riscv and ss-4way/ss;
#   - -fast-forward 20000, with and without -warm (fib, dhrystone);
#   - -checkpoint -stop-at 400, then -restore -stats-json (iota, sort);
#   - -sample interval=5k,warmup=1k with -sample-json (dhrystone),
#     ignoring host_seconds and the plan line, whose key covers the
#     executable's digest;
#   - the -sched 0 deadlock (exit 6, context dump) and -inject all -seed 7;
#   - bench/main.exe --quick, and `micro --quick --json` with the timing
#     fields and the label dropped from the JSON (its stdout is timing);
#   - the six examples;
#   - the archived reports: fuzz -lint-workloads -json, -tv-workloads
#     -json and -seed 1 -count 20 -json, and straightc -lint-json (both
#     targets) and -tv-json on a fuzz regression program.
# Every run's exit status is recorded with its stdout, and its stderr is
# compared too.  Outputs land in _sim_identity/{base,head}/; each
# differing file is named and the script exits 1.
set -eu

base=${1:?usage: sim_identity.sh BASE_CHECKOUT}
base=$(cd "$base" && pwd)
head=$(pwd)
out=$head/_sim_identity

for tree in "$base" "$head"; do
  for exe in bin/straightsim.exe bin/straightc.exe bin/fuzz.exe \
             bench/main.exe examples/quickstart.exe; do
    if [ ! -x "$tree/_build/default/$exe" ]; then
      echo "sim-identity: $tree/_build/default/$exe missing (run dune build there)" >&2
      exit 2
    fi
  done
done

# run NAME CMD...: stdout (then the exit status) to NAME.out, stderr to
# NAME.err
run() {
  name=$1
  shift
  "$@" >"$name.out" 2>"$name.err" && st=0 || st=$?
  echo "exit $st" >>"$name.out"
}

# strip KEY... < JSON: the document without those keys, at any depth
strip() {
  python3 -c '
import json, sys
drop = set(sys.argv[1:])
def go(v):
    if isinstance(v, dict):
        return {k: go(x) for k, x in v.items() if k not in drop}
    if isinstance(v, list):
        return [go(x) for x in v]
    return v
print(json.dumps(go(json.load(sys.stdin)), indent=1))
' "$@"
}

configs="straight-2way:straight straight-4way:straight-raw ss-2way:riscv ss-4way:ss"

# battery TREE DEST: every command with TREE's binaries, run from DEST so
# relative output paths (snapshots, stores) are the same on both sides
battery() {
  sim=$1/_build/default/bin/straightsim.exe
  bench=$1/_build/default/bench/main.exe
  mkdir -p "$2/logs"
  cd "$2"
  for cfg in $configs; do
    m=${cfg%%:*}
    t=${cfg##*:}
    for wl in fib iota sort quicksort pointer-chase dhrystone; do
      run "exact.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -stats-json "exact.$m.$t.$wl.json"
    done
    for wl in fib dhrystone; do
      run "ff.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -fast-forward 20000
      run "ffwarm.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -fast-forward 20000 -warm
    done
    for wl in iota sort; do
      run "stop.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -checkpoint "logs/$m.$wl.snap" -stop-at 400
      run "restore.$m.$t.$wl" "$sim" -restore "logs/$m.$wl.snap" \
        -stats-json "restore.$m.$t.$wl.json"
    done
    run "sample.$m.$t" "$sim" -model "$m" -target "$t" -workload dhrystone \
      -sample interval=5k,warmup=1k -store logs/store \
      -sample-json "logs/sample.$m.$t.json"
    grep -v '^plan ' "sample.$m.$t.out" >"logs/sample.out" || true
    mv "logs/sample.out" "sample.$m.$t.out"
    if [ -f "logs/sample.$m.$t.json" ]; then
      strip host_seconds <"logs/sample.$m.$t.json" >"sample.$m.$t.json"
    fi
  done
  run deadlock "$sim" -workload iota -sched 0 -dump-on-error -
  run inject.straight "$sim" -workload fib -inject all -seed 7
  run inject.riscv "$sim" -model ss-2way -target riscv -workload fib \
    -inject all -seed 7
  run bench.quick "$bench" --quick
  "$bench" micro --quick --json logs/micro.json >logs/micro.log 2>&1 \
    && st=0 || st=$?
  echo "exit $st" >micro.status
  if [ -f logs/micro.json ]; then
    strip label khz_reps khz_median khz_best <logs/micro.json >micro.json
  fi
  for ex in quickstart compiler_tour pipeline_explorer distance_profile \
            power_report asm_playground; do
    run "example.$ex" "$1/_build/default/examples/$ex.exe"
  done
  fuzz=$1/_build/default/bin/fuzz.exe
  cc=$1/_build/default/bin/straightc.exe
  run fuzz.lint "$fuzz" -lint-workloads -json fuzz.lint.json
  run fuzz.tv "$fuzz" -tv-workloads -json fuzz.tv.json
  run fuzz.seeds "$fuzz" -seed 1 -count 20 -json fuzz.seeds.json
  # the reports are labeled by the source path: give both trees one path
  cp "$head/test/fuzz_regressions/seed7_minint_call_arg.mc" logs/seed7.mc
  for t in straight riscv; do
    run "straightc.lint.$t" "$cc" -target "$t" -lint-json "straightc.lint.$t.json" \
      logs/seed7.mc
  done
  run straightc.tv "$cc" -tv-json straightc.tv.json logs/seed7.mc
}

rm -rf "$out"
mkdir -p "$out/base" "$out/head"
echo "sim-identity: running the battery with $base"
(battery "$base" "$out/base")
echo "sim-identity: running the battery with $head"
(battery "$head" "$out/head")

status=0
n=0
for f in $( (cd "$out/base" && ls; cd "$out/head" && ls) | grep -v '^logs$' | sort -u); do
  n=$((n + 1))
  if ! cmp -s "$out/base/$f" "$out/head/$f"; then
    echo "sim-identity: differs: $f"
    status=1
  fi
done
if [ "$status" = 0 ]; then
  echo "sim-identity: $n outputs byte-identical"
else
  echo "sim-identity: outputs differ (see $out/base and $out/head)"
fi
exit "$status"
