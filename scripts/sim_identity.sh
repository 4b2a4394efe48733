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
#     pointer_chase and dhrystone:100 on straight-2way/straight,
#     straight-4way/straight-raw, ss-2way/riscv and ss-4way/ss;
#   - -fast-forward 20000, with and without -warm (fib, dhrystone:100);
#   - -checkpoint -stop-at 400, then -restore -stats-json (iota, sort),
#     and the checkpoint files themselves (their meta names no
#     executable digest, so both trees write the same bytes);
#   - stream:1 (exact, -stats-json) on straight-4way/straight and
#     ss-4way/ss: its front-end queue backs up to thousands of uops;
#   - on the same two pairings, stream:1 and pointer_chase
#     checkpointed at cycle 20011, deep in a front-end backlog, then
#     -restore -stats-json; the checkpoint files are not compared: a
#     tree whose in-flight window grew writes a larger capacity;
#   - off Table I, on the same two pairings: -rob 4 -sched 2 (a ROB
#     narrower than a fetch group), -rob 1 -sched 1, -tage and -ideal
#     (fib, sort, pointer_chase, dhrystone:100);
#   - -sample interval=5k,warmup=1k with -sample-json (dhrystone:100),
#     ignoring host_seconds and the plan line, whose key covers the
#     executable's digest, and the interval files themselves, paired by
#     interval index (their names embed that key; their bytes, ISS state
#     from Iss.Machine.save included, must match);
#   - the -sched 0 deadlock (exit 6, context dump) and -inject all -seed 7;
#   - the paper's tables at quick sizes (sweep -grid paper -quick -j 0
#     -figures), and bench/main.exe `micro --quick --json` with the
#     timing fields and the label dropped from the JSON (its stdout is
#     timing);
#   - the six examples;
#   - the archived reports: fuzz -lint-workloads -json, -tv-workloads
#     -json and -seed 1 -count 20 -json, and straightc -lint-json (both
#     targets) and -tv-json on a fuzz regression program;
#   - the campaigns that build each source once for every checker: fuzz
#     -seed 1 -count 20 -tv -json for MiniC and WAT, -lint-only -tv,
#     and straightc -tv -lint -run -asm on the same regression program;
#   - the error battery: straightc and straightsim on one FILE for each
#     compile-family code a CLI can reach (LEX_ERROR, PARSE_ERROR,
#     LOWER_ERROR, WASM_ERROR, and CODEGEN_ERROR at -maxdist 2), whose
#     stderr carries the code, message and context;
#   - the compilers' listings: straightc -asm at -O0/-O1/-O2 for
#     -target riscv, -target straight, -raw and -maxdist 31, over every
#     program in test/fuzz_regressions/ and every a*.wat accept fixture
#     in test/wasm_fixtures/.
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
             bin/sweep.exe bench/main.exe examples/quickstart.exe; do
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
    for wl in fib iota sort quicksort pointer_chase dhrystone:100; do
      run "exact.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -stats-json "exact.$m.$t.$wl.json"
    done
    for wl in fib dhrystone:100; do
      run "ff.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -fast-forward 20000
      run "ffwarm.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -fast-forward 20000 -warm
    done
    for wl in iota sort; do
      run "stop.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -checkpoint "logs/$m.$wl.snap" -stop-at 400
      if [ -f "logs/$m.$wl.snap" ]; then
        cp "logs/$m.$wl.snap" "stop.$m.$t.$wl.snap"
      fi
      run "restore.$m.$t.$wl" "$sim" -restore "logs/$m.$wl.snap" \
        -stats-json "restore.$m.$t.$wl.json"
    done
    run "sample.$m.$t" "$sim" -model "$m" -target "$t" \
      -workload dhrystone:100 -sample interval=5k,warmup=1k -store logs/store \
      -sample-json "logs/sample.$m.$t.json"
    # the interval files, by index: their names start with the plan key
    # (the plan line's prefix of it), their bytes must not differ
    key=$(sed -n 's/^plan \([0-9a-f]*\):.*/\1/p' "sample.$m.$t.out")
    if [ -n "$key" ]; then
      for f in logs/store/sample/"$key"*.i*.snap; do
        [ -f "$f" ] || continue
        i=${f##*.i}
        cp "$f" "sample.$m.$t.i${i%.snap}.snap"
      done
    fi
    grep -v '^plan ' "sample.$m.$t.out" >"logs/sample.out" || true
    mv "logs/sample.out" "sample.$m.$t.out"
    if [ -f "logs/sample.$m.$t.json" ]; then
      strip host_seconds <"logs/sample.$m.$t.json" >"sample.$m.$t.json"
    fi
  done
  for cfg in straight-4way:straight ss-4way:ss; do
    m=${cfg%%:*}
    t=${cfg##*:}
    run "exact.$m.$t.stream:1" "$sim" -model "$m" -target "$t" \
      -workload stream:1 -stats-json "exact.$m.$t.stream:1.json"
    for wl in stream:1 pointer_chase; do
      run "deep.$m.$t.$wl" "$sim" -model "$m" -target "$t" -workload "$wl" \
        -checkpoint "logs/deep.$m.$wl.snap" -stop-at 20011
      run "deep-restore.$m.$t.$wl" "$sim" -restore "logs/deep.$m.$wl.snap" \
        -stats-json "deep-restore.$m.$t.$wl.json"
    done
    for opts in "-rob 4 -sched 2" "-rob 1 -sched 1" -tage -ideal; do
      tag=$(echo "$opts" | tr -d ' -')
      for wl in fib sort pointer_chase dhrystone:100; do
        # unquoted: $opts is a list of flags
        run "off.$m.$t.$tag.$wl" "$sim" -model "$m" -target "$t" \
          -workload "$wl" $opts -stats-json "off.$m.$t.$tag.$wl.json"
      done
    done
  done
  run deadlock "$sim" -workload iota -sched 0 -dump-on-error -
  run inject.straight "$sim" -workload fib -inject all -seed 7
  run inject.riscv "$sim" -model ss-2way -target riscv -workload fib \
    -inject all -seed 7
  run paper.quick "$1/_build/default/bin/sweep.exe" -grid paper -quick -j 0 \
    -cache-dir logs/paper -no-stream -out logs/paper.json \
    -figures paper.quick.md
  # the summary line carries the wall time
  sed 's/ in [0-9.]*s -> / -> /' paper.quick.err >logs/paper.err
  mv logs/paper.err paper.quick.err
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
  run fuzz.seeds.tv "$fuzz" -seed 1 -count 20 -tv -json fuzz.seeds.tv.json
  run fuzz.wasm.tv "$fuzz" -target wasm -seed 1 -count 20 -tv \
    -json fuzz.wasm.tv.json
  run fuzz.lint-only.tv "$fuzz" -lint-only -seed 1 -count 20 -tv
  run straightc.all "$cc" -tv -lint -run -asm logs/seed7.mc
  printf 'int main() { return 1 @ 2; }\n' >logs/err.lex.mc
  printf 'int main() { return 1 + ; }\n' >logs/err.parse.mc
  printf 'int main() { return undefined_var; }\n' >logs/err.lower.mc
  printf '(module\n  (func $f (result i32)\n    i32.const 1))\n' \
    >logs/err.wasm.wat
  for f in lex.mc parse.mc lower.mc wasm.wat; do
    run "err.straightc.$f" "$cc" "logs/err.$f"
    run "err.straightsim.$f" "$sim" "logs/err.$f"
  done
  run err.straightc.codegen "$cc" -maxdist 2 logs/seed7.mc
  run err.straightsim.codegen "$sim" -maxdist 2 logs/seed7.mc
  for src in "$head"/test/fuzz_regressions/* "$head"/test/wasm_fixtures/a*.wat; do
    prog=$(basename "$src")
    ext=${prog##*.}
    # one path per extension in both trees: a listing may name its source
    cp "$src" "logs/prog.$ext"
    for o in O0 O1 O2; do
      run "asm.$prog.riscv.$o" "$cc" -target riscv "-$o" -asm "logs/prog.$ext"
      run "asm.$prog.straight.$o" "$cc" -target straight "-$o" -asm \
        "logs/prog.$ext"
      run "asm.$prog.raw.$o" "$cc" -target straight -raw "-$o" -asm \
        "logs/prog.$ext"
      run "asm.$prog.maxdist31.$o" "$cc" -target straight -maxdist 31 "-$o" \
        -asm "logs/prog.$ext"
    done
  done
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
