#!/bin/sh
# Daemon smoke: start straightd on a scratch socket + cache, drive the
# load generator twice with the same request mix, and require
#   - the cold run to complete with zero request errors,
#   - the warm (identical) run to be served >= 90% from the memo cache,
#   - a sized workload (coremark:1) to be answered with straightsim's
#     cycles and committed count on the same point, at one iteration,
#   - a point that deadlocks in its worker (a 0-entry scheduler) to be
#     answered as straightsim reports it: code SIM_DEADLOCK, and
#     straightd-client exiting 6 (Diag.exit_code Sim_deadlock),
#   - a 0-entry ROB to be refused by both the daemon and straightsim
#     with the same CONFIG_ERROR message, each exiting 2,
#   - a clean shutdown (daemon exit 0, socket unlinked).
# The straightd-bench/1 reports land in _daemon_smoke/ for CI to
# archive.  Run via `make daemon-smoke`.
set -eu

DIR=_daemon_smoke
SOCK=$DIR/straightd.sock
CACHE=$DIR/cache
MIX="simulate:fib,simulate:iota,simulate:sort:straight-re,simulate:coremark:1:ss,compile:dhrystone:straight-re,status"
CLIENTS=8
REQUESTS=10

rm -rf "$DIR"
mkdir -p "$DIR"

# build once up front: the daemon runs in the background, so later dune
# invocations would contend for the build lock
dune build bin/straightd.exe bin/straightd_client.exe bin/straightsim.exe
STRAIGHTD=_build/default/bin/straightd.exe
CLIENT=_build/default/bin/straightd_client.exe
SIM=_build/default/bin/straightsim.exe

"$STRAIGHTD" -socket "$SOCK" -j 4 -cache-dir "$CACHE" \
  >"$DIR/daemon.log" 2>&1 &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

# wait for the socket to come up
i=0
until [ -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "daemon-smoke: daemon never came up"; exit 1; }
  kill -0 "$DPID" 2>/dev/null || {
    echo "daemon-smoke: daemon died at startup"
    cat "$DIR/daemon.log"
    exit 1
  }
  sleep 0.1
done

echo "daemon-smoke: cold run ($CLIENTS clients x $REQUESTS requests)"
"$CLIENT" -socket "$SOCK" -bench -clients "$CLIENTS" -requests "$REQUESTS" \
  -mix "$MIX" -out "$DIR/bench-cold.json"

echo "daemon-smoke: warm run (identical mix)"
"$CLIENT" -socket "$SOCK" -bench -clients "$CLIENTS" -requests "$REQUESTS" \
  -mix "$MIX" -out "$DIR/bench-warm.json"

# the warm run must be served (almost) entirely from the memo cache
awk -F': ' '/"cache_hit_rate"/ {
  gsub(/[,"]/, "", $2)
  rate = $2 + 0
  printf "daemon-smoke: warm cache hit rate %.3f\n", rate
  exit !(rate >= 0.90)
}' "$DIR/bench-warm.json" || {
  echo "daemon-smoke: warm hit rate below 0.90"
  exit 1
}

echo "daemon-smoke: a sized workload answers as straightsim does"
"$CLIENT" -socket "$SOCK" -quiet \
  -json '{"op":"simulate","workload":"coremark:1","machine":"ss","width":2}' \
  >"$DIR/sized.json"
"$SIM" -model ss-2way -target riscv -workload coremark:1 \
  -stats-json "$DIR/sized.cli.json" >/dev/null
python3 - "$DIR/sized.json" "$DIR/sized.cli.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))["result"]
c = json.load(open(sys.argv[2]))
got = (r["cycles"], r["committed"], r["iterations"])
want = (c["cycles"], c["instructions"], 1)
print("daemon-smoke: coremark:1 (cycles, committed, iterations): "
      "daemon %s, straightsim %s" % (got, want))
sys.exit(got != want)
EOF

echo "daemon-smoke: a deadlocking point reports SIM_DEADLOCK"
st=0
"$CLIENT" -socket "$SOCK" -quiet \
  -json '{"op":"simulate","workload":"fib","sched":0}' \
  >"$DIR/deadlock.json" || st=$?
if [ "$st" != 6 ] || ! grep -q '"code": "SIM_DEADLOCK"' "$DIR/deadlock.json"
then
  echo "daemon-smoke: deadlock reply exited $st, want SIM_DEADLOCK and 6"
  cat "$DIR/deadlock.json"
  exit 1
fi

echo "daemon-smoke: a 0-entry ROB is a CONFIG_ERROR in both"
st=0
"$CLIENT" -socket "$SOCK" -quiet \
  -json '{"op":"simulate","workload":"fib","rob":0}' \
  >"$DIR/rob0.json" || st=$?
sst=0
"$SIM" -workload fib -rob 0 >/dev/null 2>"$DIR/rob0.err" || sst=$?
want='ROB entries must be at least 1, got 0'
if [ "$st" != 2 ] || [ "$sst" != 2 ] \
   || ! grep -q '"code": "CONFIG_ERROR"' "$DIR/rob0.json" \
   || ! grep -q "$want" "$DIR/rob0.json" \
   || ! grep -q "CONFIG_ERROR: $want" "$DIR/rob0.err"
then
  echo "daemon-smoke: rob 0 exited $st (daemon) and $sst (straightsim),"
  echo "  want CONFIG_ERROR \"$want\" and 2 from both"
  cat "$DIR/rob0.json" "$DIR/rob0.err"
  exit 1
fi

"$CLIENT" -socket "$SOCK" -op status -quiet >"$DIR/status.json"

echo "daemon-smoke: shutting down"
"$CLIENT" -socket "$SOCK" -op shutdown -quiet >/dev/null

i=0
while kill -0 "$DPID" 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "daemon-smoke: daemon ignored shutdown"; exit 1; }
  sleep 0.1
done
wait "$DPID" 2>/dev/null || {
  echo "daemon-smoke: daemon exited non-zero"
  cat "$DIR/daemon.log"
  exit 1
}
trap - EXIT

[ ! -e "$SOCK" ] || { echo "daemon-smoke: socket not unlinked"; exit 1; }

echo "daemon-smoke: clean shutdown, warm mix served from cache"
