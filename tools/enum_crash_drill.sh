#!/usr/bin/env bash
# Enum crash drill: run budgeted `scliques enum --checkpoint/--resume`
# rounds, kill -9 some of them at random moments, and resume until a run
# exits 0; then assert that the final .results stream holds the full
# answer with no duplicates, and that its SCLQIDX1 sidecar loads.
#
# Every run gets a short --deadline, so a run that is not killed
# truncates (exit 3) and saves a checkpoint. The graph yields tens of
# thousands of results, so each run fills the stream's 64 KiB channel
# buffer several times: a kill usually lands after some records reached
# the file and before the run's checkpoint save, the window in which a
# resume must drop the records its checkpoint does not count.
#
# Usage: tools/enum_crash_drill.sh [ROUNDS]
# Env:   BIN=dir holding the scliques executable
#        (default: _build/install/default/bin)
set -euo pipefail

ROUNDS=${1:-3}
BIN=$(cd "${BIN:-_build/install/default/bin}" && pwd)
SCLIQUES="$BIN/scliques"
MAX_RUNS=200

WORK=$(mktemp -d)
PID=""
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

for round in $(seq 1 "$ROUNDS"); do
  rm -f g.edges ck ck.* full.sorted
  "$SCLIQUES" gen --family er -n 2000 --avg-degree 10 --seed "$round" -o g.edges > /dev/null
  "$SCLIQUES" enum g.edges -s 2 -a cs2pf | sort > full.sorted

  runs=0
  kills=0
  while :; do
    runs=$((runs + 1))
    [ "$runs" -le "$MAX_RUNS" ] || { echo "round $round: no complete run in $MAX_RUNS runs"; exit 1; }
    # resume while a checkpoint exists; before the first one is saved,
    # (re)start from scratch
    if [ -f ck ]; then from=(--resume ck); else from=(--checkpoint ck); fi
    "$SCLIQUES" enum g.edges -s 2 -a cs2pf --deadline 0.25 "${from[@]}" \
      > /dev/null 2> run.err &
    PID=$!
    if [ $((RANDOM % 3)) -ne 0 ]; then
      sleep "$(printf '0.%02d' $((RANDOM % 30 + 1)))"
      kill -9 "$PID" 2> /dev/null || true
    fi
    code=0
    wait "$PID" 2> /dev/null || code=$?
    PID=""
    case "$code" in
      0) break ;;
      3) ;;
      137) kills=$((kills + 1)) ;;
      *)
        echo "round $round: run $runs exited $code: $(cat run.err)"
        exit 1
        ;;
    esac
  done

  [ ! -f ck ] || { echo "round $round: a complete run left its checkpoint"; exit 1; }
  "$SCLIQUES" diff g.edges g.edges -o zero.diff > /dev/null
  "$SCLIQUES" refresh g.edges --diff zero.diff --results ck.results -s 2 \
    > streamed.txt 2> refresh.err
  if grep -q "ignoring index" refresh.err; then
    echo "round $round: sidecar refused: $(cat refresh.err)"
    exit 1
  fi
  sort streamed.txt | diff -q - full.sorted > /dev/null \
    || { echo "round $round: stream is not the full answer ($(wc -l < streamed.txt) records, $(wc -l < full.sorted) expected)"; exit 1; }

  echo "round $round: $runs runs, $kills killed, $(wc -l < full.sorted) results OK"
done
echo "enum crash drill: $ROUNDS rounds OK"
