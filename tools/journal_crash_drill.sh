#!/usr/bin/env bash
# Journal crash drill: kill -9 a scliques-daemon at a random moment
# while a client streams wire mutations at it, restart on the same
# state dir, and assert the replayed epoch is well defined — at least
# every acked mutation (flush-before-ack), at most one more (journaled
# but killed before the ack left), always even (2 edits per script) —
# and that the daemon serves exactly the graph that epoch names.
#
# The daemon folds its journal into a new generation every 4 edits
# (--compact-threshold 4), so a round of client mutations crosses many
# generation flips and the kill lands inside a rebase as often as
# inside a journal append; the same epoch and graph checks cover both.
#
# Usage: tools/journal_crash_drill.sh [ROUNDS]
# Env:   BIN=dir holding the scliques / scliques-daemon executables
#        (default: _build/install/default/bin)
set -euo pipefail

ROUNDS=${1:-3}
BIN=$(cd "${BIN:-_build/install/default/bin}" && pwd)
SCLIQUES="$BIN/scliques"
DAEMON="$BIN/scliques-daemon"

WORK=$(mktemp -d)
DPID=""
trap '[ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

# the gadget, an edited twin (same n and m), and the two edit scripts
# that flip between them
"$SCLIQUES" gen --family gadget -n 3 -o base.edges > /dev/null
grep -v '^6 7$' base.edges > edited.edges
echo '0 1' >> edited.edges
"$SCLIQUES" diff base.edges edited.edges -o fwd.diff > /dev/null
"$SCLIQUES" mutate base.edges --diff fwd.diff -o mutated.edges > /dev/null
"$SCLIQUES" diff mutated.edges base.edges -o bwd.diff > /dev/null
"$SCLIQUES" enum base.edges -s 2 | sort > even.ref
"$SCLIQUES" enum mutated.edges -s 2 | sort > odd.ref

for round in $(seq 1 "$ROUNDS"); do
  rm -rf state sock
  "$DAEMON" --socket ./sock --graph base=base.edges --state-dir ./state \
    --compact-threshold 4 > daemon.log 2>&1 &
  DPID=$!
  for i in $(seq 1 150); do [ -S sock ] && break; sleep 0.1; done

  : > acks.log
  (
    i=0
    while :; do
      if [ $((i % 2)) -eq 0 ]; then D=fwd.diff; else D=bwd.diff; fi
      "$SCLIQUES" client mutate base "$D" --socket ./sock \
        >> acks.log 2> /dev/null || exit 0
      i=$((i + 1))
    done
  ) &
  MPID=$!

  sleep "0.$((RANDOM % 8 + 1))"
  kill -9 "$DPID"
  wait "$DPID" 2> /dev/null || true
  wait "$MPID" 2> /dev/null || true
  acked=$(grep -c '^applied' acks.log || true)

  rm -f sock
  "$DAEMON" --socket ./sock --graph base=base.edges --state-dir ./state \
    --compact-threshold 4 >> daemon.log 2>&1 &
  DPID=$!
  for i in $(seq 1 150); do [ -S sock ] && break; sleep 0.1; done

  epoch=$("$SCLIQUES" client --socket ./sock --list | sed -n 's/.*epoch=//p')
  [ $((epoch % 2)) -eq 0 ] \
    || { echo "round $round: odd epoch $epoch"; exit 1; }
  [ "$epoch" -ge $((2 * acked)) ] \
    || { echo "round $round: epoch $epoch lost acked mutations ($acked acked)"; exit 1; }
  [ "$epoch" -le $((2 * acked + 2)) ] \
    || { echo "round $round: epoch $epoch past acked+1 ($acked acked)"; exit 1; }

  if [ $(((epoch / 2) % 2)) -eq 0 ]; then ref=even.ref; else ref=odd.ref; fi
  "$SCLIQUES" client --socket ./sock base -s 2 | sort | diff "$ref" - \
    || { echo "round $round: replayed graph does not match epoch $epoch"; exit 1; }

  echo "round $round: acked=$acked replayed-epoch=$epoch OK"
  kill -TERM "$DPID"
  wait "$DPID" || true
  DPID=""
done
echo "journal crash drill: $ROUNDS rounds OK"
