#!/bin/sh
# Profile smoke: `mcss profile --format jsonl` at Spotify scale 0.0005,
# seed 11, runs the solver, the simulator and the broker-fleet latency
# pass with instrumentation on. Every metric it prints is a function of
# the trace seed, so the metric lines are diffed against
# profile_smoke.expected (next to this script). Two kinds of line are
# dropped first: spans, which carry wall time, and the gc.* counters,
# whose word counts move with any allocation made before the solve
# (argument parsing included) rather than with the model.
#
# usage: profile_smoke.sh path/to/mcss [expected]
set -eu

MCSS=${1:?usage: profile_smoke.sh path/to/mcss [expected]}
EXPECTED=${2:-$(dirname "$0")/profile_smoke.expected}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/mcss-profile-smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT INT TERM

"$MCSS" profile --trace spotify --scale 0.0005 --seed 11 --format jsonl > "$DIR/all.jsonl"
grep -v -e '"type":"span"' -e '"name":"gc\.' "$DIR/all.jsonl" > "$DIR/metrics.jsonl"
diff -u "$EXPECTED" "$DIR/metrics.jsonl"
echo "profile smoke: $(wc -l < "$DIR/metrics.jsonl" | tr -d ' ') metric lines match"
