#!/bin/sh
# Bad-input matrix for every subcommand that builds an MCSS problem.
# Each one runs at `--trace spotify --scale 0.0005 --seed 11` with one
# bad value: --scale 0, --scale 1.5, --tau 0, --bc-events 0 or
# --instance nope (analyze builds only the workload, so it gets the
# scale values only). Required file flags get paths that do not exist;
# the bad value must be caught before any file is opened. Every run
# must exit 1 with exactly one stderr line starting "mcss: ", print
# nothing on stdout and leave no process behind.
#
# Usage: bad_inputs.sh /path/to/mcss
set -u

MCSS=${1:?usage: bad_inputs.sh path/to/mcss}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/mcss-badinputs-XXXXXX")
trap 'rm -rf "$TMP"' EXIT

PROBLEM_CMDS="solve lower-bound simulate update budget export-lp verify chaos
elastic profile dataplane pump"
BAD_VALUES="--scale=0 --scale=1.5 --tau=0 --bc-events=0 --instance=nope"
BAD_SCALES="--scale=0 --scale=1.5"

# The flags each subcommand requires besides the problem.
required() {
  case "$1" in
    update) echo "--deltas $TMP/missing.deltas" ;;
    export-lp) echo "-o $TMP/out.lp" ;;
    verify) echo "--plan $TMP/missing.plan" ;;
    elastic) echo "--scenario $TMP/missing.scenario" ;;
    dataplane | pump) echo "--plan $TMP/missing.plan --dir $TMP/fleet" ;;
  esac
}

runs=0
failed=0
check() {
  cmd=$1
  bad=$2
  case "$bad" in --scale=*) scale=${bad#--scale=}; extra="" ;; *) scale=0.0005; extra=$bad ;; esac
  # shellcheck disable=SC2046
  timeout 60 "$MCSS" "$cmd" --trace spotify --scale "$scale" --seed 11 $extra \
    $(required "$cmd") >"$TMP/out" 2>"$TMP/err"
  code=$?
  runs=$((runs + 1))
  why=""
  [ "$code" -eq 1 ] || why="exit $code"
  [ -s "$TMP/out" ] && why="$why; stdout not empty"
  [ "$(wc -l <"$TMP/err")" -eq 1 ] || why="$why; $(wc -l <"$TMP/err") stderr lines"
  head -n 1 "$TMP/err" | grep -q '^mcss: ' || why="$why; stderr not 'mcss: ...'"
  pgrep -f "$TMP" >/dev/null && why="$why; process left running"
  if [ -n "$why" ]; then
    failed=$((failed + 1))
    echo "FAIL $cmd $bad: ${why#; } -- $(head -n 1 "$TMP/err")"
  fi
}

for cmd in $PROBLEM_CMDS; do
  for bad in $BAD_VALUES; do check "$cmd" "$bad"; done
done
for bad in $BAD_SCALES; do check analyze "$bad"; done

echo "bad inputs: $runs runs, $failed failed"
[ "$failed" -eq 0 ]
