#!/bin/sh
# Write one journal fixture: the journal a `mcss serve` build leaves
# behind after a load, a solve, 11 chained updates and one branch, cut
# off by kill -9, and the (digest, plan_digest) pair of every acked
# reply.
#
#   make_fixture.sh MCSS OUT [SERVE_ARGS...]
#
# writes OUT/journal/ (the journal directory, as the server left it) and
# OUT/acked (one "digest plan_digest" line per acked workload: the
# loaded root, each chained update, the branch). SERVE_ARGS go to
# `mcss serve` (for example --snapshot-every 2). The sequence is
# test/cli/update_smoke.sh's, with the chain run to 11 updates.
set -eu

MCSS="$1"
OUT="$2"
shift 2
TMP=$(mktemp -d "${TMPDIR:-/tmp}/mcss-fixture-XXXXXX")
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
  echo "make_fixture: $*" >&2
  exit 1
}

SOCK="$TMP/mcss.sock"
mkdir -p "$OUT"
JOURNAL="$OUT/journal"
[ -e "$JOURNAL" ] && fail "$JOURNAL exists"

"$MCSS" generate --trace spotify --scale 0.0005 --seed 11 -o "$TMP/w.wl" >/dev/null
"$MCSS" serve -l "unix:$SOCK" --journal "$JOURNAL" --silent "$@" &
SERVER_PID=$!
i=0
until "$MCSS" query -c "unix:$SOCK" health >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "server never became healthy"
  sleep 0.1
done

json_field() {
  grep -o "\"$1\":\"[^\"]*\"" | head -n 1 | cut -d'"' -f4
}

# update_from DIGEST DELTAS: print "<new digest> <plan_digest>".
update_from() {
  R=$("$MCSS" query -c "unix:$SOCK" update --digest "$1" --tau 50 --deltas "$2") \
    || fail "update from $1 failed"
  echo "$(echo "$R" | json_field digest) $(echo "$R" | json_field plan_digest)"
}

ROOT=$("$MCSS" query -c "unix:$SOCK" load -w "$TMP/w.wl" | json_field digest)
S=$("$MCSS" query -c "unix:$SOCK" solve --digest "$ROOT" --tau 50) || fail "solve failed"
echo "$ROOT $(echo "$S" | json_field plan_digest)" > "$TMP/acked"

printf 'mcss-deltas 1\nrate 120 250\nunsubscribe 0 308\nsubscribe 0 5\nnew-topic 42\nnew-subscriber 3 5 120 550\nsubscribe 1 550\n' > "$TMP/d1"
printf 'mcss-deltas 1\nrate 308 400\nsubscribe 2 550\nnew-subscriber 1 550\n' > "$TMP/d2"
printf 'mcss-deltas 1\nunsubscribe 1 550\nrate 550 60\nnew-topic 7\n' > "$TMP/d3"
i=4
while [ "$i" -le 11 ]; do
  printf 'mcss-deltas 1\nrate 120 %d\n' $((300 + i)) > "$TMP/d$i"
  i=$((i + 1))
done
printf 'mcss-deltas 1\nrate 120 90\nnew-topic 11\nnew-subscriber 2 5 120\n' > "$TMP/branch"

PREV=$ROOT
i=1
while [ "$i" -le 11 ]; do
  NEXT=$(update_from "$PREV" "$TMP/d$i")
  echo "$NEXT" >> "$TMP/acked"
  PREV=${NEXT%% *}
  i=$((i + 1))
done
update_from "$ROOT" "$TMP/branch" >> "$TMP/acked"

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
cp "$TMP/acked" "$OUT/acked"
