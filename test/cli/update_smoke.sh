#!/bin/sh
# End-to-end crash smoke for the live update endpoint.
#
#   1. Boot `mcss serve --journal`, load a workload, solve once.
#   2. Send a delta batch with `mcss query update` and assert the reply
#      names a new workload digest and a changed plan digest.
#   3. kill -9 the server; `mcss journal --verify` must count three WAL
#      records (load, plan, update). Restart it over the same journal,
#      and assert the replayed update reproduces the post-update plan
#      bit-for-bit: solving at the evolved digest is a cache hit with the
#      same plan_digest the live update reported.
#
# Usage: update_smoke.sh /path/to/mcss
# Exits non-zero (with a one-line reason on stderr) on the first failure.
set -eu

MCSS="$1"
TMP=$(mktemp -d "${TMPDIR:-/tmp}/mcss-update-XXXXXX")
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
  echo "update_smoke: $*" >&2
  exit 1
}

SOCK="$TMP/mcss.sock"
JOURNAL="$TMP/journal"
WL="$TMP/w.wl"
DELTAS="$TMP/tick.deltas"

start_server() {
  "$MCSS" serve -l "unix:$SOCK" --journal "$JOURNAL" --silent "$@" &
  SERVER_PID=$!
  i=0
  until "$MCSS" query -c "unix:$SOCK" health >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "server never became healthy"
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
    sleep 0.1
  done
}

stop_server_hard() {
  kill -9 "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

json_field() { # json_field KEY <<< reply  (string or hex values)
  grep -o "\"$1\":\"[^\"]*\"" | head -n 1 | cut -d'"' -f4
}

"$MCSS" generate --trace spotify --scale 0.0005 --seed 11 -o "$WL" >/dev/null

# A churn batch valid against that trace: a rate burst, an interest
# flip on subscriber 0 (it follows topic 308), a topic launch, and a
# sign-up that immediately follows the new topic (id 550).
cat > "$DELTAS" <<'EOF'
mcss-deltas 1
rate 120 250
unsubscribe 0 308
subscribe 0 5
new-topic 42
new-subscriber 3 5 120 550
subscribe 1 550
EOF

# ----- phase 1: load and solve the base plan, durably -----
start_server
LOAD=$("$MCSS" query -c "unix:$SOCK" load -w "$WL")
DIGEST=$(echo "$LOAD" | json_field digest)
[ -n "$DIGEST" ] || fail "load returned no digest: $LOAD"

SOLVE1=$("$MCSS" query -c "unix:$SOCK" solve --digest "$DIGEST" --tau 50) \
  || fail "base solve failed"
PLAN1=$(echo "$SOLVE1" | json_field plan_digest)
[ -n "$PLAN1" ] || fail "base solve carried no plan_digest: $SOLVE1"

# ----- phase 2: live update evolves the digest and the plan -----
UPDATE=$("$MCSS" query -c "unix:$SOCK" update --digest "$DIGEST" --tau 50 \
  --deltas "$DELTAS") || fail "update failed"
echo "$UPDATE" | grep -q '"deltas_applied":6' \
  || fail "update did not apply 6 deltas: $UPDATE"
DIGEST2=$(echo "$UPDATE" | json_field digest)
PLAN2=$(echo "$UPDATE" | json_field plan_digest)
[ -n "$DIGEST2" ] || fail "update returned no digest: $UPDATE"
[ "$DIGEST2" != "$DIGEST" ] || fail "update did not evolve the workload digest"
[ "$PLAN2" != "$PLAN1" ] || fail "update did not change the plan digest"
echo "$UPDATE" | grep -q "\"previous_digest\":\"$DIGEST\"" \
  || fail "update lost its lineage: $UPDATE"

# ----- phase 3: kill -9; the replayed journal reproduces the update -----
stop_server_hard
# The update is one WAL record of its own: load, plan, update — no load
# record of the evolved workload.
VERIFY=$("$MCSS" journal --dir "$JOURNAL" --verify) \
  || fail "journal verify after the crash failed: $VERIFY"
echo "$VERIFY" | grep -q 'wal records: 3 ' \
  || fail "wanted 3 WAL records (load, plan, update): $VERIFY"
start_server
SOLVE2=$("$MCSS" query -c "unix:$SOCK" solve --digest "$DIGEST2" --tau 50) \
  || fail "post-crash solve at the evolved digest failed"
echo "$SOLVE2" | grep -q '"cached":true' \
  || fail "replayed update was not served from cache: $SOLVE2"
PLAN3=$(echo "$SOLVE2" | json_field plan_digest)
[ "$PLAN2" = "$PLAN3" ] \
  || fail "replay diverged from the live update: $PLAN2 vs $PLAN3"

# The base plan survived too: same digest, same answer.
SOLVE3=$("$MCSS" query -c "unix:$SOCK" solve --digest "$DIGEST" --tau 50) \
  || fail "post-crash solve at the base digest failed"
[ "$(echo "$SOLVE3" | json_field plan_digest)" = "$PLAN1" ] \
  || fail "base plan digest changed across the crash"

"$MCSS" query -c "unix:$SOCK" shutdown >/dev/null 2>&1 || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "update_smoke: OK"
