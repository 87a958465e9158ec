#!/bin/sh
# End-to-end crash smoke for the live update endpoint.
#
#   1. Boot `mcss serve --journal`, load a workload, solve once.
#   2. Send a delta batch with `mcss query update` and assert the reply
#      names a new workload digest and a changed plan digest. Chain two
#      more batches onto it (the server applies those to the engine it
#      kept from the previous update) and branch once from the base
#      digest (which re-adopts the base plan).
#   3. kill -9 the server; `mcss journal --verify` must count six WAL
#      records (load, plan, four updates). Restart it over the same
#      journal; the `stats` reply's `replay` object must count exactly
#      1 workload, 1 plan, 4 updates and 0 skipped records, and its
#      plan-cache counters must read 0 hits and 0 misses. Assert the
#      replayed updates reproduce every post-update plan bit-for-bit:
#      solving at each evolved digest is a cache hit with the same
#      plan_digest the live update reported.
#   4. Chain three more batches, so that the server evicts the older
#      versions from memory; solving an evicted digest rebuilds it and
#      answers its acked plan_digest, again after another kill -9.
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

# Two more batches for the chain (valid after the first), and a branch
# valid against the base trace.
cat > "$TMP/chain2.deltas" <<'EOF'
mcss-deltas 1
rate 308 400
subscribe 2 550
new-subscriber 1 550
EOF
cat > "$TMP/chain3.deltas" <<'EOF'
mcss-deltas 1
unsubscribe 1 550
rate 550 60
new-topic 7
EOF
cat > "$TMP/branch.deltas" <<'EOF'
mcss-deltas 1
rate 120 90
new-topic 11
new-subscriber 2 5 120
EOF

# update_from DIGEST DELTAS_FILE NAME: apply the batch, check that the
# reply evolved the digest with the right lineage, and print
# "<new digest> <plan_digest>".
update_from() {
  R=$("$MCSS" query -c "unix:$SOCK" update --digest "$1" --tau 50 \
    --deltas "$2") || fail "$3 update failed"
  D=$(echo "$R" | json_field digest)
  P=$(echo "$R" | json_field plan_digest)
  [ -n "$D" ] && [ -n "$P" ] || fail "$3 update reply lacks digests: $R"
  [ "$D" != "$1" ] || fail "$3 update did not evolve the workload digest"
  echo "$R" | grep -q "\"previous_digest\":\"$1\"" \
    || fail "$3 update lost its lineage: $R"
  echo "$D $P"
}

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

# The chain continues from each update's own digest; the branch starts
# over from the base digest.
CHAIN2=$(update_from "$DIGEST2" "$TMP/chain2.deltas" "second chained")
CHAIN3=$(update_from "${CHAIN2%% *}" "$TMP/chain3.deltas" "third chained")
BRANCH=$(update_from "$DIGEST" "$TMP/branch.deltas" "branch")

# ----- phase 3: kill -9; the replayed journal reproduces the update -----
stop_server_hard
# Each update is one WAL record of its own: load, plan, four updates —
# no load record of an evolved workload.
VERIFY=$("$MCSS" journal --dir "$JOURNAL" --verify) \
  || fail "journal verify after the crash failed: $VERIFY"
echo "$VERIFY" | grep -q 'wal records: 6 ' \
  || fail "wanted 6 WAL records (load, plan, 4 updates): $VERIFY"
start_server
# The restart replayed the whole journal: one workload, one plan, four
# updates, nothing skipped. These counts were read from a build older
# than the typed record codec, and must not move.
STATS=$("$MCSS" query -c "unix:$SOCK" stats) || fail "stats after the restart failed"
REPLAY=$(echo "$STATS" | grep -o '"replay":{[^}]*}') \
  || fail "stats reply has no replay object: $STATS"
for WANT in '"workloads_recovered":1' '"plans_recovered":1' \
  '"updates_replayed":4' '"records_skipped":0'; do
  echo "$REPLAY" | grep -q "$WANT[,}]" || fail "replay stats: wanted $WANT: $REPLAY"
done
# Replaying the updates looked their bases up in the plan cache, but
# that is not client traffic: no hit and no miss before the first solve.
echo "$STATS" | grep -q '"hits":0,"misses":0' \
  || fail "replay counted as plan-cache traffic: $STATS"
for SERVED in "$DIGEST2 $PLAN2" "$CHAIN2" "$CHAIN3" "$BRANCH"; do
  D=${SERVED%% *} P=${SERVED#* }
  SOLVE2=$("$MCSS" query -c "unix:$SOCK" solve --digest "$D" --tau 50) \
    || fail "post-crash solve at evolved digest $D failed"
  echo "$SOLVE2" | grep -q '"cached":true' \
    || fail "replayed update was not served from cache: $SOLVE2"
  REPLAYED=$(echo "$SOLVE2" | json_field plan_digest)
  [ "$P" = "$REPLAYED" ] \
    || fail "replay diverged from the live update at $D: $P vs $REPLAYED"
done

# The base plan survived too: same digest, same answer.
SOLVE3=$("$MCSS" query -c "unix:$SOCK" solve --digest "$DIGEST" --tau 50) \
  || fail "post-crash solve at the base digest failed"
[ "$(echo "$SOLVE3" | json_field plan_digest)" = "$PLAN1" ] \
  || fail "base plan digest changed across the crash"

# ----- phase 4: an evicted version is rebuilt, not lost -----
# The server keeps only the newest update-derived version in memory.
# Chain 3 more batches (rate shifts of topic 120) onto the third chained
# digest: the first of them, and the first chained digest before it,
# are then evicted. Solving either rebuilds it by replaying its update
# records and answers the plan_digest its update acked; so does a
# restart after another kill -9.
PREV=${CHAIN3%% *}
FIRST=""
i=1
while [ "$i" -le 3 ]; do
  printf 'mcss-deltas 1\nrate 120 %d\n' $((300 + i)) > "$TMP/extra$i.deltas"
  NEXT=$(update_from "$PREV" "$TMP/extra$i.deltas" "extra chained $i")
  [ -n "$FIRST" ] || FIRST=$NEXT
  PREV=${NEXT%% *}
  i=$((i + 1))
done
solve_evicted() { # solve_evicted WHEN
  for SERVED in "$FIRST" "$DIGEST2 $PLAN2"; do
    D=${SERVED%% *} P=${SERVED#* }
    R=$("$MCSS" query -c "unix:$SOCK" solve --digest "$D" --tau 50) \
      || fail "$1: solve at evicted digest $D failed"
    [ "$(echo "$R" | json_field plan_digest)" = "$P" ] \
      || fail "$1: evicted version $D lost its acked plan: $R"
  done
}
solve_evicted "live"
STATS=$("$MCSS" query -c "unix:$SOCK" stats) || fail "stats after the evictions failed"
echo "$STATS" | grep -q '"versions":{"resident":1,"evicted":[1-9][0-9]*,"rebuilt":[1-9]' \
  || fail "wanted evicted and rebuilt versions: $STATS"
stop_server_hard
start_server
solve_evicted "after a second kill -9"

"$MCSS" query -c "unix:$SOCK" shutdown >/dev/null 2>&1 || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "update_smoke: OK"
