#!/bin/sh
# End-to-end smoke for the live dataplane.
#
#   1. Generate a trace, solve it to a 3-VM plan.
#   2. Boot `mcss dataplane` (one Unix socket per planned VM) in the
#      background and wait until every broker answers `health`.
#   3. `mcss pump` a fixed event budget through the fleet with
#      zero-tolerance reconciliation: exit 0, reconcile PASS, ledger
#      totals accounted.
#   4. Drain one broker and pump the same budget again: its pairs go
#      undelivered and the pump exits 4 — the parseable
#      reconciliation-deviation code.
#   5. Shut every broker down gracefully; the fleet process exits on
#      its own and unlinks its sockets.
#
# Usage: dataplane_smoke.sh /path/to/mcss
# Exits non-zero (with a one-line reason on stderr) on the first failure.
set -eu

MCSS="$1"
TMP=$(mktemp -d "${TMPDIR:-/tmp}/mcss-dp-XXXXXX")
FLEET_PID=""

cleanup() {
  [ -n "$FLEET_PID" ] && kill -9 "$FLEET_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
  echo "dataplane_smoke: $*" >&2
  exit 1
}

WL="$TMP/w.wl"
PLAN="$TMP/plan.json"
DIR="$TMP/fleet"

# ----- phase 1: a plan that needs three brokers -----
"$MCSS" generate --trace spotify --scale 0.0002 --seed 11 -o "$WL" >/dev/null
"$MCSS" solve -w "$WL" --save-plan "$PLAN" >/dev/null

# ----- phase 2: boot the fleet and wait for every broker -----
"$MCSS" dataplane -w "$WL" --plan "$PLAN" --dir "$DIR" \
  > "$TMP/dataplane.log" 2>&1 &
FLEET_PID=$!

i=0
until [ -f "$DIR/fleet.json" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "fleet manifest never appeared"
  kill -0 "$FLEET_PID" 2>/dev/null || fail "fleet died during startup"
  sleep 0.1
done
for vm in 0 1 2; do
  i=0
  until "$MCSS" query -c "unix:$DIR/broker-$vm.sock" health \
      >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "broker $vm never became healthy"
    sleep 0.1
  done
done
grep -q "3 brokers up" "$TMP/dataplane.log" \
  || fail "expected a 3-broker fleet: $(cat "$TMP/dataplane.log")"

# ----- phase 3: fixed event budget, exact reconciliation -----
PUMP1=$("$MCSS" pump -w "$WL" --plan "$PLAN" --dir "$DIR" \
  --duration 0.2 --tolerance 0 --report "$TMP/pump.json") \
  || fail "healthy pump run failed"
echo "$PUMP1" | grep -q "reconcile: PASS" \
  || fail "healthy fleet did not reconcile: $PUMP1"
echo "$PUMP1" | grep -q "0 send failures" \
  || fail "healthy pump run had send failures: $PUMP1"
python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["reconcile"]["pass"] is True' \
  "$TMP/pump.json" \
  || fail "pump report did not record the pass: $(cat "$TMP/pump.json")"

# Ledger totals are served over the control socket and parseable.
LEDGER=$("$MCSS" query -c "unix:$DIR/broker-0.sock" ledger) \
  || fail "ledger query failed"
echo "$LEDGER" | grep -q '"delivered":' \
  || fail "ledger carries no delivered count: $LEDGER"
echo "$LEDGER" | grep -q '"handoffs":' \
  || fail "ledger carries no handoffs count: $LEDGER"

# ----- phase 4: drain a broker; deviation is a parseable exit 4 -----
DRAIN=$("$MCSS" query -c "unix:$DIR/broker-0.sock" drain) \
  || fail "drain failed"
echo "$DRAIN" | grep -q '"draining":true' \
  || fail "drain did not flip the flag: $DRAIN"

set +e
"$MCSS" pump -w "$WL" --plan "$PLAN" --dir "$DIR" \
  --duration 0.2 --tolerance 0 > "$TMP/pump2.log" 2>&1
RC=$?
set -e
[ "$RC" -eq 4 ] \
  || fail "pump against a drained broker exited $RC, want 4: $(cat "$TMP/pump2.log")"
grep -q "reconcile: FAIL" "$TMP/pump2.log" \
  || fail "drained fleet still reconciled: $(cat "$TMP/pump2.log")"

# ----- phase 5: graceful shutdown, sockets unlinked -----
for vm in 0 1 2; do
  "$MCSS" query -c "unix:$DIR/broker-$vm.sock" shutdown >/dev/null \
    || fail "broker $vm refused shutdown"
done
i=0
while kill -0 "$FLEET_PID" 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "fleet process survived shutdown"
  sleep 0.1
done
wait "$FLEET_PID" 2>/dev/null || true
FLEET_PID=""
[ ! -e "$DIR/broker-0.sock" ] || fail "broker socket not unlinked"
grep -q "all brokers stopped" "$TMP/dataplane.log" \
  || fail "fleet did not report a clean stop: $(cat "$TMP/dataplane.log")"
echo "dataplane_smoke: OK"
