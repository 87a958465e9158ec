#!/bin/sh
# Pins the flag surface of every `mcss` subcommand: for each one, the
# sorted option names from `mcss <cmd> --help=plain`, taken from the
# OPTIONS section up to COMMON OPTIONS, one "<cmd> <option>" line each.
# Stdout is diffed against flags.expected, so a change that adds, drops
# or renames a flag has to update that golden on purpose. The last line
# counts the settable flags.
#
# Usage: flags.sh /path/to/mcss
set -eu

MCSS=${1:?usage: flags.sh path/to/mcss}
COMMANDS="generate solve lower-bound analyze simulate update budget convert
export-lp verify chaos elastic profile serve route journal nemesis query
dataplane pump version"

total=0
for cmd in $COMMANDS; do
  opts=$("$MCSS" "$cmd" --help=plain |
    awk '/^OPTIONS$/ { on = 1; next }
         /^COMMON OPTIONS$/ { exit }
         on && /^       -/ {
           sub(/^ +/, "")
           n = split($0, parts, ", ")
           for (i = 1; i <= n; i++) {
             name = parts[i]
             sub(/[= \[].*/, "", name)
             print name
           }
         }' | LC_ALL=C sort)
  for o in $opts; do
    echo "$cmd $o"
    total=$((total + 1))
  done
done
echo "settable flags: $total"
