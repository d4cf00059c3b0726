#!/bin/sh
# Usage: expect_reject.sh <expected line> <command> [args...]
#
# Passes iff <command> exits 2, prints <expected line> exactly, and never
# reaches netlist generation (vcomp_stitch prints a "netlist:" line once
# the circuit is built), i.e. the bad flag was rejected up front.
want=$1
shift
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 2 ]; then
  echo "FAIL: exit status $rc, want 2"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qxF -- "$want"; then
  echo "FAIL: missing line: $want"
  exit 1
fi
if printf '%s\n' "$out" | grep -q '^netlist:'; then
  echo "FAIL: rejected only after the netlist was built"
  exit 1
fi
