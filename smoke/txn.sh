#!/bin/sh
# Transaction smoke: the txn crash story in both directions, plus the
# OCC sweep gate.
#
# The generated op mix includes multi-key transactions (Gen emits ~4%
# Txn ops), so the crash sweep power-fails at every persistence event
# inside txn spans — between the span flush and the commit-record
# persist — and the transactional oracle demands all-or-nothing
# visibility of every member after recovery. The clean engine must
# sweep violation-free; the Skip_txn_commit_record mutation (commit
# record written but its 64-byte line never flushed, so acked txns can
# evaporate wholesale on power loss) must be caught.
#
# `bench txn` then runs the contention sweep: abort rate must be
# nondecreasing in Zipfian theta for every txn size, every txn cell must
# write exactly one SSD page per committed member (an aborted attempt
# does no device work), no txn may exhaust its default 8 retries, and a
# single-key blind-put txn must stay within 10% of plain oput throughput
# — it prints TXN-SWEEP OK only then.
#
# Extra arguments are forwarded to both sweeps, e.g.
#
#   smoke/txn.sh --stride 4                 # quicker crash pass
#
# Equivalent dune alias: `dune build @torture`.
set -eu
cd "$(dirname "$0")/.."
echo "== Txn crash sweep (expect clean) =="
dune exec bin/dstore_checker.exe -- sweep --ops 120 --subsets 1 "$@"
echo
echo "== Skip_txn_commit_record fault (expect caught) =="
dune exec bin/dstore_checker.exe -- sweep --ops 120 --subsets 1 \
  --fault skip-txn-commit --expect-violations "$@"
echo
echo "== OCC contention sweep (expect TXN-SWEEP OK) =="
out=$(dune exec bench/main.exe -- txn --objects 2000 --window-ms 200 \
  --clients 12)
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q "TXN-SWEEP OK"
