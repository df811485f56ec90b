#!/bin/sh
# Replication phase-2 smoke: the pipelined-shipping and laggard
# catch-up acceptance gates.
#
#  1. Kill/re-sync/rejoin crash sweep (expect clean): the backup is
#     power-failed mid-workload, re-synced from a checkpoint-consistent
#     snapshot while the foreground keeps committing (the transfer
#     window), and rejoined; the whole pair is then crashed at every
#     persistence event. Failover is checked wherever the rejoined
#     backup was promotable (backup_ready at the crash instant), so
#     crash points land mid-snapshot-install and mid-catch-up.
#  2. Skip_resync_journal_replay fault (expect caught): the snapshot
#     installs but the transfer-window journal suffix is dropped — the
#     hole is invisible to ack watermarks (they jump past it), so only
#     the byte-identity oracle can see it. Proof the sweep would notice
#     a broken catch-up protocol.
#  3. `bench repl` pipeline gate: at link 50us the pipelined-apply
#     protocol must deliver >= 2x the acked throughput of the serial
#     per-entry baseline, with peak replication lag bounded by the
#     configured pipeline depth (clients + apply chunk + apply queue).
#     Prints REPL-PIPELINE OK only then.
#
# Extra arguments are forwarded to both checker sweeps, e.g.
#
#   smoke/repl2.sh --stride 4               # faster, sparser sweep
#
# Equivalent dune alias: `dune build @torture`.
set -eu
cd "$(dirname "$0")/.."
echo "== Kill/re-sync/rejoin crash sweep (expect clean) =="
dune exec bin/dstore_checker.exe -- pair --ops 24 --subsets 1 --stride 2 \
  --resync "$@"
echo
echo "== Skip_resync_journal_replay fault (expect caught) =="
dune exec bin/dstore_checker.exe -- pair --ops 24 --subsets 1 --stride 2 \
  --resync --fault skip-resync-replay --expect-violations "$@"
echo
echo "== Replication pipeline ablation (expect REPL-PIPELINE OK) =="
out=$(dune exec bench/main.exe -- repl --objects 3000 --window-ms 400 \
  --clients 12)
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q "REPL-PIPELINE OK"
