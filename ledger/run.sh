#!/bin/sh
# Build and run the ledger from the root of a source checkout:
#   sh ledger/run.sh --workload write_hot --seed 7 --seconds 15 --trace 0
# Every argument goes to ledger.exe (see ledger.ml for the options).
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "ledger: no dune-project here; run from a full source checkout" >&2
  exit 1
fi
exec dune exec --root . --display quiet ./ledger/ledger.exe -- "$@"
