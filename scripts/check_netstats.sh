#!/usr/bin/env bash
# Link-health check for a socket cluster run: every row of every
# netstats_<id>.csv ledger under DIR must show its link connected exactly
# once and never re-established (connects 1, reconnects 0; schema in
# docs/reporting.md "Netstats"). A loopback cluster that had to redial
# still converges and passes `socket_cluster --verify`, so a connection
# bug (a HELLO sent out of order, a frame that drops the link) shows only
# here. CI's socket-loopback job runs it after each --verify run.
#
# Usage: scripts/check_netstats.sh DIR
set -euo pipefail

dir=${1:?usage: check_netstats.sh DIR}
shopt -s nullglob
ledgers=("$dir"/netstats_*.csv)
if [ ${#ledgers[@]} -eq 0 ]; then
  echo "FAIL: no netstats_*.csv under $dir" >&2
  exit 1
fi

# Columns are found by name, so a schema change fails loudly instead of
# comparing the wrong fields.
awk -F, '
  FNR == 1 {
    connects = reconnects = 0
    for (i = 1; i <= NF; i++) {
      if ($i == "connects") connects = i
      if ($i == "reconnects") reconnects = i
    }
    if (!connects || !reconnects) {
      print "FAIL: " FILENAME " has no connects/reconnects columns"
      bad = 1
      exit
    }
    next
  }
  {
    rows++
    if ($connects != 1 || $reconnects != 0) {
      print "FAIL: " FILENAME ": node " $1 " -> peer " $2 ": connects " \
            $connects ", reconnects " $reconnects
      bad = 1
    }
  }
  END {
    if (rows == 0 && !bad) {
      print "FAIL: the ledgers have no rows"
      bad = 1
    }
    if (!bad) print "netstats: " rows " links, each connected once"
    exit bad
  }' "${ledgers[@]}" >&2
