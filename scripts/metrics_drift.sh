#!/usr/bin/env bash
# Metrics/docs drift gate: the kdap_* family set exposed by a live
# kdapd must match the families documented in docs/OPERATIONS.md in
# BOTH directions, and every exposed kdap_stage_seconds stage must be
# in the guide's closed stage list. An exposed-but-undocumented family means the
# operator's guide quietly rotted; a documented-but-unexposed family
# means the docs promise telemetry the server no longer serves (or a
# subsystem stopped registering at startup). The daemon runs with every
# optional subsystem enabled — admission control, the answer cache and
# a warehouse directory, whose fact table is served disk-backed — so
# conditionally-registered families (kdap_answer_cache_*,
# kdap_segments_*) are all on.
# Run from the repository root.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
DOC="docs/OPERATIONS.md"
TMP="$(mktemp -d)"

go build -o "$TMP/kdapd" ./cmd/kdapd
go build -o "$TMP/kdapgen" ./cmd/kdapgen
"$TMP/kdapgen" -db ebiz -out "$TMP/ebiz" >/dev/null
"$TMP/kdapd" -addr "$ADDR" -db "$TMP/ebiz" -log json \
  -max-inflight 8 -slo-target 250ms -segment-cache-mb 16 \
  2>"$TMP/kdapd.log" &
KDAPD_PID=$!
cleanup() {
  status=$?
  if [ "$status" -ne 0 ] && [ -s "$TMP/kdapd.log" ]; then
    echo "== kdapd log (drift gate failed with status $status)" >&2
    cat "$TMP/kdapd.log" >&2
  fi
  kill "$KDAPD_PID" 2>/dev/null || true
  wait "$KDAPD_PID" 2>/dev/null || true
  rm -rf "$TMP"
  exit "$status"
}
trap cleanup EXIT

for _ in $(seq 1 50); do
  if ! kill -0 "$KDAPD_PID" 2>/dev/null; then
    echo "kdapd exited during startup" >&2
    exit 1
  fi
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADDR/healthz" >/dev/null || {
  echo "kdapd never became healthy on $ADDR" >&2
  exit 1
}

# A little real traffic, so any family that only materializes on first
# use (rather than at wiring time) is present before the scrape.
SESSION="$(curl -sf "http://$ADDR/api/query" -d '{"db":"ebiz","q":"Columbus LCD"}' |
  grep -o '"session":"[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$SESSION" ]
curl -sf "http://$ADDR/api/explore" -d "{\"session\":\"$SESSION\",\"pick\":1}" >/dev/null
curl -sf "http://$ADDR/api/suggest" -d '{"db":"ebiz","prefix":"col"}' >/dev/null || true
# One accepted ingest batch (a TRANSITEM row in fact-schema order) and
# one rejected batch: the kdap_ingest_* acceptance counters register at
# wiring time, but kdap_ingest_rejected_total only materializes on the
# first rejection, so both directions of that family need traffic too.
curl -sf "http://$ADDR/api/ingest" \
  -d '{"db":"ebiz","rows":[[4001, 1, 1, 1, 9.99]]}' >/dev/null
REJECT_STATUS="$(curl -s -o /dev/null -w '%{http_code}' \
  "http://$ADDR/api/ingest" -d '{"db":"ebiz","rows":[]}')"
[ "$REJECT_STATUS" = 400 ] || {
  echo "empty ingest batch returned $REJECT_STATUS, want 400" >&2
  exit 1
}

# Exposed families: metric names at line start, histogram series
# collapsed onto their family name.
curl -sf "http://$ADDR/metrics" |
  grep -o '^kdap_[a-z_]*' |
  sed -E 's/_(bucket|sum|count)$//' |
  sort -u >"$TMP/exposed"

# Documented families: every kdap_* token in the operator's guide
# (tables, prose, and PromQL alike — a mention is a promise).
grep -oE 'kdap_[a-z_]+' "$DOC" |
  sed -E 's/_(bucket|sum|count)$//' |
  sort -u >"$TMP/documented"

FAIL=0
if ! comm -23 "$TMP/exposed" "$TMP/documented" >"$TMP/undocumented" || [ -s "$TMP/undocumented" ]; then
  echo "== exposed at /metrics but missing from $DOC:" >&2
  sed 's/^/  /' "$TMP/undocumented" >&2
  FAIL=1
fi
if ! comm -13 "$TMP/exposed" "$TMP/documented" >"$TMP/unexposed" || [ -s "$TMP/unexposed" ]; then
  echo "== documented in $DOC but not exposed by a fully-enabled kdapd:" >&2
  sed 's/^/  /' "$TMP/unexposed" >&2
  FAIL=1
fi

# The kdap_stage_seconds label set is closed: every exposed stage must
# be in the list the guide's kdap_stage_seconds row gives after "one of:".
curl -sf "http://$ADDR/metrics" |
  grep -o '^kdap_stage_seconds_count{stage="[^"]*"' |
  cut -d'"' -f2 | sort -u >"$TMP/stages"
grep '^| `kdap_stage_seconds` |' "$DOC" |
  sed -E 's/.*one of: //; s/`\. .*/`/' |
  grep -oE '`[a-z_]+`' | tr -d '`' | sort -u >"$TMP/stages_documented"
if [ ! -s "$TMP/stages" ] || [ ! -s "$TMP/stages_documented" ]; then
  echo "== no kdap_stage_seconds stages exposed, or none documented in $DOC" >&2
  FAIL=1
elif ! comm -23 "$TMP/stages" "$TMP/stages_documented" >"$TMP/stages_undocumented" || [ -s "$TMP/stages_undocumented" ]; then
  echo "== kdap_stage_seconds stages exposed but missing from the closed list in $DOC:" >&2
  sed 's/^/  /' "$TMP/stages_undocumented" >&2
  FAIL=1
fi
[ "$FAIL" = 0 ]

echo "metrics drift OK ($(wc -l <"$TMP/exposed") families, both directions; $(wc -l <"$TMP/stages") stages, all documented)"
