#!/usr/bin/env bash
# Golden pin guard: ROADMAP allows the byte-identity reference
# (internal/experiments/testdata/fingerprints.golden) to change in
# exactly one kind of PR — a deliberate re-pin of the float summation
# order that changes nothing else. This fails when the file differs
# from the merge base with BASE_REF unless it is the PR's only non-doc
# change (docs are *.md), so a re-pin can never ride along with the code
# that needed it, and an accidental -update-golden cannot slip through.
# Usage: scripts/golden_pin_guard.sh BASE_REF   (from the repository root)
set -euo pipefail

GOLDEN="internal/experiments/testdata/fingerprints.golden"
BASE="$(git merge-base "${1:?usage: golden_pin_guard.sh BASE_REF}" HEAD)"

if git diff --quiet "$BASE" HEAD -- "$GOLDEN"; then
  echo "golden pin guard OK ($GOLDEN unchanged since ${BASE:0:12})"
  exit 0
fi
OTHERS="$(git diff --name-only "$BASE" HEAD | grep -vxF "$GOLDEN" | grep -v '\.md$' || true)"
if [ -n "$OTHERS" ]; then
  echo "$GOLDEN changed since ${BASE:0:12} together with:" >&2
  sed 's/^/  /' <<<"$OTHERS" >&2
  echo "A re-pin lands alone (docs aside): move the code to its own PR," >&2
  echo "or revert the golden file if the change was not a deliberate re-pin." >&2
  exit 1
fi
echo "golden pin guard OK (re-pin PR: $GOLDEN is the only non-doc change)"
