#!/usr/bin/env bash
# Golden pin guard: two golden files pin what the repository must keep
# reproducing byte for byte —
#   internal/experiments/testdata/fingerprints.golden  every facet and
#     row-set digest (re-pinned only for a deliberate change of the
#     float summation order);
#   internal/persist/testdata/segments.golden  the bytes of the segment
#     file format.
# Both follow one rule: a change to a golden lands alone. This fails when
# a golden file that exists at the merge base with BASE_REF differs from
# it while the PR changes anything else besides docs (*.md), so a re-pin
# can never ride along with the code that needed it, and an accidental
# regeneration cannot slip through. A golden file absent at the merge
# base is a first pin and may land with the tests that read it.
# Usage: scripts/golden_pin_guard.sh BASE_REF   (from the repository root)
set -euo pipefail

GOLDENS=(
  internal/experiments/testdata/fingerprints.golden
  internal/persist/testdata/segments.golden
)
BASE="$(git merge-base "${1:?usage: golden_pin_guard.sh BASE_REF}" HEAD)"

FAIL=0
for GOLDEN in "${GOLDENS[@]}"; do
  if ! git cat-file -e "$BASE:$GOLDEN" 2>/dev/null; then
    echo "golden pin guard OK ($GOLDEN is a first pin, absent at ${BASE:0:12})"
    continue
  fi
  if git diff --quiet "$BASE" HEAD -- "$GOLDEN"; then
    echo "golden pin guard OK ($GOLDEN unchanged since ${BASE:0:12})"
    continue
  fi
  OTHERS="$(git diff --name-only "$BASE" HEAD | grep -vxF "$GOLDEN" | grep -v '\.md$' || true)"
  if [ -n "$OTHERS" ]; then
    echo "$GOLDEN changed since ${BASE:0:12} together with:" >&2
    sed 's/^/  /' <<<"$OTHERS" >&2
    echo "A re-pin lands alone (docs aside): move the code to its own PR," >&2
    echo "or revert the golden file if the change was not a deliberate re-pin." >&2
    FAIL=1
    continue
  fi
  echo "golden pin guard OK (re-pin PR: $GOLDEN is the only non-doc change)"
done
exit "$FAIL"
