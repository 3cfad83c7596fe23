#!/usr/bin/env bash
# Net lines of Go per package between two commits, counted one way: the
# non-test .go files (no *_test.go) of each package directory at BASE
# and at HEAD, both raw and as code lines — blank lines and lines whose
# first non-blank characters are // excluded (a /* */ block counts as
# code). CHANGES.md reports a change's net LoC from this script.
# Usage: scripts/netloc.sh BASE   (from the repository root; BASE is any
# revision, HEAD the checked-out commit)
set -euo pipefail
export LC_ALL=C # one collation for sort and join

BASE="$(git rev-parse --verify "${1:?usage: netloc.sh BASE}^{commit}")"
HEAD="$(git rev-parse HEAD)"

# count REV prints "dir raw code" for every package directory at REV.
count() {
  git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' |
    while read -r f; do
      git show "$1:$f" | awk -v dir="$(dirname "$f")" '
        { raw++ }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { code++ }
        END { print dir, raw + 0, code + 0 }'
    done |
    awk '{ raw[$1] += $2; code[$1] += $3 } END { for (d in raw) print d, raw[d], code[d] }'
}

join -a1 -a2 -e0 -o 0,1.2,1.3,2.2,2.3 <(count "$BASE" | sort) <(count "$HEAD" | sort) |
  awk -v base="${BASE:0:12}" -v head="${HEAD:0:12}" '
    BEGIN {
      printf "%-28s %17s %17s %6s   %18s %18s %6s\n", "package", "raw@" base, "raw@" head, "net", "code@" base, "code@" head, "net"
    }
    {
      printf "%-28s %17d %17d %+6d   %18d %18d %+6d\n", $1, $2, $4, $4 - $2, $3, $5, $5 - $3
      rb += $2; rh += $4; cb += $3; ch += $5
    }
    END {
      printf "%-28s %17d %17d %+6d   %18d %18d %+6d\n", "total", rb, rh, rh - rb, cb, ch, ch - cb
    }'
