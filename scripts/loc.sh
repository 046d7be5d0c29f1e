#!/bin/sh
# Prints the repository's non-test Go line count outside bench/ — the
# figure CHANGES.md quotes for simplicity PRs (24547 before PR 15), so a
# "net-negative" claim is checked by a command, not pasted by hand.
#
# Usage: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l
