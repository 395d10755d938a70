#!/usr/bin/env bash
# Build and run the repository's static-analysis suite (cmd/chc-lint) over
# every package. Exits nonzero on any finding, so CI can gate on it the
# same way it gates on go vet.
#
# Usage: scripts/lint.sh [chc-lint flags] [packages...]
# Arguments pass straight through to chc-lint (which defaults to ./...),
# so `scripts/lint.sh -json` works for tooling.
#
# The binary is built into a fresh temporary directory, removed on exit,
# so runs side by side (say, of two checkouts) never share one.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/chc-lint" ./cmd/chc-lint
"$bin/chc-lint" "$@"
echo "chc-lint: clean"
