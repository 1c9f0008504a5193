#!/usr/bin/env bash
# Builds the benchmark from the surrounding source tree and runs it:
#
#   bash perfbench/run.sh --workload analytic --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays in the tree: the Go build cache and temporary
# files, the binary and the reports go under $CARGO_TARGET_DIR (default
# .bench_build).
# Without the repository's go.mod beside perfbench/ the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_COMMIT
fi
exec "$out/bin/perfbench" --out "$out/perfbench" "$@"
