#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, for example, from the root of the checkout:
#
#   bash perfbench/run.sh --workload pass-two --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced mode's spans go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f $root/go.mod || ! -d $root/internal ]]; then
	echo "perfbench: $root holds no simulator sources (go.mod, internal/)" >&2
	exit 2
fi
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .

cd "$root"
exec "$out/perfbench" --goldens "$root/testdata/golden" --spans-dir "$out/spans" "$@"
