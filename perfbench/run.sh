#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload heartbeat --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build products, the Go build cache and the
# per-run host records all stay under .bench_build/ (or $CARGO_TARGET_DIR
# when set to a relative path), so nothing is written outside the checkout.
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "run.sh: run from the repository root (need go.mod and perfbench/go.mod)" >&2
  exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*|*..*) out=.bench_build ;;
esac
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local
export GOFLAGS=
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
