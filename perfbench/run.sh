#!/usr/bin/env bash
# Builds the NERVE benchmark from the checkout's sources and runs it with
# the given arguments. Every file the Go toolchain writes (build cache,
# module cache, binary, temporary files) stays under $CARGO_TARGET_DIR, by
# default .bench_build in the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: the benchmark needs the repository sources" >&2
	exit 2
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
