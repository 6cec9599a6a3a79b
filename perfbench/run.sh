#!/usr/bin/env bash
# Builds the end-to-end dexa benchmark from source and runs it with the
# given arguments (see perfbench/README.md). Everything the build and the
# run write stays under .bench_build/ at the repository root: the Go build
# cache, the binary, temp files and the benchmark's durable stores.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/gocache"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
