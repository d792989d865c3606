#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root. The go command's build cache, temporary files
# and telemetry counters (under the user config directory) go to
# .bench_build/ at the root, as do the run's scratch files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/bench" && go build -o "$out/ituabench" .) >&2
cd "$root"
exec "$out/ituabench" "$@"
