#!/usr/bin/env bash
# Build sdvbench if it is missing or older than its sources, then run it.
#
# `cargo run` cannot be the benchmark's command: outside a git checkout
# crates/engine/build.rs names a `.git/HEAD` that does not exist, cargo then
# reruns that build script every time, and every run pays a full fat-LTO
# rebuild (33 s against a 20 s measurement). Run from the repository root, so
# that .cargo/config.toml (target-cpu=native) applies to the build.
set -u
here="$(dirname "$0")"
bin="${CARGO_TARGET_DIR:-$here/target}/release/sdvbench"
sources=("$here/Cargo.toml" "$here/src" "$here/../crates" "$here/../.cargo" "$here/../BENCHMARK.json" "$here/../results/golden")
if [ ! -x "$bin" ] || [ -n "$(find "${sources[@]}" -newer "$bin" -print -quit 2>/dev/null)" ]; then
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2 || exit 1
fi
exec "$bin" "$@"
