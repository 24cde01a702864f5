#!/usr/bin/env bash
# Offline CI gate: format, lint, docs, build, and tests. Every
# end-to-end check (report telemetry and partial results, the daemon's
# SIGKILL/SIGTERM life cycle, btb_bench's artifact) is a Tier-1 test.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release --workspace

# Both test passes run every crate's doctests as well.
echo "==> cargo test"
cargo test --workspace -q

# The fidelity proofs must not depend on how many tests run at once.
echo "==> cargo test, one test thread"
cargo test --workspace -q -- --test-threads=1

# perfbench is a package of its own, outside the workspace: without this
# stage a change to the public API it calls would break the benchmark
# unnoticed.
echo "==> perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> ci green"
