#!/usr/bin/env bash
# Build (release) and run the benchmark. With no arguments: every workload,
# each in its own child process (`run`). The driver form is
#   run.sh --workload W --seed N --seconds S --trace 0|1
# See README.md for `run`, `compare` and the flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
