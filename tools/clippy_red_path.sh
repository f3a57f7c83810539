#!/usr/bin/env bash
# Red path of the two rules clippy enforces (hot path, panic-freedom).
#
#   bash tools/clippy_red_path.sh
#
# Copies the working tree into a temporary directory, then injects one
# compiling violation at a time and requires `cargo clippy` to reject it
# with the lint that owns the rule. Exits non-zero when the copy is not
# clean before injection, when an injection site is gone, or when clippy
# lets an injection through: a rule that lost its teeth (a dropped
# `#[deny]`, a `clippy.toml` path that no longer resolves) fails even
# though the tree itself is clean. The build goes to target/red-path.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT
tar -C "$root" --exclude=./.git --exclude=./target --exclude=./benchmark --exclude=./.bench_build \
    -cf - . |
    tar -C "$copy" -xf -
export CARGO_TARGET_DIR="$root/target/red-path"
packages=(-p greta-core -p greta-server -p greta-durability)

clippy() {
    (cd "$copy" && cargo clippy -q --lib --bins "$@" 2>&1)
}

if ! out=$(clippy "${packages[@]}" -- -D warnings); then
    echo "$out"
    echo "red path: the copy is not clippy-clean before injection" >&2
    exit 2
fi

failed=0
# case <label> <file> <fn anchor> <statement> <package> <lint>
case_() {
    local label=$1 file=$copy/$2 anchor=$3 stmt=$4 package=$5 lint=$6
    cp "$file" "$file.orig"
    # Insert the statement as the first line of the anchored fn's body.
    ANCHOR=$anchor STMT=$stmt perl -0pi -e \
        's/(\Q$ENV{ANCHOR}\E[^{]*\{\n)/$1        $ENV{STMT}\n/' "$file"
    if cmp -s "$file" "$file.orig"; then
        echo "red path: no injection site for $label ($2: $anchor)" >&2
        failed=1
    elif out=$(clippy -p "$package"); then
        echo "red path: FAILED — clippy accepted $label" >&2
        failed=1
    elif ! grep -q "clippy::$lint" <<<"$out"; then
        echo "$out"
        echo "red path: FAILED — $label was rejected, but not by clippy::$lint" >&2
        failed=1
    else
        echo "red path: $label -> clippy::$lint: OK"
    fi
    mv "$file.orig" "$file"
}

case_ "clone() in Route::route_to_group" crates/core/src/executor/route.rs \
    "fn route_to_group<" "let _injected = e.clone();" greta-core disallowed_methods
case_ "clone() in AltRuntime::process_graph" crates/core/src/graph.rs \
    "fn process_graph(" "let _injected = e.clone();" greta-core disallowed_methods
case_ "clone() in Slab::probe" crates/core/src/engine.rs \
    "fn probe(" "let _injected = e.clone();" greta-core disallowed_methods
case_ "Arc::clone(&e) in Route::route_to_group" crates/core/src/executor/route.rs \
    "fn route_to_group<" "let _injected = std::sync::Arc::clone(&e);" greta-core disallowed_methods
case_ "unwrap() in SessionLoop::ingest" crates/server/src/session.rs \
    "fn ingest(" "let _injected = events.first().unwrap();" greta-server unwrap_used
case_ "assert!() in greta-durability non-test code" crates/durability/src/crc.rs \
    "pub fn crc32(" "assert!(data.len() < usize::MAX);" greta-durability disallowed_macros

if [ "$failed" -ne 0 ]; then
    echo "red path: a clippy-enforced rule has lost its teeth" >&2
    exit 1
fi
echo "red path: all six injected violations rejected"
