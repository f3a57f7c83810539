#!/usr/bin/env bash
# Every known defect still fails.
#
#   bash tools/known_defects.sh
#
# tests/known_defects.rs asserts the right answer to each defect ROADMAP
# still lists, and each test is #[ignore]d until its defect is fixed. This
# lists the ignored tests, runs each one alone, and exits non-zero when
# any of them passes (or when none is listed): the change that fixes a
# defect must delete its #[ignore], so that the tier-1 suite runs it from
# then on.
set -euo pipefail

cd "$(dirname "$0")/.."
run=(cargo test --release -q --test known_defects --)
cargo test --release -q --test known_defects --no-run
mapfile -t tests < <("${run[@]}" --ignored --list | sed -n 's/: test$//p')
if [ "${#tests[@]}" -eq 0 ]; then
    echo "known defects: no ignored test listed" >&2
    exit 1
fi
passed=0
for t in "${tests[@]}"; do
    if "${run[@]}" --ignored --exact "$t" >/dev/null 2>&1; then
        echo "PASSES, so its defect is fixed: delete its #[ignore]: $t"
        passed=$((passed + 1))
    else
        echo "fails, as it should: $t"
    fi
done
[ "$passed" -eq 0 ]
