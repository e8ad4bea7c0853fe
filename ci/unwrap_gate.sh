#!/usr/bin/env bash
# Gate: no bare `.unwrap()` on the library query path.
#
# The engine's failure model (see ARCHITECTURE.md, "Failure model")
# routes every runtime failure into structured errors; a bare
# `.unwrap()` in library code is an unattributed panic waiting to
# happen. This gate counts `.unwrap()` occurrences in the non-test,
# non-doc-comment code of the library crates and fails when the count
# exceeds the cap below.
#
# Test modules (everything from the first `#[cfg(test)]` to EOF — the
# repo convention keeps tests at the bottom of each file), doc comments
# (`///`, `//!`) and plain comments are excluded. Invariant `.expect()`
# calls with a justification message remain the accepted idiom for
# statically-unreachable failures.
#
# If you add a genuinely-safe unwrap, either convert it to an
# `.expect("why this cannot fail")` or raise the cap in the same PR with
# a justification in the PR description.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(crates/core crates/mining crates/causal crates/table crates/serve crates/lpsolve crates/stats crates/discovery)
CAP=0

count=0
offenders=""
for crate in "${CRATES[@]}"; do
    while IFS= read -r f; do
        tests_start=$( (grep -n '#\[cfg(test)\]' "$f" || true) | head -1 | cut -d: -f1)
        tests_start=${tests_start:-$((10 ** 9))}
        hits=$(awk -v t="$tests_start" 'NR < t' "$f" \
            | grep -n '\.unwrap()' \
            | grep -vE '^\s*[0-9]+:\s*(///|//!|//)' || true)
        if [ -n "$hits" ]; then
            n=$(printf '%s\n' "$hits" | wc -l)
            count=$((count + n))
            offenders+=$(printf '%s\n' "$hits" | sed "s|^|$f:|")$'\n'
        fi
    done < <(find "$crate/src" -name '*.rs')
done

if [ "$count" -gt "$CAP" ]; then
    echo "unwrap gate: $count bare .unwrap() call(s) in library code (cap: $CAP)" >&2
    printf '%s' "$offenders" >&2
    exit 1
fi
echo "unwrap gate: OK ($count bare .unwrap() in library code, cap $CAP)"
