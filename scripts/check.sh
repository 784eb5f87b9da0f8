#!/usr/bin/env bash
# Tier-2 gate: everything a PR must pass, in one command.
#
#   scripts/check.sh            # tier-1 pytest + perf gates + golden + hashseed + domain lint + mypy + ruff
#   scripts/check.sh --fast     # skip the (slow) pytest, perf-gate, golden and hashseed runs
#
# The first two stages are self-contained (stdlib + the repo itself).
# mypy and ruff are optional extras (`pip install .[lint]`); when a tool
# is not installed the stage is SKIPPED with a notice instead of
# failing, so the gate degrades gracefully on minimal containers.
set -u

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

PYTHON="${PYTHON:-python3}"
command -v "$PYTHON" >/dev/null 2>&1 || PYTHON=python

failures=0
declare -a results=()

note() { printf '\n== %s ==\n' "$1"; }

record() {  # record <name> <status>
    results+=("$(printf '%-12s %s' "$1" "$2")")
    [ "$2" = FAIL ] && failures=$((failures + 1))
}

run_stage() {  # run_stage <name> <cmd...>
    note "$1"
    if "${@:2}"; then
        record "$1" PASS
    else
        record "$1" FAIL
    fi
}

skip_stage() {  # skip_stage <name> <reason>
    note "$1"
    echo "SKIPPED: $2"
    record "$1" "SKIP ($2)"
}

# Overhead gates: observability and faults "free when off", lint wall
# time, and the parallel sweep runner's pool overhead.
PERF_GATES=(
    benchmarks/test_obs_overhead.py
    benchmarks/test_faults_overhead.py
    benchmarks/test_lint_overhead.py
    benchmarks/test_parallel_sweep.py
)

# Golden cells of the two sweep workloads tier-1 does not pin (it pins
# fig4b-light), and serve-mixed's phase-A digest (its `/v1/simulate`
# answers run the engine): one short `python -m bench measure` each, whose
# last line must report the outputs equal to bench/golden.json.
GOLDEN_WORKLOADS=(fig4a-closed fig4b-saturated serve-mixed)

golden() {
    local workload last
    for workload in "${GOLDEN_WORKLOADS[@]}"; do
        last="$("$PYTHON" -m bench measure --workload "$workload" \
            --seed 0 --seconds 1 --trace 0 | tail -n 1)"
        echo "$workload: $last"
        case "$last" in
            *'"correct": true'*) ;;
            *) return 1 ;;
        esac
    done
}

# The interval digests and accounting pins under three string hash seeds:
# no simulated output may follow the order of a set of thread ids.
hashseed() {
    local seed
    for seed in 1 2 3; do
        echo "PYTHONHASHSEED=$seed"
        PYTHONHASHSEED="$seed" "$PYTHON" -m pytest -q \
            tests/sim/test_engine_digest.py || return 1
    done
}

if [ "${1:-}" = "--fast" ]; then
    skip_stage pytest "--fast requested"
    skip_stage perf-gates "--fast requested"
    skip_stage golden "--fast requested"
    skip_stage hashseed "--fast requested"
else
    run_stage pytest "$PYTHON" -m pytest -q
    run_stage perf-gates "$PYTHON" -m pytest -q "${PERF_GATES[@]}"
    run_stage golden golden
    run_stage hashseed hashseed
fi

run_stage lint "$PYTHON" -m repro.lint check src/repro \
    --baseline lint-baseline.json

if "$PYTHON" -c 'import mypy' >/dev/null 2>&1; then
    run_stage mypy "$PYTHON" -m mypy
else
    skip_stage mypy "mypy not installed; pip install .[lint]"
fi

if command -v ruff >/dev/null 2>&1; then
    run_stage ruff ruff check src/repro
elif "$PYTHON" -c 'import ruff' >/dev/null 2>&1; then
    run_stage ruff "$PYTHON" -m ruff check src/repro
else
    skip_stage ruff "ruff not installed; pip install .[lint]"
fi

note summary
printf '%s\n' "${results[@]}"
if [ "$failures" -gt 0 ]; then
    echo "FAILED: $failures stage(s)"
    exit 1
fi
echo "OK"
