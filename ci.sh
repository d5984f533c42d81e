#!/usr/bin/env bash
# Local CI gate — the same steps .github/workflows/ci.yml runs.
#
#   ./ci.sh          # format check, lints, tier-1 build + tests, rustdoc
#   ./ci.sh fmt      # just the format check
#   ./ci.sh clippy   # just the lints
#   ./ci.sh test     # just tier-1 (release build + full test suite)
#   ./ci.sh doc      # rustdoc build (warnings are errors), doctests, and
#                    # a relative-link check over the top-level markdown
#   ./ci.sh check    # model checker: sting-check self-tests + the deque/
#                    # owner-hand-off/trace-ring/wait/shard-inbox/park/
#                    # thread-state interleaving models over the production
#                    # source
#   ./ci.sh analyze  # static analyzer tier (<60s): the expect-flag corpus,
#                    # the expect-clean sweep, the static/dynamic lock-order
#                    # cross-check, and `repl --analyze` over the examples
#                    # and the benchmark's programs
#   ./ci.sh bench-smoke  # unified benchmark runner, smoke tier (<60s):
#                    # emits a schema-checked report and fails on any
#                    # count or shape gate
#   ./ci.sh shard    # sharded-fleet tier (<90s): fleet + sharded tuple
#                    # integration tests (with the worker-mapping and
#                    # registration-leak reproductions), the 10 s farm
#                    # world that must hold memory flat, then a 2-shard
#                    # farm smoke run whose merged trace must audit clean
#   ./ci.sh miri     # deque/trace-ring/thread-body unit tests under Miri (skips with a
#                    # notice if no nightly Miri toolchain is installed)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

run_fmt() {
    step "cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    step "cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_test() {
    step "tier-1: cargo build --release"
    cargo build --release
    step "tier-1: cargo test"
    cargo test -q
}

run_doc() {
    step "cargo doc (RUSTDOCFLAGS=-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    step "cargo test --doc (worked examples in the rustdoc)"
    cargo test -q --doc --workspace
    step "markdown link check (README.md, ARCHITECTURE.md, DESIGN.md, EXPERIMENTS.md)"
    # Every relative link target in the tour documents must exist: these
    # files name modules and documents by path, and a rename that orphans
    # a link should fail CI, not a reader.  http(s) links are not fetched.
    local bad=0 doc target
    for doc in README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md; do
        while IFS= read -r target; do
            target="${target%%#*}"          # strip fragment
            [[ -z "$target" || "$target" == http* ]] && continue
            if [[ ! -e "$target" ]]; then
                echo "$doc: broken relative link -> $target" >&2
                bad=1
            fi
        done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
    done
    [[ "$bad" -eq 0 ]] || { echo "link check FAILED" >&2; exit 1; }
    echo "link check OK"
}

run_check() {
    step "model checker: sting-check self-tests (litmus suite)"
    cargo test -q -p sting-check
    step "model checker: production deque/trace-ring models (--cfg sting_check)"
    # A separate target dir so the cfg-switched build never clobbers the
    # normal incremental cache.  The trace model drives `trace::Ring`, the
    # ring every stats lane records into (crates/core/src/stats.rs).
    RUSTFLAGS="--cfg sting_check" CARGO_TARGET_DIR=target/check \
        cargo test -q -p sting-core --test model
    step "model checker: production blocking-protocol models (--cfg sting_check)"
    RUSTFLAGS="--cfg sting_check" CARGO_TARGET_DIR=target/check \
        cargo test -q -p sting-core --test model_wait
    step "model checker: shard inbox models (--cfg sting_check)"
    RUSTFLAGS="--cfg sting_check" CARGO_TARGET_DIR=target/check \
        cargo test -q -p sting-core --test model_fleet
    step "model checker: worker park/wake handshake models (--cfg sting_check)"
    RUSTFLAGS="--cfg sting_check" CARGO_TARGET_DIR=target/check \
        cargo test -q -p sting-core --test model_park
    step "model checker: thread state word models (--cfg sting_check)"
    RUSTFLAGS="--cfg sting_check" CARGO_TARGET_DIR=target/check \
        cargo test -q -p sting-core --test model_thread_state
}

run_analyze() {
    step "analyze: corpus (expect-flag) + clean sweep (expect-clean)"
    cargo test -q -p sting-analyze
    step "analyze: static/dynamic lock-order cross-check"
    cargo test -q -p sting --test analyze_crosscheck
    step "analyze: repl --analyze over the shipped examples and the benchmark's programs (expect exit 0)"
    cargo build -q -p sting --bin repl
    ./target/debug/repl --analyze examples/scheme/*.scm benchmark/programs/*.scm
    step "analyze: repl --analyze over the corpus (expect exit 1)"
    if ./target/debug/repl --analyze crates/analyze/tests/corpus/*.scm; then
        echo "corpus unexpectedly came back clean" >&2
        exit 1
    fi
}

run_bench_smoke() {
    step "bench-smoke: cargo build --release -p sting-bench --bin bench_all"
    cargo build --release -p sting-bench --bin bench_all
    step "bench-smoke: bench_all --smoke (count and shape gates)"
    # Every check not named info: fails the run; bench_all prints them all
    # in its checks: block.  Timed rows are reported, not gated.
    ./target/release/bench_all --smoke --out target/BENCH_SMOKE.json
}

run_shard() {
    step "shard: fleet + sharded tuple-space integration tests"
    # Including the two reproductions: a worker stuck in one VP's slice
    # strands no other VP (fleet::single_vp_shards_run_on_separate_workers,
    # machine::tests),
    # and a reader registers in one place, so registrations do not pile up
    # (index::handoffs_on_one_key_hold_registrations_flat).
    cargo test -q -p sting-core --lib machine::
    cargo test -q -p sting-core --test fleet
    cargo test -q -p sting-tuple --test sharded --test index
    step "shard: 10 s tuple_farm-shaped world holds registrations and memory flat"
    cargo test -q --release -p sting-tuple --test sharded -- --ignored farm_shaped
    step "shard: 2-shard farm smoke + merged trace audit (shard_smoke)"
    cargo build --release -p sting-bench --bin shard_smoke
    ./target/release/shard_smoke
}

run_miri() {
    step "miri: deque/trace-ring/thread-body unit tests"
    if rustup run nightly cargo miri --version >/dev/null 2>&1; then
        # Unit tests only: the interesting unsafe code (deque slots, trace
        # rings, a thread body kept in place) lives in the lib, and Miri
        # cannot run the fiber layer's inline-asm stack switching anyway.
        # `trace::` tests drive `trace::Ring` alone and `thread::tests::body_`
        # a `thread::Body` alone; `stats::` tests build VMs (fibers), so
        # they stay out.
        # More than one filter goes after `--`: cargo takes one before it.
        rustup run nightly cargo miri test -p sting-core --lib -- deque:: trace:: \
            thread::tests::body_
    else
        step "miri: SKIPPED (no nightly Miri toolchain installed)"
        echo "install with: rustup toolchain install nightly --component miri"
    fi
}

case "${1:-all}" in
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    test) run_test ;;
    doc) run_doc ;;
    check) run_check ;;
    analyze) run_analyze ;;
    bench-smoke) run_bench_smoke ;;
    shard) run_shard ;;
    miri) run_miri ;;
    all)
        run_fmt
        run_clippy
        run_test
        run_doc
        run_check
        run_analyze
        run_bench_smoke
        run_shard
        ;;
    *)
        echo "usage: $0 [fmt|clippy|test|doc|check|analyze|bench-smoke|shard|miri|all]" >&2
        exit 2
        ;;
esac

printf '\nCI OK\n'
