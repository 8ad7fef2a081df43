#!/bin/sh
# Tier-1 gate. Every invariant is a cargo test (DESIGN §13), run by
# `cargo test --workspace` below; besides it this script runs only what a
# test cannot: formatting and lints, doc links, the pythia_benchmark lock
# check, the benchmark's checks and tests, the analyzer's exit codes on
# its seeded fixture, and the chaos suite under injected faults.
# Run from the repository root. Fails fast on the first broken step.
set -eu

cargo fmt --all --check
# One instrumented call surface: the MPI calls are `Communicator`'s provided
# methods, which `PythiaComm` reaches through its one `intercept` hook. An
# MPI-named `pub fn` in runtime-mpi would start a second, hand-kept mirror.
MPI_CALLS='send|recv|isend|irecv|wait|waitall|barrier|bcast|reduce|allreduce|alltoall|gather|allgather|scatter|sendrecv|scan|reduce_scatter|dup|split'
if grep -rnE "pub fn ($MPI_CALLS)\b" crates/runtime-mpi/src; then
    echo "ci: an MPI-named pub fn in crates/runtime-mpi/src mirrors Communicator"; exit 1
fi
# `unsafe` stays in the two files DESIGN §8 names. The crate-level
# `#![forbid(unsafe_code)]` does not reach crates/bench/src/bin/*, whose
# binaries are crate roots of their own, so grep the sources instead.
if grep -rnwE 'unsafe' crates/*/src src |
    grep -v -e '^crates/runtime-mpi/src/session.rs:' -e '^crates/minomp/src/pool.rs:'; then
    echo "ci: unsafe outside crates/runtime-mpi/src/session.rs and crates/minomp/src/pool.rs"; exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
# Doc links that name something that no longer exists (a method that moved
# to a trait, a deleted type) fail here. Not `-D warnings`: links from
# public docs to private items are tolerated.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --quiet
cargo build --release
cargo test -q --workspace

# Only a benchmark change may rewrite pythia_benchmark/Cargo.lock. The
# --locked below refuses a manifest edit that adds to the lock, but cargo
# lets one that only drops a dependency through --locked, so resolve once
# without it and compare.
LOCK=$(mktemp)
cp pythia_benchmark/Cargo.lock "$LOCK"
cargo metadata --offline --format-version 1 --manifest-path pythia_benchmark/Cargo.toml >/dev/null
if ! cmp -s "$LOCK" pythia_benchmark/Cargo.lock; then
    mv "$LOCK" pythia_benchmark/Cargo.lock
    echo "ci: a manifest edit changes pythia_benchmark/Cargo.lock"; exit 1
fi
rm -f "$LOCK"

# Benchmark correctness gate: all eight pythia_benchmark workloads at one
# second each. Exit 0 means every check passed and no operation failed:
# served == single-process (serve.served_equals_local), hardened == bare
# (predict.hardened_equals_bare), compressed == expanded
# (analyze.compressed_equals_expanded), zero elastic and serve fault
# counters on fault-free runs (the mpi_* and serve.* checks, `failed`).
# No timing is gated here: a run on this box cannot tell a regression from
# the box's slow mode, so speed is judged by the benchmark's paired
# parent-vs-change runs against the bounds in BENCHMARK.json.
cargo run --release --quiet --offline --locked --manifest-path pythia_benchmark/Cargo.toml -- \
    --all --seconds 1 >/dev/null
# The benchmark is a package outside the workspace, so the workspace test
# and clippy runs above never compile its tests — which name core types
# literally (`Prediction { distribution: vec![..], .. }`). Run them here, so
# that a change to such a type fails CI and not the next benchmark run.
cargo test --release --offline --quiet --locked --manifest-path pythia_benchmark/Cargo.toml

# Race & pattern gates: the seeded-violation fixture carries a same-epoch
# racy store pair and an Isend-without-Wait window; the race subcommand
# and the window queries must all flag it with exit 1 exactly — never 0
# (missed) and never 2 (crash/usage).
ANALYZE=target/release/pythia-analyze
SEEDED=$(mktemp -d)
"$ANALYZE" --write-seeded-violations "$SEEDED/seeded.trace" >/dev/null
if "$ANALYZE" race --deny errors "$SEEDED/seeded.trace" >/dev/null; then
    echo "ci: race detector missed the seeded racy store pair"; exit 1
elif [ $? -ne 1 ]; then
    echo "ci: race subcommand crashed on the seeded fixture"; exit 1
fi
# Both desugarings run end to end: the `(!b){N}` window, and a width-6
# `a ~N b` (the fixture's MG loop completes its Isends by Waitall).
for QUERY in 'MPI_Isend (!MPI_Wait){8}' 'MPI_Isend ~6 MPI_Waitall'; do
    if "$ANALYZE" match "$QUERY" --deny warnings "$SEEDED/seeded.trace" >/dev/null; then
        echo "ci: pattern query '$QUERY' missed its seeded-fixture matches"; exit 1
    elif [ $? -ne 1 ]; then
        echo "ci: match subcommand crashed on '$QUERY' over the seeded fixture"; exit 1
    fi
done
rm -rf "$SEEDED"

# Cost gates (request_cost.rs, op_cost.rs, zero_alloc.rs) ran in `cargo test` above: DESIGN §13.

# Chaos pass: the workspace run above was the fault-injection suite on a
# clean environment; here the whole suite runs again with faults injected
# into every default-config oracle facade (PYTHIA_CHAOS is read by
# ResilienceConfig::default()). The applications must still complete —
# degraded, not dead.
PYTHIA_CHAOS="panic-predict" cargo test -q --test chaos
PYTHIA_CHAOS="drop=7,dup=13,slow-predict-us=5" cargo test -q --test chaos
# The channel and observe faults the two passes above leave out: reordered
# and corrupted events, and a panic in the observe path, all behind the
# facade's one hook predicate.
PYTHIA_CHAOS="reorder=11,corrupt=17,panic-observe-after=500" cargo test -q --test chaos

# Optional sanitize pass (PYTHIA_CI_SANITIZE=1): core tests under Miri
# where the toolchain has it, then `pythia-analyze --deny warnings` (all
# passes, plus the race and match subcommands) over the chaos suite's
# recorded traces. Clean recordings must analyze clean;
# a fixture with seeded protocol violations must be flagged (exit 1, and
# never 2 = crash/usage); recordings taken under an injected-fault
# environment must analyze without crashing.
if [ "${PYTHIA_CI_SANITIZE:-0}" = "1" ]; then
    if cargo miri --version >/dev/null 2>&1; then
        cargo miri test -p pythia-core --lib
    else
        echo "ci: miri not installed, skipping the interpreter pass"
    fi

    ANALYZE=target/release/pythia-analyze
    DUMPS=$(mktemp -d)

    PYTHIA_CHAOS_TRACE_DIR="$DUMPS/clean" cargo test -q --test chaos
    [ -n "$(ls "$DUMPS/clean")" ] || { echo "ci: chaos suite dumped no traces"; exit 1; }
    "$ANALYZE" --deny warnings "$DUMPS"/clean/*.trace
    "$ANALYZE" race --deny warnings "$DUMPS"/clean/*.trace >/dev/null
    "$ANALYZE" match 'isend ~8 waitall' "$DUMPS"/clean/*.trace >/dev/null || [ $? -eq 1 ]

    "$ANALYZE" --write-seeded-violations "$DUMPS/seeded.trace" >/dev/null
    if "$ANALYZE" --deny errors "$DUMPS/seeded.trace" >/dev/null; then
        echo "ci: pythia-analyze missed the seeded violations"; exit 1
    elif [ $? -ne 1 ]; then
        echo "ci: pythia-analyze crashed on the seeded fixture"; exit 1
    fi

    PYTHIA_CHAOS_TRACE_DIR="$DUMPS/chaotic" PYTHIA_CHAOS="drop=7,dup=13" \
        cargo test -q --test chaos
    for t in "$DUMPS"/chaotic/*.trace; do
        "$ANALYZE" "$t" >/dev/null || [ $? -eq 1 ]
        "$ANALYZE" race "$t" >/dev/null || [ $? -eq 1 ]
        "$ANALYZE" match 'isend ~8 waitall' "$t" >/dev/null || [ $? -eq 1 ]
    done

    rm -rf "$DUMPS"
fi
