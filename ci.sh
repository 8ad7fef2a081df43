#!/bin/sh
# Tier-1 gate: formatting, lints, doc links, release build, full workspace tests.
# Run from the repository root. Fails fast on the first broken step.
set -eu

cargo fmt --all --check
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

# Serve smoke: the sharded prediction server over a Unix socket — two
# tenants x 100 sessions must match the single-process oracle bit for
# bit, and a circuit-broken tenant must degrade to no-advice without
# perturbing the other tenant (serve_smoke asserts all three).
SERVE=$(mktemp -d)
target/release/serve_smoke --socket "$SERVE/serve.sock" >/dev/null
rm -rf "$SERVE"

# Serve chaos pass: the same smoke asserts must hold while the wire-fault
# injector truncates frames, corrupts length prefixes, disconnects
# mid-frame, and delays writes on every accepted connection (serve_smoke
# retries each session block on a fresh connection, so every
# byte-identity assert stays exact).
SERVE=$(mktemp -d)
PYTHIA_CHAOS="wire-corrupt-len=13,wire-truncate=17,wire-disconnect=29,wire-delay=11,wire-delay-us=200" \
    target/release/serve_smoke --sessions 50 --socket "$SERVE/serve.sock" >/dev/null
rm -rf "$SERVE"

# Serve crash recovery (kill -9 a durable server, `--recover`, byte-identical
# predictions) is crates/bench/tests/serve_crash_recovery.rs, run by
# `cargo test --workspace` above. So is what a served request may cost —
# at most 6 allocations and 2.5 voluntary context switches over a socket,
# 0.1 switches in process (crates/serve/tests/request_cost.rs): counts,
# which a slow box cannot blur; no timing is asserted anywhere here.
# The hub has the same kind of gate (crates/minimpi/tests/op_cost.rs, built
# because the bench crate turns minimpi's `socket` feature on): a halo
# iteration over Hub + SocketComm costs at most 13 voluntary switches and
# 57 allocations, on World::run 2.5 and 22, and a frame prefix that lies
# about its length makes the hub allocate nothing.
# And `finish_thread` (crates/core/tests/zero_alloc.rs): the timing-model
# replay of a stream sixteen times longer in the same loop nest allocates
# the same number of times, within 4, and fewer than 200 times in all.
# The same file gates the analyzer's load path and passes: a
# `GrammarIndex::build` allocates as often for a 41-rule grammar as for a
# 5-rule one, and one `analyze_trace` over a 4-rank ring world, indexes
# prebuilt, allocates at most 189 times.

# Chaos pass: the workspace run above was the fault-injection suite on a
# clean environment; here the whole suite runs again with faults injected
# into every default-config oracle facade (PYTHIA_CHAOS is read by
# ResilienceConfig::default()). The applications must still complete —
# degraded, not dead.
PYTHIA_CHAOS="panic-predict" cargo test -q --test chaos
PYTHIA_CHAOS="drop=7,dup=13,slow-predict-us=5" cargo test -q --test chaos

# Crash-recovery pass: a durable multi-rank recording (crash_record) is
# kill -9'ed at a random point mid-run; `pythia-analyze recover` must
# rebuild the run from the surviving journal/checkpoint sidecars, and the
# recovered trace must load strictly and analyze without errors.
CRASH=$(mktemp -d)
target/release/crash_record "$CRASH/run.pythia" 2 50000000 >"$CRASH/record.log" 2>&1 &
CRASH_PID=$!
n=0
while [ ! -f "$CRASH/run.pythia.r0.journal" ]; do
    n=$((n + 1))
    [ "$n" -lt 200 ] || { echo "ci: crash_record never started journaling"; exit 1; }
    sleep 0.05
done
sleep "$(awk 'BEGIN{srand(); printf "%.2f", 0.2 + rand() * 0.8}')"
kill -9 "$CRASH_PID" 2>/dev/null || true
wait "$CRASH_PID" 2>/dev/null || true
[ ! -f "$CRASH/run.pythia" ] || { echo "ci: crash_record finished before the kill"; exit 1; }
target/release/pythia-analyze recover --out "$CRASH/recovered.pythia" "$CRASH/run.pythia"
target/release/pythia-analyze --deny errors "$CRASH/recovered.pythia" >/dev/null
rm -rf "$CRASH"

# Elastic stage: the Communicator backends and rank-level fault
# tolerance. The benchmark gate above checks the fault-free elastic
# counters; this stage drives the failure paths. Kill -9 of a socket-world
# rank with a journal-resumed replacement, byte-identical to the fault-free
# run, is crates/bench/tests/elastic_socket_recovery.rs, run by
# `cargo test --workspace` above.
EREC=target/release/elastic_record
ELASTIC=$(mktemp -d)

# (1) Socket smoke: an 8-rank world as 2 worker processes x 4 ranks
# each over the hub; a clean run must detect no failures and assemble
# a trace carrying every rank.
"$EREC" hub "$ELASTIC/smoke.sock" 8 >"$ELASTIC/smoke-hub.log" 2>&1 &
EHUB_PID=$!
n=0
while [ ! -S "$ELASTIC/smoke.sock" ]; do
    n=$((n + 1))
    [ "$n" -lt 200 ] || { echo "ci: elastic hub never bound its socket"; exit 1; }
    sleep 0.05
done
"$EREC" worker "$ELASTIC/smoke.sock" "$ELASTIC/smoke.pythia" 0 8 5000 0 4 >/dev/null &
EW0_PID=$!
"$EREC" worker "$ELASTIC/smoke.sock" "$ELASTIC/smoke.pythia" 4 8 5000 0 4 >/dev/null &
EW1_PID=$!
wait "$EW0_PID"
wait "$EW1_PID"
wait "$EHUB_PID"
grep -q "failures=0 replaced=0" "$ELASTIC/smoke-hub.log" \
    || { echo "ci: socket smoke reported rank failures on a clean run"; exit 1; }
"$EREC" assemble "$ELASTIC/smoke.pythia" | grep -q "assembled ranks=8 events=40008" \
    || { echo "ci: socket smoke assembled a short trace"; exit 1; }

# (2) Rank-chaos sweep on the elastic threads backend: each injected
# fault kind must end with no hung survivors (the timeout catches a
# wedged world), exactly one replacement rank resumed from its journal,
# and a finalized trace byte-identical to the fault-free run.
"$EREC" threads "$ELASTIC/free.pythia" 3 20000 >/dev/null 2>&1
for kind in rank-panic rank-hang rank-disconnect; do
    PYTHIA_CHAOS="$kind=40,rank-fault-rank=1" PYTHIA_RANK_TIMEOUT_MS=500 \
        timeout 120 "$EREC" threads "$ELASTIC/$kind.pythia" 3 20000 \
        >"$ELASTIC/$kind.log" 2>/dev/null \
        || { echo "ci: elastic world wedged or died under $kind"; exit 1; }
    grep -q "replaced=1" "$ELASTIC/$kind.log" \
        || { echo "ci: no replacement rank admitted under $kind"; exit 1; }
    cmp -s "$ELASTIC/free.pythia" "$ELASTIC/$kind.pythia" \
        || { echo "ci: trace recovered under $kind differs from the fault-free run"; exit 1; }
done
rm -rf "$ELASTIC"

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
