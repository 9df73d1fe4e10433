//! Sharded-runtime scaling benchmark: wall-clock and rounds of a wire
//! coloring as the shard count grows, against the in-process executor.
//!
//! Honest caveat, embedded in the JSON report: everything here runs on
//! **one machine** over loopback TCP, so added shards add framing and
//! syscall cost per round without adding compute capacity — wall-clock
//! is *expected* to be slower than in-process. What the numbers measure
//! is the per-round coordination overhead (the price of running the
//! LOCAL algorithm actually distributed), not a speedup claim.
//!
//! Outputs are asserted bit-identical across every variant before
//! anything is timed.
//!
//! Alongside wall-clock, the report carries a deterministic
//! **wire-traffic series** (`wire_cases`): exact byte counts of the v2
//! wire protocol on a clique — `Init` bytes, steady-state bytes per
//! round, and the delta ghost exchange's sent/suppressed update counts.
//! These are byte-exact across runs, so CI gates them with
//! `benchdiff --metric bytes --threshold 0`: any accidental protocol
//! growth fails the gate.
//!
//! ```text
//! cargo bench -p delta-bench --bench shard                    # full, table
//! cargo bench -p delta-bench --bench shard -- --json BENCH_shard.json
//! cargo bench -p delta-bench --bench shard -- --smoke --json out.json  # CI
//! ```

use std::sync::Arc;

use delta_bench::harness::{object, Bench, Fields};
use graphgen::generators;
use localsim::{Executor, MetricsHub, Probe, ShardedExecutor, WireAlgo};
use serde::Value;

const MAX_ROUNDS: u64 = 100_000;

/// One deterministic sharded run on the clique `g` with a metrics hub
/// attached, as a `wire_cases` entry; byte counts come straight off the
/// `shard.*` counters. Steady-state bytes per round excludes the
/// one-time `Init` payload (integer division — exact, reproducible,
/// gateable at threshold 0).
fn measure_wire(g: &graphgen::Graph, algo: WireAlgo, shards: usize) -> Value {
    let hub = Arc::new(MetricsHub::new());
    let run = ShardedExecutor::new(g)
        .with_shards(shards)
        .with_probe(Probe::disabled().with_metrics(hub.clone()))
        .run(algo, MAX_ROUNDS)
        .expect("wire measurement run");
    let counter = |name: &str| hub.counter(name).get();
    let (sent, recv, init) = (
        counter("shard.bytes_sent"),
        counter("shard.bytes_recv"),
        counter("shard.init_bytes"),
    );
    let round_bytes = (sent + recv - init) / run.rounds.max(1);
    let (updates, suppressed) = (
        counter("shard.ghost_updates_sent"),
        counter("shard.ghost_suppressed"),
    );
    println!(
        "wire/clique/n={}/{algo}/shards={shards}: init {init} B, {round_bytes} B/round over {} \
         rounds ({updates} ghost update(s), {suppressed} suppressed)",
        g.n(),
        run.rounds
    );
    object(&[
        ("topology", &"clique"),
        ("n", &g.n()),
        ("algo", &algo.to_string()),
        ("shards", &shards),
        ("rounds", &run.rounds),
        ("init_bytes", &init),
        ("round_bytes", &round_bytes),
        ("total_sent_bytes", &sent),
        ("total_recv_bytes", &recv),
        ("ghost_updates", &updates),
        ("ghost_suppressed", &suppressed),
    ])
}

fn main() {
    let bench = Bench::from_args();
    let n = if bench.smoke() { 600 } else { 3000 };
    let g = generators::gnp(n, 8.0 / n as f64, 17);
    let algo = WireAlgo::Rand { seed: 7 };

    // Bit-identity preflight across every shard count.
    let reference = Executor::new(&g).run(&algo, MAX_ROUNDS).expect("reference");
    for shards in [1usize, 2, 4] {
        let run = ShardedExecutor::new(&g)
            .with_shards(shards)
            .run(algo, MAX_ROUNDS)
            .expect("sharded run");
        assert_eq!(
            run.outputs, reference.outputs,
            "{shards}-shard outputs diverged from the in-process executor"
        );
        assert_eq!(
            run.rounds, reference.rounds,
            "{shards}-shard round count diverged"
        );
    }

    let in_process = bench.measure(|| Executor::new(&g).run(&algo, MAX_ROUNDS).unwrap());
    let mut cases = vec![bench.case(
        "shard",
        &[("variant", &"in-process"), ("shards", &0u64)],
        in_process,
    )];
    for (variant, shards) in [("shards-1", 1usize), ("shards-2", 2), ("shards-4", 4)] {
        let m = bench.measure(|| {
            ShardedExecutor::new(&g)
                .with_shards(shards)
                .run(algo, MAX_ROUNDS)
                .unwrap()
        });
        let id: &Fields<'_> = &[("variant", &variant), ("shards", &shards)];
        cases.push(bench.case("shard", id, m));
        println!(
            "shard/n={n}/{variant}: coordination overhead {:.2}x over in-process",
            m.mean_ns / in_process.mean_ns
        );
    }

    // Deterministic wire-traffic series: a clique is the worst case for
    // the delta ghost exchange (every vertex is a boundary vertex), so
    // byte counts here bound the protocol's per-round footprint.
    let wg = generators::complete(if bench.smoke() { 400 } else { 2000 });
    let mut wire_cases = Vec::new();
    for algo in [WireAlgo::Rand { seed: 7 }, WireAlgo::Greedy] {
        for shards in [2usize, 4] {
            wire_cases.push(measure_wire(&wg, algo, shards));
        }
    }

    bench.write_report(&[
        ("n", &n),
        // All variants run the same round count (bit-identity is
        // asserted above), so it lives at report level — keeping it
        // out of the per-case identity benchdiff matches on.
        ("rounds", &reference.rounds),
        (
            "caveat",
            &"single-machine loopback: shards add per-round framing/syscall cost \
              without adding compute; numbers measure coordination overhead, \
              not distributed speedup",
        ),
        ("cases", &cases),
        ("wire_cases", &wire_cases),
    ]);
}
