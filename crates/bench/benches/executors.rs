//! Executor-core micro-benchmarks: topology × executor level × variant.
//!
//! Simulator throughput is the ceiling on how large an `n` the
//! round-complexity scaling experiments can reach, so this bench tracks
//! the three `localsim` executors on representative topologies (sparse
//! path, sparse cycle, dense clique) and pins the perf trajectory in a
//! machine-readable file.
//!
//! Variants per (topology, executor):
//!
//! * `seq` — the allocation-free double-buffered loop, one thread;
//! * `par2`/`par4` — the deterministic parallel stepping path.
//!
//! Usage (a `harness = false` bench binary):
//!
//! ```text
//! cargo bench -p delta-bench --bench executors                      # full matrix, table
//! cargo bench -p delta-bench --bench executors -- --json BENCH_executors.json
//! cargo bench -p delta-bench --bench executors -- --smoke --json out.json  # CI: small sizes
//! ```
//!
//! The JSON report (`BENCH_executors.json`) carries every measured case;
//! see `docs/PERFORMANCE.md` for the schema and how to read it.

use delta_bench::harness::{Bench, Fields};
use graphgen::{generators, Graph};
use localsim::{
    broadcast, CongestExecutor, Executor, LocalAlgorithm, MessageExecutor, MessageProgram,
    MsgTransition, NodeCtx, Outgoing, Transition,
};

// ---------------------------------------------------------------------------
// Workloads: flood-style programs that keep every node busy for `t` rounds.

/// State-exchange: propagate the running max for `t` rounds.
struct StateFlood {
    t: u64,
}

impl LocalAlgorithm for StateFlood {
    type State = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        ctx.uid
    }

    fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
        let m = nbrs.iter().copied().chain([*state]).max().unwrap_or(*state);
        if ctx.round >= self.t {
            Transition::Halt(m)
        } else {
            Transition::Continue(m)
        }
    }
}

/// Per-port messages: broadcast the running max on every port, `t` rounds.
struct MsgFlood {
    t: u64,
}

impl MessageProgram for MsgFlood {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> (u64, Vec<Outgoing<u64>>) {
        (ctx.uid, broadcast(ctx.degree(), &ctx.uid))
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut u64,
        inbox: &[Option<u64>],
    ) -> MsgTransition<u64, u64> {
        let m = inbox
            .iter()
            .flatten()
            .copied()
            .chain([*state])
            .max()
            .unwrap_or(*state);
        *state = m;
        if ctx.round >= self.t {
            MsgTransition::HaltAfter(Vec::new(), m)
        } else {
            MsgTransition::Continue(broadcast(ctx.degree(), &m))
        }
    }
}

fn msg_width(m: &u64) -> usize {
    (64 - m.leading_zeros()) as usize
}

fn main() {
    let bench = Bench::from_args();
    let (sparse_n, clique_n) = if bench.smoke() {
        (512, 192)
    } else {
        (4096, 2000)
    };
    let (sparse_rounds, clique_rounds) = (16u64, 3u64);

    let topologies: Vec<(&'static str, Graph, u64)> = vec![
        ("path", generators::path(sparse_n), sparse_rounds),
        ("cycle", generators::cycle(sparse_n), sparse_rounds),
        ("clique", generators::complete(clique_n), clique_rounds),
    ];

    let mut cases = Vec::new();
    for (topology, g, t) in &topologies {
        let budget = t + 2;
        let algo = StateFlood { t: *t };
        let prog = MsgFlood { t: *t };
        for executor in ["state", "message", "congest"] {
            for (variant, k) in [("seq", 1usize), ("par2", 2), ("par4", 4)] {
                let m = match executor {
                    "state" => bench
                        .measure(|| Executor::new(g).with_threads(k).run(&algo, budget).unwrap()),
                    "message" => bench.measure(|| {
                        MessageExecutor::new(g)
                            .with_threads(k)
                            .run(&prog, budget)
                            .unwrap()
                    }),
                    _ => bench.measure(|| {
                        CongestExecutor::new(g, 64, msg_width)
                            .with_threads(k)
                            .run(&prog, budget)
                            .unwrap()
                    }),
                };
                let id: &Fields<'_> = &[
                    ("topology", topology),
                    ("n", &g.n()),
                    ("executor", &executor),
                    ("variant", &variant),
                ];
                cases.push(bench.case("executors", id, m));
            }
        }
    }

    bench.write_report(&[("cases", &cases)]);
}
