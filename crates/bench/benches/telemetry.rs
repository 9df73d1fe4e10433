//! Telemetry-overhead bench: what instrumentation costs when nobody (or
//! almost nobody) is listening.
//!
//! Three variants of the same clique state-exchange workload:
//!
//! * `bare` — disabled probe, no metrics hub: the inert-instrumentation
//!   path every plain run takes (no timestamps, no event construction);
//! * `metrics` — a [`MetricsHub`] attached but no event sink: counters,
//!   watermarks, and the per-round latency histograms are live;
//! * `events` — a [`NullSink`] probe and a hub: per-round events are
//!   built and discarded on top of the metrics.
//!
//! The acceptance gate is `metrics`: collecting metrics with no sink
//! attached must add **less than 5%** over `bare` on the full-size
//! clique (n = 2000, `seq` stepping). The assertion only fires in full
//! mode — smoke/test runs use tiny sizes on noisy CI cores, where one
//! scheduler hiccup swamps a single-digit percentage.
//!
//! ```text
//! cargo bench -p delta-bench --bench telemetry
//! cargo bench -p delta-bench --bench telemetry -- --smoke --json out.json
//! ```

use std::sync::Arc;

use delta_bench::harness::{mean_of, Bench, Fields};
use graphgen::generators;
use localsim::{Executor, LocalAlgorithm, MetricsHub, NodeCtx, NullSink, Probe, Transition};

/// State-exchange flood: propagate the running max for `t` rounds (the
/// same workload the executors bench uses for its clique cases).
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

fn main() {
    let bench = Bench::from_args();
    let clique_n = if bench.smoke() { 192 } else { 2000 };
    let t = 3u64;
    let budget = t + 2;
    let g = generators::complete(clique_n);
    let algo = StateFlood { t };

    // One hub per instrumented variant, reused across iterations: metric
    // values accumulate, but the per-observation cost — the thing being
    // measured — is constant.
    let hub = Arc::new(MetricsHub::new());
    let events_hub = Arc::new(MetricsHub::new());
    let timings = [
        (
            "bare",
            bench.measure(|| Executor::new(&g).run(&algo, budget).unwrap()),
        ),
        (
            "metrics",
            bench.measure(|| {
                Executor::new(&g)
                    .with_probe(Probe::disabled().with_metrics(hub.clone()))
                    .run(&algo, budget)
                    .unwrap()
            }),
        ),
        (
            "events",
            bench.measure(|| {
                Executor::new(&g)
                    .with_probe(Probe::new(Arc::new(NullSink)).with_metrics(events_hub.clone()))
                    .run(&algo, budget)
                    .unwrap()
            }),
        ),
    ];
    let cases: Vec<_> = timings
        .into_iter()
        .map(|(variant, m)| {
            let id: &Fields<'_> = &[
                ("topology", &"clique"),
                ("n", &clique_n),
                ("variant", &variant),
            ];
            bench.case("telemetry", id, m)
        })
        .collect();

    let mean = |variant: &str| mean_of(&cases, &[("variant", &variant)]);
    let metrics_overhead_pct = 100.0 * (mean("metrics") / mean("bare") - 1.0);
    let events_overhead_pct = 100.0 * (mean("events") / mean("bare") - 1.0);
    println!("telemetry/clique: metrics-hub overhead {metrics_overhead_pct:+.2}% over bare");
    println!("telemetry/clique: events+metrics overhead {events_overhead_pct:+.2}% over bare");

    bench.write_report(&[
        ("n", &clique_n),
        ("cases", &cases),
        ("metrics_overhead_pct", &metrics_overhead_pct),
        ("events_overhead_pct", &events_overhead_pct),
    ]);

    // The gate: with a hub but no sink, metrics must stay under 5%.
    if !bench.smoke() {
        assert!(
            metrics_overhead_pct < 5.0,
            "metrics instrumentation added {metrics_overhead_pct:.2}% to the bare \
             clique n={clique_n} seq run (budget: < 5%)"
        );
    }
}
