//! Pipeline-layer benchmarks: the ACD friend-graph kernel and the full
//! pipelines at several worker-pool widths.
//!
//! Two families:
//!
//! * `acd` — the blocked-bitmap friend-graph kernel (`compute_acd`)
//!   against the pre-PR per-edge neighborhood-merge kernel
//!   (`compute_acd_reference`), on dense instances up to `n ≥ 4096`. Both
//!   kernels are bit-identical by construction; this bench *asserts* that
//!   on every instance before timing, so the speedup is never measured
//!   against a diverged baseline.
//! * `pipeline` — end-to-end deterministic and randomized runs at
//!   `threads ∈ {1, 2, 4}` (`seq`/`par2`/`par4`), on a dense circulant
//!   instance and on a shattering-heavy configuration (`defer_radius = 5`
//!   leaves real leftover components for the pool). Colorings are checked
//!   identical across thread counts before timing.
//!
//! Usage (a `harness = false` bench binary):
//!
//! ```text
//! cargo bench -p delta-bench --bench pipeline                      # full, table
//! cargo bench -p delta-bench --bench pipeline -- --json BENCH_pipeline.json
//! cargo bench -p delta-bench --bench pipeline -- --smoke --json out.json  # CI
//! ```
//!
//! The JSON report (`BENCH_pipeline.json`) carries every measured case
//! plus per-instance `merge_mean_ns / blocked_mean_ns` ACD speedups; see
//! `docs/PERFORMANCE.md` for the schema.

use acd::{compute_acd, compute_acd_reference, kernel, AcdParams};
use delta_bench::harness::{mean_of, object, Bench, Fields};
use delta_core::{
    color_deterministic, color_randomized, color_randomized_probed, Config, RandConfig,
};
use graphgen::generators::{self, BlueprintKind, HardCliqueParams};
use graphgen::Graph;
use localsim::Probe;

fn circulant(cliques: usize, delta: usize, seed: u64) -> Graph {
    generators::hard_cliques_with_blueprint(
        &HardCliqueParams {
            cliques,
            delta,
            external_per_vertex: 1,
            seed,
        },
        BlueprintKind::Circulant,
    )
    .expect("bench instance")
    .graph
}

/// Shattering-heavy randomized config: `defer_radius = 5` leaves the
/// post-shattering phase with real leftover components to schedule.
fn shattering_config(seed: u64, threads: usize) -> RandConfig {
    let mut config = RandConfig::for_delta(16, seed);
    config.defer_radius = 5;
    config.base.threads = threads;
    config
}

fn main() {
    let bench = Bench::from_args();

    // --- ACD kernels: blocked bitmaps vs per-edge neighborhood merge. ---
    // Circulant hard-clique instances are the dense regime the kernel
    // targets: every vertex sits in a Δ-clique, so each friend-edge test
    // scans Θ(Δ) neighbors under the merge kernel. The Δ = 63 instance
    // runs the paper's own parameter regime (`AcdParams::paper`), where
    // neighborhoods are long enough for the kernel gap to dominate.
    let acd_instances: Vec<(&'static str, Graph)> = if bench.smoke() {
        vec![("circulant-d16", circulant(40, 16, 7))]
    } else {
        vec![
            ("circulant-d16", circulant(64, 16, 7)),
            ("circulant-d16", circulant(256, 16, 7)),
            ("circulant-d63", circulant(136, 63, 7)),
        ]
    };

    let mut acd_cases = Vec::new();
    let mut acd_speedups = Vec::new();
    for (instance, g) in &acd_instances {
        let n = g.n();
        let params = AcdParams::for_delta(g.max_degree());
        // Bit-identity micro-assert: never time a diverged baseline.
        assert_eq!(
            compute_acd(g, &params),
            compute_acd_reference(g, &params),
            "blocked kernel diverged from the merge kernel on {instance}/n={n}"
        );
        // The kernels in isolation (the friend-edge computation the
        // rewrite targets), then the full decomposition (kernel + shared
        // postprocessing).
        let timings = [
            (
                "kernel-blocked",
                bench.measure(|| kernel::friend_graph(g, &params)),
            ),
            (
                "kernel-merge",
                bench.measure(|| kernel::friend_graph_reference(g, &params)),
            ),
            ("full-blocked", bench.measure(|| compute_acd(g, &params))),
            (
                "full-merge",
                bench.measure(|| compute_acd_reference(g, &params)),
            ),
        ];
        let cases: Vec<_> = timings
            .into_iter()
            .map(|(kernel, m)| {
                let id: &Fields<'_> = &[("instance", instance), ("n", &n), ("kernel", &kernel)];
                bench.case("acd", id, m)
            })
            .collect();
        for scope in ["kernel", "full"] {
            let mean = |side: &str| mean_of(&cases, &[("kernel", &format!("{scope}-{side}"))]);
            let s = mean("merge") / mean("blocked");
            println!("acd/{instance}/n={n}/{scope}: merge/blocked speedup {s:.2}x");
            let case = format!("{instance}/n={n}/{scope}");
            acd_speedups.push(object(&[("case", &case), ("n", &n), ("speedup", &s)]));
        }
        acd_cases.extend(cases);
    }

    // --- End-to-end pipelines at several pool widths. ---
    let pipe_cliques = if bench.smoke() { 40 } else { 80 };
    let g = circulant(pipe_cliques, 16, 11);
    let n = g.n();
    let thread_variants = [("seq", 1usize), ("par2", 2), ("par4", 4)];

    // Colorings must agree across thread counts before anything is timed.
    let det_ref = {
        let mut config = Config::for_delta(16);
        config.threads = 1;
        color_deterministic(&g, &config).expect("bench instance colors")
    };
    let shat_ref = color_randomized_probed(&g, &shattering_config(3, 1), &Probe::disabled())
        .expect("bench instance colors")
        .coloring;
    for (_, threads) in &thread_variants[1..] {
        let mut config = Config::for_delta(16);
        config.threads = *threads;
        let det = color_deterministic(&g, &config).unwrap();
        assert_eq!(
            det_ref.coloring, det.coloring,
            "deterministic pipeline diverged at threads={threads}"
        );
        let shat = color_randomized_probed(&g, &shattering_config(3, *threads), &Probe::disabled())
            .unwrap();
        assert_eq!(
            shat_ref, shat.coloring,
            "randomized pipeline diverged at threads={threads}"
        );
    }

    let mut pipe_cases = Vec::new();
    for (variant, threads) in thread_variants {
        let mut det_config = Config::for_delta(16);
        det_config.threads = threads;
        let mut rand_config = RandConfig::for_delta(16, 3);
        rand_config.base.threads = threads;
        let shat_config = shattering_config(3, threads);
        for (pipeline, instance, m) in [
            (
                "deterministic",
                "circulant",
                bench.measure(|| color_deterministic(&g, &det_config).unwrap()),
            ),
            (
                "randomized",
                "circulant",
                bench.measure(|| color_randomized(&g, &rand_config).unwrap()),
            ),
            (
                "randomized",
                "shattering",
                bench.measure(|| color_randomized(&g, &shat_config).unwrap()),
            ),
        ] {
            let id: &Fields<'_> = &[
                ("pipeline", &pipeline),
                ("instance", &instance),
                ("n", &n),
                ("variant", &variant),
            ];
            pipe_cases.push(bench.case("pipeline", id, m));
        }
    }

    bench.write_report(&[
        ("acd_cases", &acd_cases),
        ("acd_merge_over_blocked_speedups", &acd_speedups),
        ("pipeline_cases", &pipe_cases),
    ]);
}
