//! Supervisor overhead benchmarks: what phase checkpointing costs on top
//! of a plain pipeline run, and what a tail resume saves.
//!
//! Cases (both pipelines, shattering-heavy randomized config):
//!
//! * `plain` — passive supervisor, no checkpointing (the baseline every
//!   unsupervised run takes).
//! * `checkpointed` — a snapshot serialized after every phase boundary.
//! * `resume-tail` — resuming from the last boundary snapshot, i.e. the
//!   cost of replaying the deterministic derivations plus the live tail.
//! * `snapshot-load` — deserializing the largest boundary snapshot.
//!
//! Colorings are asserted identical between plain and checkpointed runs
//! before anything is timed, and the resumed coloring must match the
//! uninterrupted one — the overhead numbers are only meaningful if the
//! supervised run is bit-identical.
//!
//! ```text
//! cargo bench -p delta-bench --bench supervisor                    # full, table
//! cargo bench -p delta-bench --bench supervisor -- --json BENCH_supervisor.json
//! cargo bench -p delta-bench --bench supervisor -- --smoke --json out.json  # CI
//! ```

use delta_bench::harness::{mean_of, object, Bench, Fields};
use delta_core::{
    drive_deterministic, drive_randomized, load_snapshot, Config, PhaseCursor, RandConfig,
    RunOutcome, Snapshot, Supervisor,
};
use graphgen::generators::{self, BlueprintKind, HardCliqueParams};
use graphgen::Graph;
use localsim::Probe;

fn circulant(cliques: usize, seed: u64) -> Graph {
    generators::hard_cliques_with_blueprint(
        &HardCliqueParams {
            cliques,
            delta: 16,
            external_per_vertex: 1,
            seed,
        },
        BlueprintKind::Circulant,
    )
    .expect("bench instance")
    .graph
}

fn shattering_config(seed: u64) -> RandConfig {
    let mut config = RandConfig::for_delta(16, seed);
    config.defer_radius = 5;
    config
}

fn checkpointing(dir: &std::path::Path) -> Supervisor {
    Supervisor {
        checkpoint_dir: Some(dir.to_path_buf()),
        ..Supervisor::passive()
    }
}

fn complete<R>(outcome: RunOutcome<R>) -> R {
    match outcome {
        RunOutcome::Complete { report, .. } => report,
        RunOutcome::Suspended { .. } | RunOutcome::Failed(_) => {
            panic!("bench runs must complete")
        }
    }
}

fn main() {
    let bench = Bench::from_args();
    let cliques = if bench.smoke() { 40 } else { 80 };
    let g = circulant(cliques, 11);
    let n = g.n();
    let probe = Probe::disabled();
    let ckpt_dir =
        std::env::temp_dir().join(format!("delta-bench-supervisor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let sup_ckpt = checkpointing(&ckpt_dir);
    let sup_plain = Supervisor::passive();

    let rand_config = shattering_config(3);
    let det_config = Config::for_delta(16);

    // Bit-identity preflight: supervised and plain runs must agree, and a
    // tail resume must reproduce the uninterrupted coloring.
    let plain_ref = complete(
        drive_randomized(&g, &rand_config, None, &probe, &sup_plain, None).expect("plain run"),
    );
    let ckpt_ref = complete(
        drive_randomized(&g, &rand_config, None, &probe, &sup_ckpt, None).expect("supervised run"),
    );
    assert_eq!(
        plain_ref.coloring, ckpt_ref.coloring,
        "checkpointing changed the randomized coloring"
    );
    let tail_path = ckpt_dir.join(format!(
        "checkpoint-{:02}-{}.json",
        PhaseCursor::PostProcessing.ordinal(),
        PhaseCursor::PostProcessing.slug()
    ));
    let tail_snapshot: Snapshot = load_snapshot(&tail_path).expect("tail snapshot");
    let resume_tail = || {
        drive_randomized(
            &g,
            &rand_config,
            None,
            &probe,
            &sup_plain,
            Some(tail_snapshot.clone()),
        )
    };
    let resumed = complete(resume_tail().expect("resumed run"));
    assert_eq!(
        plain_ref.coloring, resumed.coloring,
        "tail resume diverged from the uninterrupted run"
    );

    let det_plain_ref = complete(
        drive_deterministic(&g, &det_config, &probe, &sup_plain, None).expect("plain det run"),
    );
    let det_ckpt_ref = complete(
        drive_deterministic(&g, &det_config, &probe, &sup_ckpt, None).expect("supervised det run"),
    );
    assert_eq!(
        det_plain_ref.coloring, det_ckpt_ref.coloring,
        "checkpointing changed the deterministic coloring"
    );

    let rand = |sup: &Supervisor| {
        complete(drive_randomized(&g, &rand_config, None, &probe, sup, None).unwrap())
    };
    let det = |sup: &Supervisor| {
        complete(drive_deterministic(&g, &det_config, &probe, sup, None).unwrap())
    };
    let timings = [
        ("randomized", "plain", bench.measure(|| rand(&sup_plain))),
        (
            "randomized",
            "checkpointed",
            bench.measure(|| rand(&sup_ckpt)),
        ),
        (
            "randomized",
            "resume-tail",
            bench.measure(|| complete(resume_tail().unwrap())),
        ),
        (
            "randomized",
            "snapshot-load",
            bench.measure(|| load_snapshot(&tail_path).unwrap()),
        ),
        ("deterministic", "plain", bench.measure(|| det(&sup_plain))),
        (
            "deterministic",
            "checkpointed",
            bench.measure(|| det(&sup_ckpt)),
        ),
    ];
    let cases: Vec<_> = timings
        .into_iter()
        .map(|(pipeline, variant, m)| {
            let id: &Fields<'_> = &[("pipeline", &pipeline), ("variant", &variant)];
            bench.case(&format!("supervisor/n={n}"), id, m)
        })
        .collect();

    let mut overheads = Vec::new();
    for pipeline in ["randomized", "deterministic"] {
        let mean =
            |variant: &str| mean_of(&cases, &[("pipeline", &pipeline), ("variant", &variant)]);
        let o = mean("checkpointed") / mean("plain");
        println!("supervisor/{pipeline}/n={n}: checkpointed/plain overhead {o:.3}x");
        overheads.push(object(&[("pipeline", &pipeline), ("overhead", &o)]));
    }

    let _ = std::fs::remove_dir_all(&ckpt_dir);

    bench.write_report(&[
        ("n", &n),
        ("cases", &cases),
        ("checkpointed_over_plain_overheads", &overheads),
    ]);
}
