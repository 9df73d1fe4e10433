//! Run-supervisor contracts: kill-and-resume bit-identity at every phase
//! boundary, panic containment with Brooks degradation, budget
//! enforcement, and failure repro bundles.
//!
//! The resume contract is exact: for every checkpoint boundary, stopping
//! there and resuming must produce the same coloring, the same round
//! ledger total, the same recovery stats, and a stitched telemetry
//! stream (partial events + resumed events) equal to the uninterrupted
//! run's stream after wall-clock normalization — at any thread count,
//! with or without a fault plan.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_core::{
    drive_deterministic, drive_randomized, load_snapshot, replay_bundle, ChaosPlan, Config,
    PhaseCursor, RandConfig, RandReport, Report, RunOutcome, Supervisor,
};
use graphgen::coloring::verify_delta_coloring;
use graphgen::generators::{self, BlueprintKind, HardCliqueParams};
use graphgen::Graph;
use localsim::{Event, FaultPlan, JsonlSink, MetricsHub, Probe, RecordingSink};

fn circulant(cliques: usize, seed: u64) -> generators::HardCliqueInstance {
    generators::hard_cliques_with_blueprint(
        &HardCliqueParams {
            cliques,
            delta: 16,
            external_per_vertex: 1,
            seed,
        },
        BlueprintKind::Circulant,
    )
    .unwrap()
}

/// `defer_radius = 5` leaves real leftover components on these circulant
/// instances, so the supervised component pool has units to quarantine.
fn shattering_config(seed: u64, threads: usize) -> RandConfig {
    let mut config = RandConfig::for_delta(16, seed);
    config.defer_radius = 5;
    config.base.threads = threads;
    config
}

fn normalize(events: &[Event]) -> Vec<Event> {
    events.iter().map(Event::normalized).collect()
}

/// Self-cleaning scratch directory under the system temp dir. The tag
/// must be unique per call site since tests share one process.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("delta-supervisor-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn checkpointing(dir: &TempDir) -> Supervisor {
    Supervisor {
        checkpoint_dir: Some(dir.path().to_path_buf()),
        ..Supervisor::passive()
    }
}

fn supervised_rand(
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    sup: &Supervisor,
    resume: Option<delta_core::Snapshot>,
) -> (RunOutcome<RandReport>, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let probe = Probe::new(sink.clone());
    let outcome = drive_randomized(g, config, faults, &probe, sup, resume).unwrap();
    (outcome, sink.events())
}

fn supervised_det(
    g: &Graph,
    config: &Config,
    sup: &Supervisor,
    resume: Option<delta_core::Snapshot>,
) -> (RunOutcome<Report>, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let probe = Probe::new(sink.clone());
    let outcome = drive_deterministic(g, config, &probe, sup, resume).unwrap();
    (outcome, sink.events())
}

const RAND_BOUNDARIES: [PhaseCursor; 5] = [
    PhaseCursor::Acd,
    PhaseCursor::Classification,
    PhaseCursor::PreShattering,
    PhaseCursor::PostShattering,
    PhaseCursor::PostProcessing,
];

const DET_BOUNDARIES: [PhaseCursor; 6] = [
    PhaseCursor::Acd,
    PhaseCursor::Classification,
    PhaseCursor::Phase1,
    PhaseCursor::Phase2,
    PhaseCursor::Phase3,
    PhaseCursor::Phase4,
];

/// Runs the randomized pipeline uninterrupted, then kills and resumes it
/// at every phase boundary, asserting bit-identity each time.
fn assert_rand_resume_identical(
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    tag: &str,
) {
    let ref_dir = TempDir::new(&format!("{tag}-ref"));
    let (outcome, ref_events) = supervised_rand(g, config, faults, &checkpointing(&ref_dir), None);
    let RunOutcome::Complete {
        report: ref_report, ..
    } = outcome
    else {
        panic!("{tag}: uninterrupted run must complete");
    };
    verify_delta_coloring(g, &ref_report.coloring).unwrap();
    let ref_checkpoints = ref_events
        .iter()
        .filter(|e| matches!(e, Event::Checkpoint { .. }))
        .count();
    assert_eq!(
        ref_checkpoints,
        RAND_BOUNDARIES.len(),
        "{tag}: uninterrupted run must emit one Checkpoint event per boundary"
    );

    for cursor in RAND_BOUNDARIES {
        let dir = TempDir::new(&format!("{tag}-{}", cursor.slug()));
        let stopper = Supervisor {
            stop_after: Some(cursor),
            ..checkpointing(&dir)
        };
        let (outcome, partial_events) = supervised_rand(g, config, faults, &stopper, None);
        let RunOutcome::Suspended {
            cursor: at,
            snapshot,
        } = outcome
        else {
            panic!("{tag}: expected suspension at `{cursor}`");
        };
        assert_eq!(at, cursor);

        let snap = load_snapshot(&snapshot).unwrap();
        let (outcome, resumed_events) =
            supervised_rand(g, config, faults, &checkpointing(&dir), Some(snap));
        let RunOutcome::Complete { report, .. } = outcome else {
            panic!("{tag}: resumed run from `{cursor}` must complete");
        };

        assert_eq!(
            report.coloring, ref_report.coloring,
            "{tag}: colors differ after resume from `{cursor}`"
        );
        assert_eq!(
            report.ledger.total(),
            ref_report.ledger.total(),
            "{tag}: round totals differ after resume from `{cursor}`"
        );
        assert_eq!(
            report.recovery, ref_report.recovery,
            "{tag}: recovery stats differ after resume from `{cursor}`"
        );
        let mut stitched = normalize(&partial_events);
        stitched.extend(normalize(&resumed_events));
        assert_eq!(
            stitched,
            normalize(&ref_events),
            "{tag}: stitched telemetry differs from uninterrupted run at `{cursor}`"
        );
    }
}

#[test]
fn randomized_kill_and_resume_is_bit_identical_at_every_boundary() {
    let inst = circulant(80, 500);
    for threads in [1, 4] {
        let config = shattering_config(1, threads);
        assert_rand_resume_identical(&inst.graph, &config, None, &format!("clean-t{threads}"));
    }
}

#[test]
fn faulted_kill_and_resume_is_bit_identical_at_every_boundary() {
    let inst = circulant(80, 501);
    let plan = FaultPlan {
        seed: 0xFA17,
        message_drop_p: 0.01,
        ..FaultPlan::default()
    };
    for threads in [1, 4] {
        let config = shattering_config(5, threads);
        assert_rand_resume_identical(
            &inst.graph,
            &config,
            Some(&plan),
            &format!("faulted-t{threads}"),
        );
    }
}

#[test]
fn deterministic_kill_and_resume_is_bit_identical_at_every_boundary() {
    let inst = circulant(80, 500);
    for threads in [1, 4] {
        let mut config = Config::for_delta(16);
        config.threads = threads;
        let tag = format!("det-t{threads}");

        let ref_dir = TempDir::new(&format!("{tag}-ref"));
        let (outcome, ref_events) =
            supervised_det(&inst.graph, &config, &checkpointing(&ref_dir), None);
        let RunOutcome::Complete {
            report: ref_report, ..
        } = outcome
        else {
            panic!("{tag}: uninterrupted run must complete");
        };
        verify_delta_coloring(&inst.graph, &ref_report.coloring).unwrap();

        for cursor in DET_BOUNDARIES {
            let dir = TempDir::new(&format!("{tag}-{}", cursor.slug()));
            let stopper = Supervisor {
                stop_after: Some(cursor),
                ..checkpointing(&dir)
            };
            let (outcome, partial_events) = supervised_det(&inst.graph, &config, &stopper, None);
            let RunOutcome::Suspended { snapshot, .. } = outcome else {
                panic!(
                    "{tag}: expected suspension at `{cursor}` (instance must have hard cliques)"
                );
            };
            let snap = load_snapshot(&snapshot).unwrap();
            let (outcome, resumed_events) =
                supervised_det(&inst.graph, &config, &checkpointing(&dir), Some(snap));
            let RunOutcome::Complete { report, .. } = outcome else {
                panic!("{tag}: resumed run from `{cursor}` must complete");
            };
            assert_eq!(
                report.coloring, ref_report.coloring,
                "{tag}: colors differ after resume from `{cursor}`"
            );
            assert_eq!(report.ledger.total(), ref_report.ledger.total());
            let mut stitched = normalize(&partial_events);
            stitched.extend(normalize(&resumed_events));
            assert_eq!(
                stitched,
                normalize(&ref_events),
                "{tag}: stitched telemetry differs from uninterrupted run at `{cursor}`"
            );
        }
    }
}

#[test]
fn resume_rejects_a_mismatched_graph() {
    let a = circulant(80, 500);
    let b = circulant(80, 777);
    let config = shattering_config(1, 1);
    let dir = TempDir::new("digest-mismatch");
    let stopper = Supervisor {
        stop_after: Some(PhaseCursor::Classification),
        ..checkpointing(&dir)
    };
    let (outcome, _) = supervised_rand(&a.graph, &config, None, &stopper, None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("expected suspension");
    };
    let snap = load_snapshot(&snapshot).unwrap();
    let err = drive_randomized(
        &b.graph,
        &config,
        None,
        &Probe::disabled(),
        &Supervisor::passive(),
        Some(snap),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("digest"),
        "error must name the digest mismatch, got: {msg}"
    );
}

#[test]
fn injected_panic_degrades_to_brooks_and_completes() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 2);
    let sup = Supervisor {
        degrade: true,
        chaos: ChaosPlan {
            panic_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let (outcome, events) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Complete { report, degraded } = outcome else {
        panic!("contained panic must not abort the run");
    };
    assert_eq!(degraded.len(), 1, "exactly the panicked component degrades");
    assert_eq!(degraded[0].index, 0);
    assert!(
        degraded[0].reason.contains("panic"),
        "reason must record the panic, got: {}",
        degraded[0].reason
    );
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    assert!(
        delta_core::validate_coloring(&inst.graph, &report.coloring, 16).is_ok(),
        "degraded run must still produce a valid Δ-coloring"
    );
    let degraded_events: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Degraded { .. }))
        .collect();
    assert_eq!(
        degraded_events.len(),
        1,
        "one Degraded telemetry event per quarantined component"
    );
}

/// A contained component panic must flush the trace sink: a JSONL trace
/// buffered behind a large `BufWriter` reaches the backing store at the
/// containment point, not only when the sink is eventually dropped — so
/// a run that dies right after still leaves its trace on disk.
#[test]
fn contained_panic_flushes_buffered_trace() {
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let inst = circulant(80, 500);
    let config = shattering_config(1, 2);
    let sup = Supervisor {
        degrade: true,
        chaos: ChaosPlan {
            panic_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let buf = SharedBuf::default();
    // 4 MiB of buffering: far more than this run emits, so no line can
    // reach the shared buffer through capacity spill — only via flush.
    let sink = Arc::new(JsonlSink::new(std::io::BufWriter::with_capacity(
        1 << 22,
        buf.clone(),
    )));
    let hub = Arc::new(MetricsHub::new());
    let probe = Probe::new(sink.clone()).with_metrics(hub.clone());
    let outcome = drive_randomized(&inst.graph, &config, None, &probe, &sup, None).unwrap();
    assert!(
        matches!(outcome, RunOutcome::Complete { .. }),
        "contained panic must not abort the run"
    );
    // The sink (and its BufWriter) is still alive — nothing was dropped.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(
        !text.is_empty(),
        "containment must flush buffered trace lines while the sink is alive"
    );
    for line in text.lines() {
        let _: Event = serde::json::from_str(line)
            .unwrap_or_else(|e| panic!("flushed line must parse as an event: {e}\n{line}"));
    }
    assert!(
        text.contains("pre-shattering"),
        "the flushed prefix must cover the phases before the panic"
    );
    assert_eq!(
        hub.counter("supervisor.contained_panics").get(),
        1,
        "the containment path records the panic in the metrics hub"
    );
}

#[test]
fn round_budget_exhaustion_degrades_every_component() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let sup = Supervisor {
        degrade: true,
        component_round_budget: Some(0),
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Complete { report, degraded } = outcome else {
        panic!("budget degradation must not abort the run");
    };
    assert_eq!(
        degraded.len(),
        report.shatter.components,
        "a zero round budget quarantines every leftover component"
    );
    assert!(
        !degraded.is_empty(),
        "instance must have leftover components"
    );
    assert!(degraded
        .iter()
        .all(|d| d.reason.contains("round budget exceeded")));
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
}

#[test]
fn budget_overrun_without_degradation_is_an_error() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let sup = Supervisor {
        component_round_budget: Some(0),
        ..Supervisor::passive()
    };
    let err =
        drive_randomized(&inst.graph, &config, None, &Probe::disabled(), &sup, None).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("degradation disabled"),
        "error must say degradation was disabled, got: {msg}"
    );
}

#[test]
fn skipped_component_captures_a_bundle_and_replay_reproduces_it() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let dir = TempDir::new("skip-bundle");
    let sup = Supervisor {
        bundle_dir: Some(dir.path().to_path_buf()),
        chaos: ChaosPlan {
            skip_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Failed(failure) = outcome else {
        panic!("a silently skipped component must fail the completeness check");
    };
    assert!(
        !failure.violations.is_empty(),
        "the failure must record concrete violations"
    );
    let bundle = failure
        .bundle
        .expect("bundle_dir was set, bundle must save");

    let replay = replay_bundle(&bundle, &Probe::disabled()).unwrap();
    assert!(replay.reproduced, "replaying the bundle must reproduce");
    assert_eq!(replay.recorded_error, failure.error);
    assert_eq!(replay.observed_violations, failure.violations);
}

fn golden_bundle_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("golden-bundle.json")
}

/// The committed golden bundle (generated by `regenerate_golden_bundle`
/// below) must keep reproducing its recorded validation failure — this
/// pins the bundle schema and the replay determinism across refactors.
#[test]
fn golden_bundle_replay_reproduces_the_recorded_failure() {
    let replay = replay_bundle(&golden_bundle_path(), &Probe::disabled()).unwrap();
    assert!(
        !replay.recorded_violations.is_empty(),
        "golden bundle must carry a recorded violation list"
    );
    assert!(
        replay.reproduced,
        "golden bundle no longer reproduces: recorded `{}` vs observed `{:?}`",
        replay.recorded_error, replay.observed_error
    );
}

/// Regenerates `tests/data/golden-bundle.json`. Run with:
/// `cargo test -p delta-core --test supervisor regenerate_golden_bundle -- --ignored`
#[test]
#[ignore = "writes the committed golden bundle; run manually after schema changes"]
fn regenerate_golden_bundle() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let data_dir = golden_bundle_path().parent().unwrap().to_path_buf();
    std::fs::create_dir_all(&data_dir).unwrap();
    let sup = Supervisor {
        bundle_dir: Some(data_dir.clone()),
        chaos: ChaosPlan {
            skip_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Failed(failure) = outcome else {
        panic!("skip chaos must fail");
    };
    let written = failure.bundle.unwrap();
    std::fs::rename(&written, golden_bundle_path()).unwrap();
}

/// Suspends `g` at the classification boundary of both pipelines and
/// returns the two snapshots (deterministic, randomized).
fn classification_snapshots(
    g: &Graph,
    det: &Config,
    rand: &RandConfig,
    faults: Option<&FaultPlan>,
    tag: &str,
) -> (delta_core::Snapshot, delta_core::Snapshot, [TempDir; 2]) {
    let det_dir = TempDir::new(&format!("{tag}-det"));
    let rand_dir = TempDir::new(&format!("{tag}-rand"));
    let stop = |dir: &TempDir| Supervisor {
        stop_after: Some(PhaseCursor::Classification),
        ..checkpointing(dir)
    };
    let (outcome, _) = supervised_det(g, det, &stop(&det_dir), None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("{tag}: deterministic run must suspend");
    };
    let det_snap = load_snapshot(&snapshot).unwrap();
    let (outcome, _) = supervised_rand(g, rand, faults, &stop(&rand_dir), None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("{tag}: randomized run must suspend");
    };
    let rand_snap = load_snapshot(&snapshot).unwrap();
    (det_snap, rand_snap, [det_dir, rand_dir])
}

/// Every snapshot a driver cannot continue is refused with a supervisor
/// error naming the cause — on both drivers.
#[test]
fn resume_rejection_matrix_covers_both_drivers() {
    let inst = circulant(40, 502);
    let det = Config::for_delta(16);
    let rand = shattering_config(1, 1);
    let plan = FaultPlan {
        seed: 0xFA17,
        message_drop_p: 0.01,
        ..FaultPlan::default()
    };
    let (det_snap, rand_snap, _dirs) =
        classification_snapshots(&inst.graph, &det, &rand, Some(&plan), "reject");

    let resume_det = |config: &Config, snap: &delta_core::Snapshot| {
        drive_deterministic(
            &inst.graph,
            config,
            &Probe::disabled(),
            &Supervisor::passive(),
            Some(snap.clone()),
        )
        .map(|_| ())
    };
    let resume_rand =
        |config: &RandConfig, faults: Option<&FaultPlan>, snap: &delta_core::Snapshot| {
            drive_randomized(
                &inst.graph,
                config,
                faults,
                &Probe::disabled(),
                &Supervisor::passive(),
                Some(snap.clone()),
            )
            .map(|_| ())
        };

    let mut other_det = det;
    other_det.subcliques += 1;
    let mut other_rand = rand;
    other_rand.seed += 1;
    let other_plan = FaultPlan {
        message_drop_p: 0.02,
        ..plan.clone()
    };
    let mut det_cleared = det_snap.clone();
    det_cleared.det = None;
    let mut rand_cleared = rand_snap.clone();
    rand_cleared.rand = None;

    let cases = [
        (
            "det <- rand snapshot",
            resume_det(&det, &rand_snap),
            "pipeline",
        ),
        (
            "rand <- det snapshot",
            resume_rand(&rand, Some(&plan), &det_snap),
            "pipeline",
        ),
        (
            "det config",
            resume_det(&other_det, &det_snap),
            "configuration",
        ),
        (
            "rand config",
            resume_rand(&other_rand, Some(&plan), &rand_snap),
            "configuration",
        ),
        (
            "rand fault plan",
            resume_rand(&rand, Some(&other_plan), &rand_snap),
            "fault plan",
        ),
        (
            "rand without fault plan",
            resume_rand(&rand, None, &rand_snap),
            "fault plan",
        ),
        (
            "det state cleared",
            resume_det(&det, &det_cleared),
            "missing its pipeline state",
        ),
        (
            "rand state cleared",
            resume_rand(&rand, Some(&plan), &rand_cleared),
            "missing its pipeline state",
        ),
    ];
    for (case, result, cause) in cases {
        match result {
            Err(delta_core::DeltaColoringError::Supervisor(msg)) => assert!(
                msg.contains(cause),
                "{case}: error must name `{cause}`, got: {msg}"
            ),
            other => panic!("{case}: expected a supervisor error, got {other:?}"),
        }
    }
    // The untouched snapshots still resume: the matrix rejects causes,
    // not snapshots.
    resume_det(&det, &det_snap).unwrap();
    resume_rand(&rand, Some(&plan), &rand_snap).unwrap();
}

/// A deterministic run error is captured like a randomized one: the
/// driver returns `Failed` with a bundle, and the bundle replays.
#[test]
fn deterministic_failure_captures_a_bundle_and_replay_reproduces_it() {
    let g = generators::complete(9);
    let dir = TempDir::new("det-bundle");
    let sup = Supervisor {
        bundle_dir: Some(dir.path().to_path_buf()),
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_det(&g, &Config::for_delta(8), &sup, None);
    let RunOutcome::Failed(failure) = outcome else {
        panic!("K9 has no 8-coloring; the run must fail");
    };
    let bundle = failure
        .bundle
        .expect("bundle_dir was set, bundle must save");
    let replay = replay_bundle(&bundle, &Probe::disabled()).unwrap();
    assert!(replay.reproduced, "replaying the bundle must reproduce");
    assert_eq!(replay.recorded_error, failure.error);
    assert_eq!(replay.observed_violations, failure.violations);
}

/// `stop_after` must name a boundary the run passes. Each driver rejects
/// the other pipeline's phases up front, and so does the large-Δ branch,
/// which passes none; the error lists the boundaries the run does pass.
#[test]
fn stop_after_a_phase_the_run_never_passes_is_rejected() {
    let inst = circulant(40, 502);
    let dir = TempDir::new("stop-never");
    let stop_at = |cursor| Supervisor {
        stop_after: Some(cursor),
        ..checkpointing(&dir)
    };
    let probe = Probe::disabled();
    let rand = shattering_config(1, 1);
    let mut large = rand;
    large.large_delta_threshold = Some(4);
    let cases = [
        (
            "det at a randomized phase",
            drive_deterministic(
                &inst.graph,
                &Config::for_delta(16),
                &probe,
                &stop_at(PhaseCursor::PreShattering),
                None,
            )
            .map(|_| ()),
            "acd, classification, phase1, phase2, phase3, phase4",
        ),
        (
            "rand at a deterministic phase",
            drive_randomized(
                &inst.graph,
                &rand,
                None,
                &probe,
                &stop_at(PhaseCursor::Phase2),
                None,
            )
            .map(|_| ()),
            "acd, classification, pre-shattering, post-shattering, post-processing",
        ),
        (
            "large-Δ branch",
            drive_randomized(
                &inst.graph,
                &large,
                None,
                &probe,
                &stop_at(PhaseCursor::Acd),
                None,
            )
            .map(|_| ()),
            "none",
        ),
    ];
    for (case, result, listed) in cases {
        match result {
            Err(delta_core::DeltaColoringError::Supervisor(msg)) => assert!(
                msg.contains("not a boundary") && msg.ends_with(listed),
                "{case}: error must list the run's boundaries `{listed}`, got: {msg}"
            ),
            other => panic!("{case}: expected a supervisor error, got {other:?}"),
        }
    }
    assert!(
        std::fs::read_dir(dir.path()).unwrap().next().is_none(),
        "a rejected stop-after must fail before the first checkpoint"
    );
}
