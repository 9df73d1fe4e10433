//! Cross-crate integration tests: generator → ACD → pipelines → validator.

use delta_coloring::coloring::{
    color_deterministic, color_randomized, Config, DeltaColoringError, HegAlgo, MatchingAlgo,
    RandConfig,
};
use delta_coloring::decomposition::{compute_acd, verify_acd, AcdParams};
use delta_coloring::graphs::coloring::verify_delta_coloring;
use delta_coloring::graphs::generators::{
    self, BlueprintKind, EasyCliqueParams, HardCliqueParams, LoopholeKind, MixedParams,
};
use delta_coloring::reference::brooks_sequential;

fn hard_params(cliques: usize, delta: usize, seed: u64) -> HardCliqueParams {
    HardCliqueParams {
        cliques,
        delta,
        external_per_vertex: 1,
        seed,
    }
}

#[test]
fn end_to_end_det_pipeline_many_seeds() {
    for seed in 0..6 {
        let inst = generators::hard_cliques(&hard_params(34, 16, 100 + seed)).unwrap();
        generators::verify_hard_instance(&inst).unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        verify_acd(&inst.graph, &acd).unwrap();
        assert!(acd.is_dense());
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }
}

#[test]
fn end_to_end_rand_pipeline_many_seeds() {
    let inst = generators::hard_cliques(&hard_params(60, 16, 200)).unwrap();
    for seed in 0..6 {
        let report = color_randomized(&inst.graph, &RandConfig::for_delta(16, seed)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }
}

#[test]
fn det_and_rand_agree_with_brooks_on_solvability() {
    // Everything our pipelines color, the sequential Brooks oracle colors;
    // both agree the instance is Δ-colorable.
    let inst = generators::mixed_dense(&MixedParams {
        base: hard_params(34, 16, 300),
        easy_low_degree: 2,
        easy_four_cycle: 1,
    })
    .unwrap();
    let oracle = brooks_sequential(&inst.graph).unwrap();
    verify_delta_coloring(&inst.graph, &oracle).unwrap();
    let det = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(&inst.graph, &RandConfig::for_delta(16, 3)).unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

#[test]
fn circulant_instances_color_with_both_pipelines() {
    let inst = generators::hard_cliques_with_blueprint(
        &hard_params(80, 16, 400),
        BlueprintKind::Circulant,
    )
    .unwrap();
    let det = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(&inst.graph, &RandConfig::for_delta(16, 5)).unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

#[test]
fn clique_ring_easy_path_colors() {
    let g = generators::clique_ring(24, 16);
    let report = color_deterministic(&g, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&g, &report.coloring).unwrap();
    // Every clique is easy here: the hard machinery is idle.
    assert_eq!(report.stats.hard, 0);
    assert!(report.stats.easy.colored == g.n());
}

#[test]
fn ext2_instances_color() {
    let inst = generators::hard_cliques(&HardCliqueParams {
        cliques: 320,
        delta: 16,
        external_per_vertex: 2,
        seed: 500,
    })
    .unwrap();
    let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
}

#[test]
fn easy_instances_both_loophole_kinds() {
    for kind in [LoopholeKind::LowDegree, LoopholeKind::FourCycle] {
        let inst = generators::easy_cliques(&EasyCliqueParams {
            base: hard_params(34, 16, 600),
            easy: 4,
            kind,
        })
        .unwrap();
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }
}

#[test]
fn paper_parameters_at_paper_scale() {
    // Δ = 64 with ε = 1/63 and K = 28: the regime where the paper's exact
    // constants are proved; enforce them.
    let inst = generators::hard_cliques(&hard_params(128, 64, 700)).unwrap();
    let report = color_deterministic(&inst.graph, &Config::paper()).unwrap();
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    assert!(report.stats.phase1.min_outgoing >= 28, "Lemma 12");
    // Lemma 11's components: the rank bound r_H <= 2εΔ and the per-sub-
    // clique proposal count δ_H >= ⌊(1-ε)Δ/28⌋. (The full δ_H > 1.1·r_H
    // margin needs Δ in the thousands for the paper's constants to close;
    // feasibility — what the pipeline needs — is checked by the HEG solver
    // succeeding at all.)
    let eps = 1.0 / 63.0;
    assert!(
        report.stats.phase1.r_h as f64 <= 2.0 * eps * 64.0 + 1.0,
        "Lemma 11 rank bound"
    );
    assert!(
        report.stats.phase1.delta_h >= ((1.0 - eps) * 64.0 / 28.0).floor() as usize,
        "Lemma 11 proposal count: δ_H = {}",
        report.stats.phase1.delta_h
    );
    assert!(report.stats.phase4.gv_max_degree <= 62, "Lemma 16");
}

#[test]
fn error_paths_are_reported() {
    // Sparse graph.
    let g = generators::random_regular(60, 6, 1);
    assert!(matches!(
        color_deterministic(&g, &Config::for_delta(6)),
        Err(DeltaColoringError::NotDense { .. })
    ));
    // K_{Δ+1}.
    let g = generators::complete(10);
    assert!(matches!(
        color_deterministic(&g, &Config::for_delta(9)),
        Err(DeltaColoringError::ContainsMaxClique)
    ));
}

#[test]
fn alternative_subroutine_matrix() {
    let inst = generators::hard_cliques(&hard_params(34, 16, 800)).unwrap();
    for matching in [MatchingAlgo::DetDirect, MatchingAlgo::Rand(1)] {
        for heg in [
            HegAlgo::Augmenting,
            HegAlgo::TokenWalk(2),
            HegAlgo::Sequential,
        ] {
            let config = Config {
                matching,
                heg,
                ..Config::for_delta(16)
            };
            let report = color_deterministic(&inst.graph, &config).unwrap();
            verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        }
    }
}

#[test]
fn round_ledger_totals_are_consistent() {
    let inst = generators::hard_cliques(&hard_params(34, 16, 900)).unwrap();
    let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    let total: u64 = report.ledger.entries().iter().map(|e| e.rounds).sum();
    assert_eq!(total, report.ledger.total());
    assert_eq!(total, report.rounds());
    assert!(report.ledger.total_for("phase1") > 0);
}

/// Scaled-down variant of [`paper_scale_stress`] that runs in the default
/// suite (and CI): same Δ = 64 paper parameters and assertions, 4× fewer
/// cliques (128 is the bipartite blueprint's minimum for Δ = 64) so it
/// finishes in seconds.
#[test]
fn paper_scale_stress_scaled_down() {
    let inst = generators::hard_cliques(&hard_params(128, 64, 7777)).unwrap();
    let det = color_deterministic(&inst.graph, &Config::paper()).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(
        &inst.graph,
        &RandConfig {
            base: Config::paper(),
            ..RandConfig::for_delta(64, 3)
        },
    )
    .unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

/// Paper-scale stress: Δ = 64 with paper parameters through both
/// pipelines. Slow; run with `cargo test -- --ignored`.
#[test]
#[ignore = "paper-scale stress test (~minutes)"]
fn paper_scale_stress() {
    let inst = generators::hard_cliques(&hard_params(512, 64, 7777)).unwrap();
    let det = color_deterministic(&inst.graph, &Config::paper()).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(
        &inst.graph,
        &RandConfig {
            base: Config::paper(),
            ..RandConfig::for_delta(64, 3)
        },
    )
    .unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

/// `color --general` runs the sparse+dense extension, which is neither the
/// randomized pipeline nor supervised: every flag it would silently drop
/// or let override it is a named CLI error.
#[test]
fn general_rejects_flags_it_cannot_honor() {
    use std::process::Command;
    const BIN: &str = env!("CARGO_BIN_EXE_delta-color");
    let dir = std::env::temp_dir().join(format!("general-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.txt");
    let inst = generators::hard_cliques(&hard_params(34, 16, 3)).unwrap();
    std::fs::write(
        &graph,
        delta_coloring::graphs::io::write_edge_list(&inst.graph),
    )
    .unwrap();
    let color = |extra: &[&str]| {
        Command::new(BIN)
            .arg("color")
            .arg(&graph)
            .args(["--general", "5"])
            .args(extra)
            .output()
            .expect("spawn delta-color")
    };

    let ok = color(&[]);
    assert!(
        ok.status.success(),
        "plain --general must color: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let conflicts: [&[&str]; 11] = [
        &["--randomized", "7"],
        &["--faults", "seed=7,drop=0.01"],
        &["--resume", "snapshot.json"],
        &["--checkpoint-dir", ckpt],
        &["--stop-after", "acd"],
        &["--bundle-dir", ckpt],
        &["--degrade"],
        &["--component-round-budget", "10"],
        &["--component-wall-budget-ms", "10"],
        &["--chaos-panic", "0"],
        &["--chaos-skip", "0"],
    ];
    for extra in conflicts {
        let out = color(extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--general {extra:?} must fail");
        assert!(
            stderr.contains(extra[0]),
            "--general {extra:?}: error must name `{}`, got: {stderr}",
            extra[0]
        );
        assert!(
            out.stdout.is_empty(),
            "--general {extra:?} printed a coloring"
        );
    }
    assert!(
        !std::path::Path::new(ckpt).exists(),
        "a rejected run wrote checkpoints"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile input ends in a named error and a nonzero exit, never a panic
/// or an allocator abort: a repro bundle whose stored graph points past
/// its vertex set, and an edge list declaring more vertices than
/// `NodeId` can address.
#[test]
fn hostile_bundles_and_graph_files_fail_without_panicking() {
    use std::process::Command;
    const BIN: &str = env!("CARGO_BIN_EXE_delta-color");
    let dir = std::env::temp_dir().join(format!("hostile-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/core/tests/data/golden-bundle.json");
    let text = std::fs::read_to_string(golden).unwrap();
    let bundle = dir.join("bundle.json");
    let adj_start = text.find("\"adj\":[").expect("bundle stores adj") + "\"adj\":[".len();
    let first_len = text[adj_start..].find([',', ']']).unwrap();
    let mutated = format!(
        "{}1000000{}",
        &text[..adj_start],
        &text[adj_start + first_len..]
    );
    std::fs::write(&bundle, mutated).unwrap();
    let graph = dir.join("huge.txt");
    std::fs::write(&graph, "n 4294967297\n0 1").unwrap();

    for args in [
        vec!["replay", bundle.to_str().unwrap()],
        vec!["color", graph.to_str().unwrap()],
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("invalid graph"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
