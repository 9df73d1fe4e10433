//! The measured side of the paper-scale benchmark. `run.py` drives it.
//!
//! Every subcommand is its own process. The executor thread count is a
//! process-wide `OnceLock` (`localsim::set_default_threads`), and
//! `VmHWM` is a per-process high-water mark, so one process per timed
//! repetition gives each repetition its own thread count and its own
//! peak RSS, untouched by the input generator.
//!
//! ```text
//! perfbench gen --cliques C --delta D --blueprint random|circulant --seed G --out FILE
//! perfbench rep --kind det|rand|shard --threads T --seed S --graph FILE --trace 0|1
//!     [--placement-prob P --defer-radius R]     (required with --kind rand)
//! ```
//!
//! `rep` prints one JSON object: `ok`, `error`, the end-to-end figures,
//! the output digest and, with `--trace 1`, a `layers` object of
//! per-layer figures. A named error or a panic still prints the object
//! (`ok: false`), so `run.py` can count it as a failed run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use acd::compute_acd;
use delta_core::{
    balanced_matching, classify_cliques, color_deterministic, color_easy_and_loopholes,
    color_hard_cliques_phase4, color_randomized_probed, detect_loopholes, form_slack_triads,
    run_wire_coloring, sparsify_matching, Config, DeltaColoringError, DistributedConfig,
    DistributedError, RandConfig, Supervisor, WireTraffic,
};
use graphgen::coloring::verify_delta_coloring;
use graphgen::generators::{hard_cliques_with_blueprint, BlueprintKind, HardCliqueParams};
use graphgen::{io, Color, Coloring, Graph};
use localsim::{
    set_default_threads, Event, MetricsHub, Probe, RecordingSink, RoundLedger, WireAlgo,
    WorkerBackend, EXEC_SCOPE,
};
use primitives::ruling::RulingStyle;

/// Worker shards of the sharded workload.
const SHARDS: usize = 2;

type BoxError = Box<dyn std::error::Error>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("rep") => rep(&args[1..]),
        _ => Err("usage: perfbench gen ... | perfbench rep ... (see the module docs)".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn arg<'a>(args: &'a [String], key: &str) -> Result<&'a str, BoxError> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument {key}").into())
}

fn num<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, BoxError>
where
    T::Err: std::fmt::Display,
{
    let raw = arg(args, key)?;
    raw.parse()
        .map_err(|e| format!("invalid {key} value `{raw}`: {e}").into())
}

/// Writes the hard-clique instance as an edge list, through a temporary
/// file so an interrupted run never leaves a truncated input behind.
fn gen(args: &[String]) -> Result<(), BoxError> {
    let blueprint = match arg(args, "--blueprint")? {
        "random" => BlueprintKind::Random,
        "circulant" => BlueprintKind::Circulant,
        other => return Err(format!("unknown blueprint `{other}`").into()),
    };
    let params = HardCliqueParams {
        cliques: num(args, "--cliques")?,
        delta: num(args, "--delta")?,
        external_per_vertex: 1,
        seed: num(args, "--seed")?,
    };
    let inst = hard_cliques_with_blueprint(&params, blueprint)?;
    let out = arg(args, "--out")?;
    let tmp = format!("{out}.tmp");
    std::fs::write(&tmp, io::write_edge_list(&inst.graph))?;
    std::fs::rename(&tmp, out)?;
    println!("{{\"n\": {}, \"m\": {}}}", inst.graph.n(), inst.graph.m());
    Ok(())
}

/// One repetition's figures, printed as a flat JSON object.
#[derive(Default)]
struct Rep {
    solve_s: f64,
    cpu_s: f64,
    rounds: u64,
    digest: u64,
    wire_bytes: u64,
    layers: BTreeMap<&'static str, f64>,
}

fn rep(args: &[String]) -> Result<(), BoxError> {
    let kind = arg(args, "--kind")?.to_string();
    let threads: usize = num(args, "--threads")?;
    let seed: u64 = num(args, "--seed")?;
    let trace = arg(args, "--trace")? == "1";
    let path = arg(args, "--graph")?.to_string();
    // Read before the timed call, so a usage error is not a failed run.
    let (placement_prob, defer_radius) = if kind == "rand" {
        (num(args, "--placement-prob")?, num(args, "--defer-radius")?)
    } else {
        (0.0, 0)
    };
    // Before any executor reads the default (see the module docs).
    set_default_threads(threads);

    let started = Instant::now();
    let g = io::read_edge_list(&path)?;
    let setup_s = started.elapsed().as_secs_f64();

    // A panic is a failed run like a named error: report it, do not die
    // without output.
    let attempt = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match kind.as_str() {
        "det" if trace => det_layered(&g),
        "det" => det(&g),
        "rand" => rand(&g, seed, placement_prob, defer_radius, trace),
        "shard" => shard(&g, seed, trace),
        other => Err(format!("unknown kind `{other}`").into()),
    }));
    let outcome = match outcome {
        Ok(r) => r,
        Err(payload) => Err(format!("panic: {}", panic_text(payload.as_ref())).into()),
    };
    let attempt_s = attempt.elapsed().as_secs_f64();
    let peak = peak_rss_mb()?;
    let mut out = String::from("{");
    match outcome {
        Ok(r) => {
            let _ = write!(
                out,
                "\"ok\": true, \"error\": null, \"setup_s\": {setup_s}, \"solve_s\": {}, \
                 \"cpu_s\": {}, \"peak_rss_mb\": {peak}, \"rounds\": {}, \
                 \"digest\": \"{:016x}\", \"wire_bytes\": {}, \"layers\": {{",
                r.solve_s, r.cpu_s, r.rounds, r.digest, r.wire_bytes
            );
            let fields: Vec<String> = r
                .layers
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            out.push_str(&fields.join(", "));
            out.push('}');
        }
        Err(e) => {
            let _ = write!(
                out,
                "\"ok\": false, \"error\": \"{}\", \"setup_s\": {setup_s}, \
                 \"solve_s\": {attempt_s}, \"peak_rss_mb\": {peak}",
                json_escape(&e.to_string())
            );
        }
    }
    out.push('}');
    println!("{out}");
    Ok(())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat` fields 14 and 15, in clock ticks of 10 ms.
fn cpu_seconds() -> Result<f64, BoxError> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, BoxError> {
        Ok(fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<f64>()?)
    };
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// FNV-1a over 64-bit words: a digest of a run's outputs, compared
/// against the reference run of the same seed.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn coloring_digest(c: &Coloring) -> u64 {
    fn word(c: Option<Color>) -> u64 {
        c.map_or(u64::MAX, |c| u64::from(c.0))
    }
    fnv1a((0..c.len()).map(|v| word(c.get(graphgen::NodeId(v as u32)))))
}

/// Marks a check of the program's output that failed: `run.py` counts it
/// as a wrong output, not only as a failed run.
fn invalid(e: impl std::fmt::Display) -> BoxError {
    format!("invalid output: {e}").into()
}

/// Times `f` as one solve: wall clock and process CPU.
fn timed_solve<T>(f: impl FnOnce() -> Result<T, BoxError>) -> Result<(T, f64, f64), BoxError> {
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let out = f()?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((out, wall, cpu_seconds()? - cpu0))
}

/// The deterministic pipeline exactly as `delta-color color` runs it.
fn det(g: &Graph) -> Result<Rep, BoxError> {
    let config = Config::for_delta(g.max_degree());
    let (report, solve_s, cpu_s) = timed_solve(|| {
        let report = color_deterministic(g, &config)?;
        verify_delta_coloring(g, &report.coloring).map_err(invalid)?;
        Ok(report)
    })?;
    Ok(Rep {
        solve_s,
        cpu_s,
        rounds: report.rounds(),
        digest: coloring_digest(&report.coloring),
        ..Rep::default()
    })
}

/// Times `f` into `layers[key]`.
fn layer<T>(
    layers: &mut BTreeMap<&'static str, f64>,
    key: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = f();
    *layers.entry(key).or_default() += t0.elapsed().as_secs_f64();
    out
}

/// The deterministic pipeline, called layer by layer in the order and
/// with the ledger charges of `color_deterministic`, each call timed.
/// `run.py` checks that its coloring and ledger total equal the
/// reference `color_deterministic` run of the same seed, so the per-layer
/// figures describe the pipeline the end-to-end run measures.
fn det_layered(g: &Graph) -> Result<Rep, BoxError> {
    let config = Config::for_delta(g.max_degree());
    let hub = Arc::new(MetricsHub::new());
    let sink = Arc::new(RecordingSink::new());
    let probe = Probe::new(sink.clone()).with_metrics(hub.clone());
    let mut l = BTreeMap::new();
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();

    let mut ledger = RoundLedger::with_probe(probe);
    let mut coloring = Coloring::empty(g.n());
    let acd = layer(&mut l, "acd.wall_s", || compute_acd(g, &config.acd));
    ledger.charge_constant("acd computation", acd.rounds);
    l.insert("acd.rounds", acd.rounds as f64);
    if !acd.is_dense() {
        return Err(DeltaColoringError::NotDense {
            sparse: acd.sparse.len(),
        }
        .into());
    }
    let loopholes = layer(&mut l, "loophole.wall_s", || {
        detect_loopholes(g, &acd.clique_of)
    });
    ledger.charge_constant("loophole detection", loopholes.rounds);
    l.insert("loophole.vertices", loopholes.count() as f64);
    let cls = layer(&mut l, "classify.wall_s", || {
        classify_cliques(g, &acd, &loopholes)
    })?;
    ledger.charge_constant("hard/easy classification", cls.rounds);

    if !cls.hard_ids.is_empty() {
        let before = ledger.total();
        let f2 = layer(&mut l, "phase1.wall_s", || {
            balanced_matching(
                g,
                &acd,
                &cls,
                config.subcliques,
                config.matching,
                config.heg,
                false,
                &mut ledger,
            )
        })?;
        l.insert("phase1.rounds", (ledger.total() - before) as f64);
        let before = ledger.total();
        let f3 = layer(&mut l, "phase2.wall_s", || {
            sparsify_matching(
                g,
                &acd,
                &cls,
                &f2,
                config.acd.eps,
                config.split_segment,
                &mut ledger,
            )
        })?;
        l.insert("phase2.rounds", (ledger.total() - before) as f64);
        let triads = layer(&mut l, "phase3.wall_s", || {
            form_slack_triads(g, &acd, &f3, &mut ledger)
        })?;
        let pair_palette: Vec<Color> = (0..g.max_degree() as u32).map(Color).collect();
        let before = ledger.total();
        layer(&mut l, "phase4.wall_s", || {
            color_hard_cliques_phase4(
                g,
                &acd,
                &cls,
                &triads,
                &pair_palette,
                &mut coloring,
                config.enforce_paper_bounds,
                &mut ledger,
            )
        })?;
        l.insert("phase4.rounds", (ledger.total() - before) as f64);
    }
    layer(&mut l, "easy.wall_s", || {
        color_easy_and_loopholes(
            g,
            &loopholes,
            config.ruling_r,
            RulingStyle::Deterministic,
            config.threads,
            &mut coloring,
            &mut ledger,
        )
    })?;
    layer(&mut l, "validate.wall_s", || {
        verify_delta_coloring(g, &coloring).map_err(invalid)
    })?;
    let solve_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;

    exec_and_pool_layers(&sink.events(), &hub, &mut l);
    l.insert("traced.solve_s", solve_s);
    Ok(Rep {
        solve_s,
        cpu_s,
        rounds: ledger.total(),
        digest: coloring_digest(&coloring),
        layers: l,
        ..Rep::default()
    })
}

/// The randomized pipeline. Its phases after classification are crate
/// private, so the traced run reads their durations from the
/// `pipeline/*` spans the program emits.
fn rand(
    g: &Graph,
    seed: u64,
    placement_prob: f64,
    defer_radius: usize,
    trace: bool,
) -> Result<Rep, BoxError> {
    let config = RandConfig {
        placement_prob,
        defer_radius,
        ..RandConfig::for_delta(g.max_degree(), seed)
    };
    let hub = Arc::new(MetricsHub::new());
    let sink = Arc::new(RecordingSink::new());
    let probe = if trace {
        Probe::new(sink.clone()).with_metrics(hub.clone())
    } else {
        Probe::disabled()
    };
    let mut l = BTreeMap::new();
    let ((report, validate_s), solve_s, cpu_s) = timed_solve(|| {
        let report = color_randomized_probed(g, &config, &probe)?;
        let t = Instant::now();
        verify_delta_coloring(g, &report.coloring).map_err(invalid)?;
        Ok((report, t.elapsed().as_secs_f64()))
    })?;
    if trace {
        let events = sink.events();
        for (path, key, rounds_key) in [
            ("pipeline/acd", "acd.wall_s", Some("acd.rounds")),
            ("pipeline/classification", "classify.wall_s", None),
            (
                "pipeline/phase1 balanced matching",
                "phase1.wall_s",
                Some("phase1.rounds"),
            ),
            (
                "pipeline/phase2 sparsify matching",
                "phase2.wall_s",
                Some("phase2.rounds"),
            ),
            ("pipeline/phase3 slack triads", "phase3.wall_s", None),
            (
                "pipeline/phase4 coloring",
                "phase4.wall_s",
                Some("phase4.rounds"),
            ),
            ("pipeline/pre-shattering", "rand.preshatter_s", None),
            ("pipeline/post-shattering", "rand.postshatter_s", None),
            ("pipeline/post-processing", "rand.postprocess_s", None),
            ("pipeline/easy sweep", "easy.wall_s", None),
        ] {
            let (wall_ns, rounds) = span_totals(&events, path);
            l.insert(key, wall_ns as f64 / 1e9);
            if let Some(rk) = rounds_key {
                l.insert(rk, rounds as f64);
            }
        }
        l.insert("rand.components", report.shatter.components as f64);
        l.insert("rand.max_component", report.shatter.max_component as f64);
        l.insert("validate.wall_s", validate_s);
        l.insert("traced.solve_s", solve_s);
        exec_and_pool_layers(&events, &hub, &mut l);
    }
    Ok(Rep {
        solve_s,
        cpu_s,
        rounds: report.rounds(),
        digest: coloring_digest(&report.coloring),
        layers: l,
        ..Rep::default()
    })
}

/// Sum of `wall_ns` and `rounds` over every `SpanExit` at `path`
/// (leftover components each open their own phase spans).
fn span_totals(events: &[Event], path: &str) -> (u64, u64) {
    events.iter().fold((0, 0), |(w, r), e| match e {
        Event::SpanExit {
            path: p,
            wall_ns,
            rounds,
            ..
        } if p == path => (w + wall_ns, r + rounds),
        _ => (w, r),
    })
}

/// `exec.*` from the executor's `Round` events and the hub, `pool.*`
/// from the hub's worker lanes.
fn exec_and_pool_layers(events: &[Event], hub: &MetricsHub, l: &mut BTreeMap<&'static str, f64>) {
    let (mut live, mut halted, mut reads, mut rounds) = (0i64, 0i64, 0i64, 0u64);
    for e in events {
        if let Event::Round {
            scope, counters, ..
        } = e
        {
            if scope != EXEC_SCOPE {
                continue;
            }
            rounds += 1;
            for (name, v) in counters {
                match name.as_str() {
                    "live_nodes" => live += v,
                    "halted" => halted += v,
                    "messages_sent" => reads += v,
                    _ => {}
                }
            }
        }
    }
    let round_ns = hub.histogram("exec.round_ns");
    l.insert("exec.rounds", rounds as f64);
    l.insert("exec.node_steps", live as f64);
    l.insert("exec.state_reads", reads as f64);
    l.insert("exec.halts_per_step", ratio(halted as f64, live as f64));
    l.insert(
        "exec.round_mean_ms",
        ratio(round_ns.sum() as f64, round_ns.count() as f64) / 1e6,
    );

    let lanes = hub.worker_lanes();
    let sum = |f: fn(&localsim::WorkerLaneSnapshot) -> u64| lanes.iter().map(f).sum::<u64>() as f64;
    let (busy, idle, merge) = (sum(|w| w.busy_ns), sum(|w| w.idle_ns), sum(|w| w.merge_ns));
    l.insert("pool.busy_s", busy / 1e9);
    l.insert("pool.idle_s", idle / 1e9);
    l.insert("pool.merge_s", merge / 1e9);
    l.insert("pool.units", sum(|w| w.units));
    l.insert("pool.steals", sum(|w| w.steals));
    l.insert("pool.busy_share", ratio(busy, busy + idle + merge));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `rand:<seed>` then `greedy` over 2 thread-backed shards speaking TCP
/// over loopback, each checked against the single-process reference
/// executor (`shards = 0`), which runs before the timer starts.
fn shard(g: &Graph, seed: u64, trace: bool) -> Result<Rep, BoxError> {
    let algos = [WireAlgo::Rand { seed }, WireAlgo::Greedy];
    let sup = Supervisor::passive();
    let mut reference = Vec::new();
    for algo in algos {
        let cfg = DistributedConfig {
            shards: 0,
            ..DistributedConfig::for_algo(algo)
        };
        reference.push(run_wire_coloring(g, &cfg, &sup, Probe::disabled())?);
    }

    // The hub is attached with tracing off too: `WireTraffic` is read
    // from it. The traced run adds the event sink.
    let hubs = [Arc::new(MetricsHub::new()), Arc::new(MetricsHub::new())];
    let sink = Arc::new(RecordingSink::new());
    let (runs, solve_s, cpu_s) = timed_solve(|| {
        let mut runs = Vec::new();
        for (algo, hub) in algos.into_iter().zip(&hubs) {
            let cfg = DistributedConfig {
                shards: SHARDS,
                backend: WorkerBackend::Threads,
                ..DistributedConfig::for_algo(algo)
            };
            let probe = if trace {
                Probe::new(sink.clone())
            } else {
                Probe::disabled()
            };
            let run = run_wire_coloring(g, &cfg, &sup, probe.with_metrics(hub.clone()));
            runs.push(run.map_err(|e| match e {
                DistributedError::InvalidColoring(_) => invalid(e),
                e => e.into(),
            })?);
        }
        Ok(runs)
    })?;
    for ((run, refr), algo) in runs.iter().zip(&reference).zip(algos) {
        if run.outputs != refr.outputs || run.rounds != refr.rounds {
            return Err(invalid(format!(
                "{algo:?}: sharded run differs from the single-process reference \
                 ({} vs {} rounds)",
                run.rounds, refr.rounds
            )));
        }
    }
    let traffic: Vec<WireTraffic> = runs
        .iter()
        .map(|r| r.traffic.ok_or("sharded run reported no wire traffic"))
        .collect::<Result<_, _>>()?;
    let total = |f: fn(&WireTraffic) -> u64| traffic.iter().map(f).sum::<u64>();
    let wire_bytes = total(|t| t.bytes_sent) + total(|t| t.bytes_recv);

    let mut l = BTreeMap::new();
    if trace {
        l.insert("shard.bytes_sent", total(|t| t.bytes_sent) as f64);
        l.insert("shard.bytes_recv", total(|t| t.bytes_recv) as f64);
        l.insert("shard.frames", total(|t| t.frames) as f64);
        l.insert("shard.init_bytes", total(|t| t.init_bytes) as f64);
        l.insert("shard.ghost_updates", total(|t| t.ghost_updates) as f64);
        l.insert(
            "shard.ghost_suppressed",
            total(|t| t.ghost_suppressed) as f64,
        );
        let hist_sum = |name: &str| hubs.iter().map(|h| h.histogram(name).sum()).sum::<u64>();
        let hist_count = |name: &str| hubs.iter().map(|h| h.histogram(name).count()).sum::<u64>();
        l.insert("shard.round_s", hist_sum("shard.round_ns") as f64 / 1e9);
        l.insert(
            "shard.round_mean_ms",
            ratio(
                hist_sum("shard.round_ns") as f64,
                hist_count("shard.round_ns") as f64,
            ) / 1e6,
        );
        l.insert(
            "shard.barrier_wait_s",
            hist_sum("shard.barrier_wait_ns") as f64 / 1e9,
        );
        l.insert("wire_bytes", wire_bytes as f64);
        l.insert("traced.solve_s", solve_s);
        // The sharded runtime records no `exec.round_ns` and uses no
        // component pool, so one hub serves for the rest of `exec.*`.
        exec_and_pool_layers(&sink.events(), &hubs[0], &mut l);
    }
    Ok(Rep {
        solve_s,
        cpu_s,
        rounds: runs.iter().map(|r| r.rounds).sum(),
        digest: fnv1a(runs.iter().flat_map(|r| r.outputs.iter().copied())),
        wire_bytes,
        layers: l,
    })
}
