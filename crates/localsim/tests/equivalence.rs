//! Equivalence of the two executor levels: the state-exchange
//! [`localsim::Executor`] and the per-port [`localsim::MessageExecutor`]
//! compute the same function when given the same algorithm in both forms —
//! plus the determinism suite pinning the parallel stepping path
//! (`with_threads`) to be bit-identical to the sequential schedule in
//! outputs, round counts, and telemetry event streams.

use std::sync::Arc;

use graphgen::{Graph, GraphBuilder, NodeId};
use localsim::{
    broadcast, CongestExecutor, Event, Executor, FaultKind, FaultPlan, LocalAlgorithm,
    MessageExecutor, MessageProgram, MsgTransition, NodeCtx, Outgoing, Probe, RecordingSink,
    SimError, Transition,
};
use proptest::prelude::*;

/// Flood-max for `t` rounds, state-exchange form.
struct FloodState {
    t: u64,
}

impl LocalAlgorithm for FloodState {
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

/// Flood-max for `t` rounds, per-port message form.
struct FloodMsg {
    t: u64,
}

impl MessageProgram for FloodMsg {
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

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..40).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (a, c) in pairs {
                if a != c {
                    b.add_edge(a, c);
                }
            }
            b.build().expect("builder dedups")
        })
    })
}

/// Staggered halting with halted-state reads: node `v` halts in round
/// `v mod 5 + 1` with the sum of everything it has seen. Sensitive to
/// worklist compaction and to the frozen-state invariant of the
/// double-buffered executor (halted neighbors must stay visible).
struct StaggerSum;

impl LocalAlgorithm for StaggerSum {
    type State = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        ctx.uid + 1
    }

    fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
        let s = state.wrapping_add(nbrs.iter().sum::<u64>());
        if ctx.round > u64::from(ctx.node.0) % 5 {
            Transition::Halt(s)
        } else {
            Transition::Continue(s)
        }
    }
}

/// Message-form analogue of [`StaggerSum`]: keeps sending its running sum
/// until it halts; inboxes go quiet as neighbors halt.
struct StaggerSumMsg;

impl MessageProgram for StaggerSumMsg {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> (u64, Vec<Outgoing<u64>>) {
        (ctx.uid + 1, broadcast(ctx.degree(), &(ctx.uid + 1)))
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut u64,
        inbox: &[Option<u64>],
    ) -> MsgTransition<u64, u64> {
        *state = state.wrapping_add(inbox.iter().flatten().sum::<u64>());
        if ctx.round > u64::from(ctx.node.0) % 5 {
            MsgTransition::HaltAfter(broadcast(ctx.degree(), state), *state)
        } else {
            MsgTransition::Continue(broadcast(ctx.degree(), state))
        }
    }
}

/// Random test graphs of assorted shapes, driven by the in-repo rand shim
/// (via `graphgen::generators`' seeded families).
fn determinism_graphs() -> Vec<Graph> {
    vec![
        graphgen::generators::gnp(57, 0.12, 1),
        graphgen::generators::gnp(80, 0.05, 2),
        graphgen::generators::random_regular(64, 6, 3),
        graphgen::generators::random_tree(45, 4),
        graphgen::generators::complete(12),
        graphgen::generators::path(2),
        Graph::from_edges(5, []).unwrap(), // all-isolated: degenerate worklists
    ]
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

#[test]
fn state_executor_parallel_is_bit_identical() {
    for (i, g) in determinism_graphs().iter().enumerate() {
        let sink = Arc::new(RecordingSink::new());
        let seq = Executor::new(g)
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSum, 100)
            .unwrap();
        let seq_events = sink.events();
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par = Executor::new(g)
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSum, 100)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "graph #{i}, threads={k}");
            assert_eq!(par.rounds, seq.rounds, "graph #{i}, threads={k}");
            assert_eq!(psink.events(), seq_events, "graph #{i}, threads={k}");
        }
    }
}

#[test]
fn message_executor_parallel_is_bit_identical() {
    for (i, g) in determinism_graphs().iter().enumerate() {
        let sink = Arc::new(RecordingSink::new());
        let seq = MessageExecutor::new(g)
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSumMsg, 100)
            .unwrap();
        let seq_events = sink.events();
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par = MessageExecutor::new(g)
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSumMsg, 100)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "graph #{i}, threads={k}");
            assert_eq!(par.rounds, seq.rounds, "graph #{i}, threads={k}");
            assert_eq!(psink.events(), seq_events, "graph #{i}, threads={k}");
        }
    }
}

#[test]
fn congest_executor_parallel_is_bit_identical() {
    let width = |m: &u64| (64 - m.leading_zeros()) as usize;
    for (i, g) in determinism_graphs().iter().enumerate() {
        let sink = Arc::new(RecordingSink::new());
        let seq = CongestExecutor::new(g, 64, width)
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSumMsg, 100)
            .unwrap();
        let seq_events = sink.events();
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par = CongestExecutor::new(g, 64, width)
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSumMsg, 100)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "graph #{i}, threads={k}");
            assert_eq!(par.rounds, seq.rounds, "graph #{i}, threads={k}");
            assert_eq!(par.per_round, seq.per_round, "graph #{i}, threads={k}");
            assert_eq!(par.max_message_bits, seq.max_message_bits);
            assert_eq!(par.total_bits, seq.total_bits);
            assert_eq!(psink.events(), seq_events, "graph #{i}, threads={k}");
        }
    }
}

/// A fault plan that exercises drops and jitter together (no crashes, so
/// runs still complete and outputs are comparable).
fn lossy_plan() -> FaultPlan {
    FaultPlan {
        seed: 5,
        message_drop_p: 0.3,
        round_jitter: 2,
        node_crash: Vec::new(),
    }
}

/// Fault injection is part of the determinism contract: under an active
/// plan (drops + jitter), the state-exchange executor's outputs, rounds,
/// and full event stream — including `Event::Fault` — are bit-identical
/// between the sequential schedule and every thread count.
#[test]
fn faulty_state_executor_parallel_is_bit_identical() {
    for (i, g) in determinism_graphs().iter().enumerate() {
        let sink = Arc::new(RecordingSink::new());
        let seq = Executor::new(g)
            .with_faults(lossy_plan())
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSum, 200)
            .unwrap();
        let seq_events = sink.events();
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par = Executor::new(g)
                .with_faults(lossy_plan())
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSum, 200)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "graph #{i}, threads={k}");
            assert_eq!(par.rounds, seq.rounds, "graph #{i}, threads={k}");
            assert_eq!(psink.events(), seq_events, "graph #{i}, threads={k}");
        }
    }
}

#[test]
fn faulty_message_executor_parallel_is_bit_identical() {
    for (i, g) in determinism_graphs().iter().enumerate() {
        let sink = Arc::new(RecordingSink::new());
        let seq = MessageExecutor::new(g)
            .with_faults(lossy_plan())
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSumMsg, 200)
            .unwrap();
        let seq_events = sink.events();
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par = MessageExecutor::new(g)
                .with_faults(lossy_plan())
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSumMsg, 200)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "graph #{i}, threads={k}");
            assert_eq!(par.rounds, seq.rounds, "graph #{i}, threads={k}");
            assert_eq!(psink.events(), seq_events, "graph #{i}, threads={k}");
        }
    }
}

#[test]
fn faulty_congest_executor_parallel_is_bit_identical() {
    let width = |m: &u64| (64 - m.leading_zeros()) as usize;
    for (i, g) in determinism_graphs().iter().enumerate() {
        let sink = Arc::new(RecordingSink::new());
        let seq = CongestExecutor::new(g, 64, width)
            .with_faults(lossy_plan())
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSumMsg, 200)
            .unwrap();
        let seq_events = sink.events();
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par = CongestExecutor::new(g, 64, width)
                .with_faults(lossy_plan())
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSumMsg, 200)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "graph #{i}, threads={k}");
            assert_eq!(par.rounds, seq.rounds, "graph #{i}, threads={k}");
            assert_eq!(par.per_round, seq.per_round, "graph #{i}, threads={k}");
            assert_eq!(psink.events(), seq_events, "graph #{i}, threads={k}");
        }
    }
}

/// The lossy plan is not vacuous on a dense graph: drops and stalls both
/// actually fire, and the faults change the computed outputs.
#[test]
fn lossy_plan_actually_injects() {
    let g = graphgen::generators::gnp(57, 0.12, 1);
    let sink = Arc::new(RecordingSink::new());
    let faulty = Executor::new(&g)
        .with_faults(lossy_plan())
        .with_probe(Probe::new(sink.clone()))
        .run(&StaggerSum, 200)
        .unwrap();
    let kinds: Vec<FaultKind> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Fault { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert!(kinds.contains(&FaultKind::Drop), "no drops fired");
    assert!(kinds.contains(&FaultKind::Stall), "no stalls fired");
    let clean = Executor::new(&g).run(&StaggerSum, 200).unwrap();
    assert_ne!(faulty.outputs, clean.outputs, "faults had no effect");
}

/// Crashes surface as `SimError::Crashed` plus per-node `Event::Fault`
/// records, identically under every schedule, on both executor levels.
#[test]
fn crash_runs_fail_identically_seq_and_parallel() {
    let g = graphgen::generators::random_regular(64, 6, 3);
    let plan = FaultPlan {
        seed: 11,
        // All three targets are still live at their crash round under
        // StaggerSum's halt rule (node v halts in round v % 5 + 1).
        node_crash: vec![(2, NodeId(3)), (3, NodeId(44)), (2, NodeId(17))],
        ..FaultPlan::default()
    };
    let sink = Arc::new(RecordingSink::new());
    let seq_err = Executor::new(&g)
        .with_faults(plan.clone())
        .with_probe(Probe::new(sink.clone()))
        .run(&StaggerSum, 100)
        .unwrap_err();
    assert!(matches!(seq_err, SimError::Crashed { crashed: 3, .. }));
    let crash_events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Fault { .. }))
        .collect();
    assert_eq!(crash_events.len(), 3);
    // Within a round, crashes are reported in ascending node order.
    assert!(matches!(
        &crash_events[0],
        Event::Fault {
            round: 1,
            kind: FaultKind::Crash,
            node: Some(3),
            count: 1,
            ..
        }
    ));
    assert!(matches!(
        &crash_events[1],
        Event::Fault { node: Some(17), .. }
    ));
    for k in THREAD_COUNTS {
        let psink = Arc::new(RecordingSink::new());
        let par_err = Executor::new(&g)
            .with_faults(plan.clone())
            .with_threads(k)
            .with_probe(Probe::new(psink.clone()))
            .run(&StaggerSum, 100)
            .unwrap_err();
        assert_eq!(par_err, seq_err, "threads={k}");
        assert_eq!(psink.events(), sink.events(), "threads={k}");
    }
    let msink = Arc::new(RecordingSink::new());
    let msg_err = MessageExecutor::new(&g)
        .with_faults(plan.clone())
        .with_probe(Probe::new(msink.clone()))
        .run(&StaggerSumMsg, 100)
        .unwrap_err();
    assert!(matches!(msg_err, SimError::Crashed { crashed: 3, .. }));
    let msg_crashes = msink
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Fault {
                    kind: FaultKind::Crash,
                    ..
                }
            )
        })
        .count();
    assert_eq!(msg_crashes, 3);
    for k in THREAD_COUNTS {
        let psink = Arc::new(RecordingSink::new());
        let par_err = MessageExecutor::new(&g)
            .with_faults(plan.clone())
            .with_threads(k)
            .with_probe(Probe::new(psink.clone()))
            .run(&StaggerSumMsg, 100)
            .unwrap_err();
        assert_eq!(par_err, msg_err, "message executor, threads={k}");
        assert_eq!(
            psink.events(),
            msink.events(),
            "message executor, threads={k}"
        );
    }
}

/// Crashing every node still live empties the round: it is reported with
/// nothing stepped and the run fails with `Crashed`, identically at every
/// width, on both executor levels — with and without message drops, and
/// down to a one-node graph crashed in round 1.
#[test]
fn crashing_every_live_node_fails_identically() {
    let g = graphgen::generators::random_regular(64, 6, 3);
    // Under StaggerSum's halt rule only the nodes v with v % 5 == 4 are
    // still live in round 5; crash all of them there.
    let last: Vec<(u64, NodeId)> = (0..64)
        .filter(|v| v % 5 == 4)
        .map(|v| (5, NodeId(v)))
        .collect();
    let single = Graph::from_edges(1, []).unwrap();
    let cases = [
        (&single, vec![(1, NodeId(0))], 0.0, 1),
        (&g, last.clone(), 0.0, last.len()),
        (&g, last.clone(), 0.3, last.len()),
    ];
    for (graph, node_crash, message_drop_p, crashed) in cases {
        let plan = FaultPlan {
            seed: 5,
            message_drop_p,
            node_crash,
            ..FaultPlan::default()
        };
        let label = format!("n={} drop={message_drop_p}", graph.n());
        let sink = Arc::new(RecordingSink::new());
        let err = Executor::new(graph)
            .with_faults(plan.clone())
            .with_probe(Probe::new(sink.clone()))
            .run(&StaggerSum, 100)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Crashed { crashed: c, .. } if c == crashed),
            "{label}: {err:?}"
        );
        let msink = Arc::new(RecordingSink::new());
        let msg_err = MessageExecutor::new(graph)
            .with_faults(plan.clone())
            .with_probe(Probe::new(msink.clone()))
            .run(&StaggerSumMsg, 100)
            .unwrap_err();
        assert_eq!(msg_err, err, "{label}");
        // The emptied round is still reported, with no node live.
        for events in [sink.events(), msink.events()] {
            let Some(Event::Round { counters, .. }) = events.last() else {
                panic!("{label}: run did not end with a Round event");
            };
            assert_eq!(counters[0], ("live_nodes".into(), 0), "{label}");
        }
        for k in THREAD_COUNTS {
            let psink = Arc::new(RecordingSink::new());
            let par_err = Executor::new(graph)
                .with_faults(plan.clone())
                .with_threads(k)
                .with_probe(Probe::new(psink.clone()))
                .run(&StaggerSum, 100)
                .unwrap_err();
            assert_eq!(par_err, err, "{label} threads={k}");
            assert_eq!(psink.events(), sink.events(), "{label} threads={k}");
            let pmsink = Arc::new(RecordingSink::new());
            let par_msg_err = MessageExecutor::new(graph)
                .with_faults(plan.clone())
                .with_threads(k)
                .with_probe(Probe::new(pmsink.clone()))
                .run(&StaggerSumMsg, 100)
                .unwrap_err();
            assert_eq!(par_msg_err, msg_err, "{label} message executor threads={k}");
            assert_eq!(
                pmsink.events(),
                msink.events(),
                "{label} message executor threads={k}"
            );
        }
    }
}

/// The deterministic violation rule (earliest round, widest message) is
/// schedule-independent: over-budget runs fail identically seq vs parallel.
#[test]
fn congest_violation_is_schedule_independent() {
    let width = |m: &u64| (64 - m.leading_zeros()) as usize;
    let g = graphgen::generators::gnp(40, 0.2, 7);
    let seq = CongestExecutor::new(&g, 3, width)
        .run(&StaggerSumMsg, 100)
        .unwrap_err();
    for k in THREAD_COUNTS {
        let par = CongestExecutor::new(&g, 3, width)
            .with_threads(k)
            .run(&StaggerSumMsg, 100)
            .unwrap_err();
        match (&seq, &par) {
            (
                localsim::CongestError::BandwidthExceeded {
                    bits: b1,
                    round: r1,
                    ..
                },
                localsim::CongestError::BandwidthExceeded {
                    bits: b2,
                    round: r2,
                    ..
                },
            ) => {
                assert_eq!((b1, r1), (b2, r2), "threads={k}");
            }
            other => panic!("expected bandwidth violations, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After t rounds both executors agree on every node's t-ball maximum.
    #[test]
    fn executors_agree_on_flood_max(g in arb_graph(), t in 1u64..5) {
        let a = Executor::new(&g).run(&FloodState { t }, t + 2).unwrap();
        let b = MessageExecutor::new(&g).run(&FloodMsg { t }, t + 2).unwrap();
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(a.rounds, b.rounds);
        // Ground truth: the max uid within distance t.
        for v in g.vertices() {
            let dist = g.bfs_distances(&[v]);
            let expect = g
                .vertices()
                .filter(|w| dist[w.index()] != usize::MAX && dist[w.index()] as u64 <= t)
                .map(|w| u64::from(w.0))
                .max()
                .unwrap();
            prop_assert_eq!(a.outputs[v.index()], expect, "node {}", v);
        }
    }
}
