//! The state-exchange round kernel and the per-round bookkeeping every
//! executor shares.
//!
//! [`Kernel::step_segment`] is the one place a synchronous LOCAL round
//! steps nodes: stall check, gather (through the per-port drop cache
//! when the fault plan drops reads), step, and halt-freeze. The
//! sequential [`crate::Executor`] run calls it once per round on the
//! whole worklist, each pool slot of a parallel run calls it on its own
//! segment, and the shard worker calls it on its owned range — so the
//! three schedules cannot drift apart. [`RoundBook`] is the matching
//! single copy of the `Event::Round` / `Event::Fault` emission.

use std::collections::BTreeMap;
use std::ops::{AddAssign, Range};

use graphgen::{Graph, NodeId};
use telemetry::{Counter, Event, FaultKind, Gauge, Probe, Registry};

use crate::exec::{LocalAlgorithm, NodeCtx, RunResult, SimError, Transition};
use crate::faults::FaultPlan;

/// The adjacency a kernel steps over: the whole graph in-process, the
/// shard's topology view in a worker.
pub(crate) trait Adjacency {
    /// The sorted neighbors of `v` (its ports, in order).
    fn neighbors(&self, v: NodeId) -> &[NodeId];
    /// Global index of `v`'s port 0 in the full graph's CSR order: the
    /// drop-stream slot of that port, global so that every shard count
    /// draws identical drop decisions. Consulted only when the fault plan
    /// drops reads.
    fn first_port(&self, v: NodeId) -> usize;
}

impl Adjacency for Graph {
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }

    fn first_port(&self, v: NodeId) -> usize {
        self.csr_offsets()[v.index()]
    }
}

/// What one kernel call did, summed over its segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Neighbor states read, one per incident edge of every stepped node.
    pub msgs: i64,
    /// Reads the fault plan dropped.
    pub dropped: i64,
    /// Nodes the fault plan stalled this round.
    pub stalled: i64,
    /// Nodes that halted this round.
    pub halts: i64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.msgs += o.msgs;
        self.dropped += o.dropped;
        self.stalled += o.stalled;
        self.halts += o.halts;
    }
}

/// One segment's disjoint write view. `nxt` and `outputs` are indexed by
/// `v - lo`; `seen` (the per-port drop cache, empty unless the plan drops
/// reads) by global port index minus `port_lo`.
pub(crate) struct SegBufs<'a, S, O> {
    pub lo: usize,
    pub nxt: &'a mut [S],
    pub outputs: &'a mut [Option<O>],
    pub port_lo: usize,
    pub seen: &'a mut [S],
}

/// Per-caller scratch reused across rounds: the neighbor-state gather
/// buffer and the segment's survivors, in worklist order.
pub(crate) struct Scratch<S> {
    pub nbr_buf: Vec<S>,
    pub survivors: Vec<NodeId>,
}

impl<S> Scratch<S> {
    pub(crate) fn new(max_degree: usize) -> Self {
        Scratch {
            nbr_buf: Vec::with_capacity(max_degree),
            survivors: Vec::new(),
        }
    }
}

/// The per-run invariants of a state-exchange run.
pub(crate) struct Kernel<'a, A, G: ?Sized> {
    pub algo: &'a A,
    pub adj: &'a G,
    /// Explicit uids, or `None` for the node indices.
    pub uids: Option<&'a [u64]>,
    pub n: usize,
    pub max_degree: usize,
    pub plan: Option<&'a FaultPlan>,
}

impl<A: LocalAlgorithm, G: Adjacency + ?Sized> Kernel<'_, A, G> {
    /// The context `v`, with ports `neighbors`, sees in `round`.
    pub(crate) fn ctx<'n>(&self, v: NodeId, neighbors: &'n [NodeId], round: u64) -> NodeCtx<'n> {
        NodeCtx {
            node: v,
            uid: self.uids.map_or(u64::from(v.0), |u| u[v.index()]),
            neighbors,
            round,
            n: self.n,
            max_degree: self.max_degree,
        }
    }

    /// Steps every node of `seg` (ascending) against the previous
    /// round's states `cur`, writing next states and outputs into `bufs`
    /// and appending the nodes still live to `scratch.survivors`.
    /// `on_continue(v, old, new)` sees every continuing node's state
    /// change before it is stored.
    pub(crate) fn step_segment(
        &self,
        round: u64,
        seg: &[NodeId],
        cur: &[A::State],
        bufs: SegBufs<'_, A::State, A::Output>,
        scratch: &mut Scratch<A::State>,
        mut on_continue: impl FnMut(NodeId, &A::State, &A::State),
    ) -> Tally {
        let jitter = self.plan.filter(|p| p.round_jitter > 0);
        let drops = self.plan.filter(|p| p.message_drop_p > 0.0);
        let mut t = Tally::default();
        for &v in seg {
            let vi = v.index();
            let i = vi - bufs.lo;
            if jitter.is_some_and(|p| p.stalls(v, round)) {
                // Stalled: skip the step but keep the state across the
                // buffer swap; the node stays live.
                bufs.nxt[i] = cur[vi].clone();
                t.stalled += 1;
                scratch.survivors.push(v);
                continue;
            }
            let nbrs = self.adj.neighbors(v);
            scratch.nbr_buf.clear();
            if let Some(plan) = drops {
                // A dropped read leaves the port's last-heard state.
                let base = self.adj.first_port(v);
                let seen = &mut bufs.seen[base - bufs.port_lo..][..nbrs.len()];
                for (p, (w, slot)) in nbrs.iter().zip(seen.iter_mut()).enumerate() {
                    if plan.drops_message(round, base + p) {
                        t.dropped += 1;
                    } else {
                        *slot = cur[w.index()].clone();
                    }
                }
                scratch.nbr_buf.extend(seen.iter().cloned());
            } else {
                scratch
                    .nbr_buf
                    .extend(nbrs.iter().map(|w| cur[w.index()].clone()));
            }
            // A live node observes one state per incident edge this
            // round: one message per edge endpoint (frozen states of
            // halted neighbors included — see the Event::Round docs).
            t.msgs += nbrs.len() as i64;
            let ctx = self.ctx(v, nbrs, round);
            match self.algo.step(&ctx, &cur[vi], &scratch.nbr_buf) {
                Transition::Continue(s) => {
                    on_continue(v, &cur[vi], &s);
                    bufs.nxt[i] = s;
                    scratch.survivors.push(v);
                }
                Transition::Halt(o) => {
                    bufs.outputs[i] = Some(o);
                    // Freeze the final state in the write buffer: both
                    // buffers now agree on v forever, so swaps keep it
                    // visible to running neighbors.
                    bufs.nxt[i] = cur[vi].clone();
                    t.halts += 1;
                }
            }
        }
        t
    }
}

/// The per-port "last heard" drop cache over the ports of nodes
/// `range`, in CSR order, seeded with the states `cur` (the setup
/// exchange is reliable). Empty unless `plan` drops reads.
pub(crate) fn seed_seen<S: Clone>(
    adj: &(impl Adjacency + ?Sized),
    plan: Option<&FaultPlan>,
    range: Range<usize>,
    cur: &[S],
) -> Vec<S> {
    if !plan.is_some_and(|p| p.message_drop_p > 0.0) {
        return Vec::new();
    }
    range
        .flat_map(|v| adj.neighbors(NodeId(v as u32)).iter())
        .map(|w| cur[w.index()].clone())
        .collect()
}

/// The outcome of a run in which no node is live after `rounds` rounds.
pub(crate) fn outcome<O>(
    crashed: usize,
    rounds: u64,
    outputs: Vec<Option<O>>,
) -> Result<RunResult<O>, SimError> {
    if crashed > 0 {
        return Err(SimError::Crashed { crashed, rounds });
    }
    Ok(RunResult {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("all nodes halted"))
            .collect(),
        rounds,
    })
}

/// The per-round [`Event::Round`] series (`live_nodes`, `halted`,
/// `messages_sent`, `halted_fraction`, plus `messages_dropped` /
/// `stalled_nodes` under a dropping / jittering plan) and the
/// [`Event::Fault`] records, registered and emitted in one fixed order
/// by every executor and by the shard coordinator. Rounds are 1-based
/// here; events carry them 0-based.
pub(crate) struct RoundBook {
    probe: Probe,
    registry: Registry,
    scope: &'static str,
    live: Counter,
    halted: Counter,
    /// Also charged directly by the message executor's init sends.
    pub msgs: Counter,
    halted_frac: Gauge,
    dropped: Option<Counter>,
    stalled: Option<Counter>,
    crash_sched: BTreeMap<u64, Vec<NodeId>>,
    /// Nodes [`RoundBook::start`] has crashed so far.
    pub crashed: usize,
}

impl RoundBook {
    /// A book for `scope`; `extra` counters register right after
    /// `messages_sent` (fetch them with [`RoundBook::counter`]).
    pub(crate) fn new(
        scope: &'static str,
        probe: &Probe,
        plan: Option<&FaultPlan>,
        extra: &[&str],
    ) -> Self {
        let mut registry = Registry::new();
        let live = registry.counter("live_nodes");
        let halted = registry.counter("halted");
        let msgs = registry.counter("messages_sent");
        for name in extra {
            registry.counter(name);
        }
        let halted_frac = registry.gauge("halted_fraction");
        let dropped = plan
            .filter(|p| p.message_drop_p > 0.0)
            .map(|_| registry.counter("messages_dropped"));
        let stalled = plan
            .filter(|p| p.round_jitter > 0)
            .map(|_| registry.counter("stalled_nodes"));
        RoundBook {
            probe: probe.clone(),
            registry,
            scope,
            live,
            halted,
            msgs,
            halted_frac,
            dropped,
            stalled,
            crash_sched: plan.map(FaultPlan::crash_schedule).unwrap_or_default(),
            crashed: 0,
        }
    }

    /// The handle of a counter registered at construction.
    pub(crate) fn counter(&mut self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// The nodes the plan crashes at the start of `round`, ascending.
    pub(crate) fn crashes_at(&self, round: u64) -> &[NodeId] {
        self.crash_sched.get(&round).map_or(&[], Vec::as_slice)
    }

    /// Reports `v` crashed at the start of `round`.
    pub(crate) fn crash(&self, round: u64, v: NodeId) {
        self.fault(round, FaultKind::Crash, Some(v), 1);
    }

    /// Records the live count `round` starts with (after its crashes).
    pub(crate) fn set_live(&self, live: usize) {
        self.live.set(live as i64);
    }

    /// Starts `round` on the ascending worklist `live`, failing past the
    /// `max_rounds` budget. Crashes fire before any node steps, each
    /// removed from `live`, reported, and handed to `freeze`; then the
    /// live count is recorded.
    pub(crate) fn start(
        &mut self,
        round: u64,
        max_rounds: u64,
        live: &mut Vec<NodeId>,
        mut freeze: impl FnMut(NodeId),
    ) -> Result<(), SimError> {
        if round > max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: max_rounds,
                still_running: live.len(),
            });
        }
        for &v in self.crash_sched.get(&round).into_iter().flatten() {
            if let Ok(pos) = live.binary_search(&v) {
                live.remove(pos);
                freeze(v);
                self.crashed += 1;
                self.crash(round, v);
            }
        }
        self.set_live(live.len());
        Ok(())
    }

    /// Charges `round`'s tally, emits its drop and stall faults, then
    /// its `Event::Round` with `live` nodes left of `n`.
    pub(crate) fn finish(&self, round: u64, t: Tally, live: usize, n: usize) {
        self.msgs.add(t.msgs);
        self.halted.add(t.halts);
        for (count, kind, counter) in [
            (t.dropped, FaultKind::Drop, &self.dropped),
            (t.stalled, FaultKind::Stall, &self.stalled),
        ] {
            if count > 0 {
                if let Some(c) = counter {
                    c.add(count);
                }
                self.fault(round, kind, None, count as u64);
            }
        }
        self.halted_frac.set((n - live) as f64 / n as f64);
        self.registry.emit_round(&self.probe, self.scope, round - 1);
    }

    fn fault(&self, round: u64, kind: FaultKind, node: Option<NodeId>, count: u64) {
        self.probe.emit_with(|| Event::Fault {
            scope: self.scope.to_string(),
            round: round - 1,
            kind,
            node: node.map(|v| u64::from(v.0)),
            count,
        });
    }
}
