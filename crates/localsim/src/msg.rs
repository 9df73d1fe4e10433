//! The per-port message-passing executor: the LOCAL model's native
//! interface, one message per incident edge per round.
//!
//! [`crate::Executor`] runs algorithms in *state-exchange* form (each node
//! broadcasts its whole state), which is universal for the LOCAL model but
//! obscures what is actually communicated. [`MessageExecutor`] runs
//! [`MessageProgram`]s that keep private per-node state and address
//! individual ports — the right level for algorithms whose analysis counts
//! *messages* (and the basis for a CONGEST mode, where per-port messages
//! would be size-capped).

use std::ops::Range;
use std::sync::Mutex;

use graphgen::{Graph, NodeId};
use telemetry::Probe;

use crate::exec::{NodeCtx, RunResult, SimError};
use crate::faults::FaultPlan;
use crate::kernel::{self, RoundBook, Tally};
use crate::par;
use crate::pool;

/// Scope string under which [`MessageExecutor`] emits per-round events.
pub const MSG_SCOPE: &str = "localsim/msg";

/// What a node does after processing one round of messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgTransition<M, O> {
    /// Keep running, sending the given messages next round.
    Continue(Vec<Outgoing<M>>),
    /// Send the given messages, then halt with an output.
    HaltAfter(Vec<Outgoing<M>>, O),
}

/// An outgoing message: which port (index into the node's adjacency list)
/// and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Index into the sender's sorted adjacency list.
    pub port: usize,
    /// The payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Convenience constructor.
    pub fn new(port: usize, msg: M) -> Self {
        Outgoing { port, msg }
    }
}

/// Broadcast helper: the same message on every port.
pub fn broadcast<M: Clone>(degree: usize, msg: &M) -> Vec<Outgoing<M>> {
    (0..degree).map(|p| Outgoing::new(p, msg.clone())).collect()
}

/// A distributed algorithm in stateful per-port message form.
pub trait MessageProgram {
    /// Private per-node state.
    type State;
    /// Message payload.
    type Msg: Clone;
    /// Per-node output on halting.
    type Output;

    /// Initial state and the messages sent before the first round.
    fn init(&self, ctx: &NodeCtx) -> (Self::State, Vec<Outgoing<Self::Msg>>);

    /// Processes one round's inbox (`inbox[p]` = message received on port
    /// `p`, if any) and decides what to send next.
    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut Self::State,
        inbox: &[Option<Self::Msg>],
    ) -> MsgTransition<Self::Msg, Self::Output>;
}

/// Runs [`MessageProgram`]s over a graph with synchronous delivery.
#[derive(Debug)]
pub struct MessageExecutor<'g> {
    graph: &'g Graph,
    probe: Probe,
    threads: usize,
    faults: Option<FaultPlan>,
}

/// One round's inbox arena: a flat port-indexed slice through the
/// graph's CSR offsets (slot `offsets[w] + q` is port `q` of node `w`),
/// plus the dirty list of the slots written, so it clears in place.
struct Inbox<M> {
    slots: Vec<Option<M>>,
    dirty: Vec<usize>,
}

impl<M: Clone> Inbox<M> {
    fn new(ports: usize) -> Self {
        Inbox {
            slots: (0..ports).map(|_| None).collect(),
            dirty: Vec::new(),
        }
    }

    /// Writes `outs` from `v` into the arena. Returns the number of
    /// messages sent (dropped ones included — they were transmitted,
    /// then lost).
    ///
    /// The receiving port is an O(1) lookup in the precomputed
    /// reverse-port table (indexed by the *sender's* slot), replacing a
    /// per-message binary search. With an active fault plan, each
    /// message is dropped iff the plan's seed-keyed decision for
    /// `(round, destination slot)` fires — a pure function of the slot,
    /// so delivery order never matters.
    fn deliver(
        &mut self,
        graph: &Graph,
        rev: &[u32],
        v: NodeId,
        outs: impl IntoIterator<Item = Outgoing<M>>,
        faults: Option<(&FaultPlan, u64)>,
        dropped: &mut i64,
    ) -> i64 {
        let mut sent = 0;
        let offsets = graph.csr_offsets();
        let nbrs = graph.neighbors(v);
        let base = offsets[v.index()];
        for out in outs {
            sent += 1;
            let w = nbrs[out.port];
            let slot = offsets[w.index()] + rev[base + out.port] as usize;
            if faults.is_some_and(|(plan, round)| plan.drops_message(round, slot)) {
                *dropped += 1;
                continue;
            }
            self.slots[slot] = Some(out.msg);
            self.dirty.push(slot);
        }
        sent
    }

    /// Carries a stalled node's undelivered inbox `ports` of `cur` over
    /// (bounded-asynchrony semantics: a stalled node's messages wait on
    /// the link). A slot already written by this round's delivery keeps
    /// the newer message — the link buffers one message per port.
    fn retain(&mut self, cur: &Inbox<M>, ports: Range<usize>) {
        for slot in ports {
            if cur.slots[slot].is_some() && self.slots[slot].is_none() {
                self.slots[slot] = cur.slots[slot].clone();
                self.dirty.push(slot);
            }
        }
    }

    /// Clears the touched slots; returns how many there were.
    fn clear(&mut self) -> usize {
        let touched = self.dirty.len();
        for slot in self.dirty.drain(..) {
            self.slots[slot] = None;
        }
        touched
    }
}

impl<'g> MessageExecutor<'g> {
    /// An executor over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        MessageExecutor {
            graph,
            probe: Probe::disabled(),
            threads: 1,
            faults: None,
        }
    }

    /// Injects the given seed-deterministic [`FaultPlan`] into every run:
    /// per-message drops (decided per destination slot and round), node
    /// crashes (frozen like halted nodes, reported via
    /// [`telemetry::Event::Fault`] and [`SimError::Crashed`]), and
    /// bounded-asynchrony stalls (a stalled node's pending inbox waits on
    /// the link). Faulty runs stay bit-identical between the sequential
    /// and parallel stepping paths (see `docs/FAULTS.md`). An inactive
    /// plan is a no-op.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan.is_active().then_some(plan);
        self
    }

    /// Attaches a telemetry probe; every run then emits one
    /// [`telemetry::Event::Round`] per round under the [`MSG_SCOPE`] scope
    /// (live nodes, halts, messages sent, inbox bytes).
    #[must_use]
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Opts into deterministic parallel stepping with `k` worker threads
    /// (`k <= 1` steps every round on the calling thread).
    ///
    /// Rounds split into two phases: node steps run in parallel over
    /// contiguous worklist segments (reading only the previous round's
    /// inboxes), then all deliveries are applied in ascending node order
    /// on the calling thread — so outputs and telemetry are bit-identical
    /// to the sequential schedule regardless of `k`.
    #[must_use]
    pub fn with_threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Runs `prog` until every node halts; counts communication rounds.
    ///
    /// Inboxes live in two flat port-indexed arenas (one slice of length
    /// 2m for the whole graph) that are swapped every round and cleared
    /// in place via a dirty list — no per-round arena allocation — and
    /// halted nodes are skipped via a compacting live worklist.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] past `max_rounds`;
    /// [`SimError::Crashed`] if an injected fault plan crashed nodes
    /// before they could output.
    pub fn run<P>(&self, prog: &P, max_rounds: u64) -> Result<RunResult<P::Output>, SimError>
    where
        P: MessageProgram + Sync,
        P::State: Send,
        P::Msg: Send + Sync,
        P::Output: Send,
    {
        let n = self.graph.n();
        // Per-run invariants, hoisted out of the per-node hot loop.
        let graph = self.graph;
        let max_degree = graph.max_degree();
        let offsets = graph.csr_offsets();
        let rev = graph.reverse_ports();
        let make_ctx = move |v: NodeId, round: u64| NodeCtx {
            node: v,
            uid: u64::from(v.0),
            neighbors: graph.neighbors(v),
            round,
            n,
            max_degree,
        };
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut cur: Inbox<P::Msg> = Inbox::new(offsets[n]);
        let mut nxt: Inbox<P::Msg> = Inbox::new(offsets[n]);
        let plan = self.faults.as_ref();
        let mut book = RoundBook::new(MSG_SCOPE, &self.probe, plan, &["inbox_bytes"]);
        // Metric handles (None when no hub is attached — the hot loop then
        // takes no timestamps). `msg.arena_peak` / `msg.dirty_slots` track
        // inbox-arena occupancy and compaction work via the dirty list.
        let hub = self.probe.metrics();
        let m_rounds = hub.map(|h| h.counter("msg.rounds"));
        let m_arena_peak = hub.map(|h| h.watermark("msg.arena_peak"));
        let m_dirty = hub.map(|h| h.counter("msg.dirty_slots"));
        let m_round_ns = hub.map(|h| h.histogram("msg.round_ns"));
        // Fault machinery — inert unless a plan is active, so fault-free
        // runs keep byte-identical telemetry.
        let jitter = plan.filter(|p| p.round_jitter > 0);
        let drops = plan.filter(|p| p.message_drop_p > 0.0);
        let drop_ctx = |round: u64| drops.map(|p| (p, round));
        let mut init_dropped = 0i64;
        // Init reads no inbox, so each node's first sends land as it goes.
        let mut states: Vec<P::State> = Vec::with_capacity(n);
        for v in graph.vertices() {
            let (st, outs) = prog.init(&make_ctx(v, 0));
            states.push(st);
            book.msgs += cur.deliver(graph, rev, v, outs, drop_ctx(0), &mut init_dropped);
        }
        let mut live_list: Vec<NodeId> = graph.vertices().collect();
        let mut rounds = 0u64;
        // The worker pool is leased on the first round with more than
        // one segment and parked between rounds. Each slot keeps, across
        // rounds, its stepped nodes (`None` if stalled, else how many of
        // the slot's buffered sends are the node's and its output if it
        // halted) and those sends in order: moving them out at once frees
        // each step's `Vec` while the allocator still has it cached.
        let mut pool_lease: Option<pool::PoolLease> = None;
        let mut step_bufs: Vec<Mutex<(Vec<_>, Vec<_>)>> = (0..self.threads)
            .map(|_| Mutex::new((Vec::new(), Vec::new())))
            .collect();
        while !live_list.is_empty() {
            rounds += 1;
            // A crashed node's pending inbox dies with it.
            book.start(rounds, max_rounds, &mut live_list, |_| {})?;
            if let Some(c) = &m_rounds {
                c.incr();
            }
            let round_start = m_round_ns.as_ref().map(|_| std::time::Instant::now());
            // Drops are accounted to the round event of the round in which
            // the executor processed the send; init-time sends fold into
            // the first round's event.
            let mut tally = Tally {
                dropped: std::mem::take(&mut init_dropped),
                ..Tally::default()
            };
            if self.probe.enabled() {
                let pending = cur.slots.iter().filter(|m| m.is_some()).count();
                book.set_extra(
                    "inbox_bytes",
                    (pending * std::mem::size_of::<P::Msg>()) as i64,
                );
            }
            // Phase 1: step every live node against the read-only current
            // arena, collecting transitions.
            // One segment is stepped inline; several go to the pool, slot
            // i owning segment i of the degree-weighted split.
            let segs = par::segments_weighted(&live_list, self.threads, offsets);
            let seg_count = segs.len();
            let ranges = par::segment_ranges(&segs);
            let work: Vec<_> = segs
                .iter()
                .zip(ranges.iter())
                .zip(par::split_ranges(&mut states, &ranges))
                .map(|((seg, &(lo, _)), st_s)| Mutex::new(Some((*seg, lo, st_s))))
                .collect();
            let step = |slot: usize| {
                let Some((seg, lo, st_s)) = par::take_work(&work, slot) else {
                    return;
                };
                let mut guard = step_bufs[slot].lock().expect("buffer poisoned");
                let (steps, sends) = &mut *guard;
                for &v in seg {
                    if jitter.is_some_and(|p| p.stalls(v, rounds)) {
                        steps.push((v, None));
                        continue;
                    }
                    let st = &mut st_s[v.index() - lo];
                    let inbox = &cur.slots[offsets[v.index()]..offsets[v.index() + 1]];
                    let (mut outs, output) = match prog.step(&make_ctx(v, rounds), st, inbox) {
                        MsgTransition::Continue(outs) => (outs, None),
                        MsgTransition::HaltAfter(outs, o) => (outs, Some(o)),
                    };
                    steps.push((v, Some((outs.len(), output))));
                    sends.append(&mut outs);
                }
            };
            par::run_segments(&mut pool_lease, self.threads, seg_count, &step);
            // Phase 2 (calling thread, ascending node order): deliver and
            // account, draining the slot buffers in segment order
            // (allocations survive for the next round).
            live_list.clear();
            for buf in step_bufs.iter_mut().take(seg_count) {
                let (steps, sends) = buf.get_mut().expect("buffer poisoned");
                let mut sends = sends.drain(..);
                for (v, stepped) in steps.drain(..) {
                    // Stalled: pending messages wait on the link for the
                    // next round.
                    let Some((count, output)) = stepped else {
                        nxt.retain(&cur, offsets[v.index()]..offsets[v.index() + 1]);
                        tally.stalled += 1;
                        live_list.push(v);
                        continue;
                    };
                    let outs = sends.by_ref().take(count);
                    tally.msgs +=
                        nxt.deliver(graph, rev, v, outs, drop_ctx(rounds), &mut tally.dropped);
                    match output {
                        Some(o) => {
                            outputs[v.index()] = Some(o);
                            tally.halts += 1;
                        }
                        None => live_list.push(v),
                    }
                }
            }
            // Recycle the consumed arena: clear only the touched slots,
            // then swap it in as next round's write buffer.
            let touched = cur.clear() as u64;
            if let Some(w) = &m_arena_peak {
                w.record(touched);
            }
            if let Some(c) = &m_dirty {
                c.add(touched);
            }
            std::mem::swap(&mut cur, &mut nxt);
            book.finish(rounds, tally, live_list.len(), n);
            if let (Some(h), Some(start)) = (&m_round_ns, round_start) {
                h.observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        kernel::outcome(book.crashed, rounds, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::Graph;

    /// Relaying BFS from node 0: each node forwards the wave once and
    /// halts with its BFS distance.
    struct RelayBfs;

    impl MessageProgram for RelayBfs {
        type State = ();
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> ((), Vec<Outgoing<u64>>) {
            if ctx.node == NodeId(0) {
                ((), broadcast(ctx.degree(), &1))
            } else {
                ((), Vec::new())
            }
        }

        fn step(
            &self,
            ctx: &NodeCtx,
            _state: &mut (),
            inbox: &[Option<u64>],
        ) -> MsgTransition<u64, u64> {
            if ctx.node == NodeId(0) {
                return MsgTransition::HaltAfter(Vec::new(), 0);
            }
            if let Some(&d) = inbox.iter().flatten().min() {
                MsgTransition::HaltAfter(broadcast(ctx.degree(), &(d + 1)), d)
            } else {
                MsgTransition::Continue(Vec::new())
            }
        }
    }

    #[test]
    fn relay_bfs_computes_distances() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]).unwrap();
        let run = MessageExecutor::new(&g).run(&RelayBfs, 10).unwrap();
        assert_eq!(run.outputs, vec![0, 1, 2, 3, 2]);
        assert_eq!(run.rounds, 3, "last node hears the wave in round 3");
    }

    /// Token accumulation with private state: each node counts distinct
    /// rounds in which it received anything, for three rounds.
    struct CountRounds;

    impl MessageProgram for CountRounds {
        type State = u32;
        type Msg = ();
        type Output = u32;

        fn init(&self, ctx: &NodeCtx) -> (u32, Vec<Outgoing<()>>) {
            (0, broadcast(ctx.degree(), &()))
        }

        fn step(
            &self,
            ctx: &NodeCtx,
            state: &mut u32,
            inbox: &[Option<()>],
        ) -> MsgTransition<(), u32> {
            if inbox.iter().any(Option::is_some) {
                *state += 1;
            }
            if ctx.round >= 3 {
                MsgTransition::HaltAfter(Vec::new(), *state)
            } else {
                MsgTransition::Continue(broadcast(ctx.degree(), &()))
            }
        }
    }

    #[test]
    fn private_state_persists() {
        let g = graphgen::generators::cycle(6);
        let run = MessageExecutor::new(&g).run(&CountRounds, 10).unwrap();
        assert!(run.outputs.iter().all(|&c| c == 3));
    }

    /// Ports deliver to the right neighbor: sum of leaf uids at the center.
    struct PingPong;

    impl MessageProgram for PingPong {
        type State = ();
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> ((), Vec<Outgoing<u64>>) {
            ((), broadcast(ctx.degree(), &ctx.uid))
        }

        fn step(
            &self,
            _ctx: &NodeCtx,
            _state: &mut (),
            inbox: &[Option<u64>],
        ) -> MsgTransition<u64, u64> {
            MsgTransition::HaltAfter(Vec::new(), inbox.iter().flatten().sum())
        }
    }

    #[test]
    fn ports_deliver_to_the_right_neighbor() {
        let g = graphgen::generators::star(3);
        let run = MessageExecutor::new(&g).run(&PingPong, 5).unwrap();
        assert_eq!(run.outputs[0], 1 + 2 + 3);
        assert_eq!(run.outputs[1], 0);
    }

    #[test]
    fn round_budget_enforced() {
        struct Forever;
        impl MessageProgram for Forever {
            type State = ();
            type Msg = ();
            type Output = ();
            fn init(&self, _ctx: &NodeCtx) -> ((), Vec<Outgoing<()>>) {
                ((), Vec::new())
            }
            fn step(
                &self,
                _ctx: &NodeCtx,
                _s: &mut (),
                _i: &[Option<()>],
            ) -> MsgTransition<(), ()> {
                MsgTransition::Continue(Vec::new())
            }
        }
        let g = graphgen::generators::cycle(4);
        assert!(matches!(
            MessageExecutor::new(&g).run(&Forever, 3),
            Err(SimError::RoundLimitExceeded { limit: 3, .. })
        ));
    }

    #[test]
    fn empty_graph_ok() {
        let g = Graph::from_edges(0, []).unwrap();
        let run = MessageExecutor::new(&g).run(&PingPong, 1).unwrap();
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn probe_counts_messages_and_inbox_bytes() {
        use telemetry::{Event, Probe, RecordingSink};

        let sink = std::sync::Arc::new(RecordingSink::new());
        let g = graphgen::generators::star(3); // center + 3 leaves, 3 edges
        let run = MessageExecutor::new(&g)
            .with_probe(Probe::new(sink.clone()))
            .run(&PingPong, 5)
            .unwrap();
        assert_eq!(run.rounds, 1);
        assert_eq!(sink.rounds_seen(MSG_SCOPE), 1);
        let events = sink.events();
        let Event::Round { counters, .. } = &events[0] else {
            panic!("expected a round event, got {:?}", events[0]);
        };
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // init: center broadcasts 3, each leaf sends 1 -> 6 messages; every
        // one of them sits in an inbox at the start of round 0.
        assert_eq!(get("messages_sent"), 6);
        assert_eq!(get("inbox_bytes"), 6 * std::mem::size_of::<u64>() as i64);
        assert_eq!(get("live_nodes"), 4);
        assert_eq!(get("halted"), 4);
    }
}
