//! Batched lockstep execution: one instruction stream stepping B runs.
//!
//! A [`SimBatch`] instantiates B *lanes* — independent runs sharing one
//! shape (ring size, team size, synchrony model) but each with its own
//! [`RunSpec`] (seed/placement), activation policy and edge adversary — and
//! steps every lane in lockstep, one round per lane per iteration. The
//! per-agent hot state is laid out **run-major**: one flat dense `Vec` per
//! field, lane ℓ's agents occupying the stride `[ℓ·A .. (ℓ+1)·A]`, so the
//! round phases become straight-line loops over contiguous lanes that the
//! compiler can pipeline across lanes (each lane's work is independent,
//! which breaks the round-to-round dependency chain that limits a solo run).
//!
//! # Byte-identical by construction
//!
//! The batch does not reimplement the round semantics: each lane's round is
//! executed by the *same* slice-level functions the solo
//! [`Simulation`](crate::sim::Simulation) runs —
//! `fill_round_fsync_lane`/`fill_agent_views_lane` for the fill + Look
//! phases and `resolve_lane` for resolution, passive transport and
//! bookkeeping — over a `LaneRef`/`LaneStateMut` view of the lane's
//! stride. Every per-lane policy instance is consulted exactly as often, in
//! exactly the same per-round order, with exactly the same
//! [`RoundView`], as in a solo run, so seeded policies consume their RNG
//! draws identically and the harvested [`RunReport`]s are byte-identical to
//! sequential execution (`tests/batch_lockstep_equivalence.rs` pins this).
//! Lanes whose spec records a trace append into a per-lane columnar
//! [`Trace`] through the same `record_round_from_lane` fast path as the
//! solo step, so batched traces (read back via [`SimBatch::trace`]) are
//! byte-identical to solo traces as well — trace cells no longer need to
//! fall back to solo execution.
//!
//! # Compaction and recycling
//!
//! Lanes whose stop condition holds (or that deadlock) are harvested
//! immediately and swap-compacted out of the *active index set* — the lane
//! data stays in place, only the index list shrinks — so late rounds never
//! touch finished runs. [`SimBatch::recycle`] rewinds every lane to round
//! zero with bulk fills over the flat arrays; like the solo lifecycle
//! (PR 5), a recycled batch of unchanged shape performs **zero heap
//! allocations** per run in steady state (the sweep bench asserts this with
//! a counting allocator).

use crate::adversary::EdgePolicy;
use crate::error::EngineError;
use crate::scheduler::ActivationPolicy;
use crate::sim::{
    condition_met, cruise_window, resolve_lane, CruiseSlot, CruiseStats, RunReport, RunSpec,
    StopCondition, StopReason, CRUISE_PROBE_BACKOFF,
};
use crate::trace::Trace;
use crate::world::{
    build_snapshot_lane, fill_agent_views_lane, predict_action, to_global, to_local, AgentSoA,
    AgentView, LaneRef, LaneStateMut, PredictedAction, ProbePool, RoundView,
};
use dynring_graph::{AgentId, GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::{
    Decision, LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Protocol, Snapshot,
    TerminationKind, TransportModel,
};
use std::borrow::Cow;

/// One lane of a batch: the run's spec plus its policy instances.
///
/// The policies are per-lane (each lane owns its activation policy and edge
/// adversary, typically seeded differently), while the *shape* — ring size,
/// team size, synchrony model — must agree across every lane loaded into one
/// [`SimBatch`].
pub struct BatchLane {
    /// The compiled run (ring, synchrony, agent placements/templates).
    pub spec: RunSpec,
    /// The lane's activation policy (consulted only under SSYNC).
    pub activation: Box<dyn ActivationPolicy>,
    /// The lane's edge adversary.
    pub edges: Box<dyn EdgePolicy>,
}

/// Per-lane round scratch: the batched counterpart of the solo round
/// scratch, kept per lane because the fill results (views, predictions,
/// active set) must survive from the fill phase to the resolution phase of
/// the same round while other lanes run theirs. All buffers reuse their
/// capacity across rounds and recycles.
#[derive(Default)]
struct LaneScratch {
    views: Vec<AgentView>,
    predicted: Vec<Option<Decision>>,
    decisions: Vec<Option<Decision>>,
    active: Vec<AgentId>,
    chosen: Vec<AgentId>,
    active_mask: Vec<bool>,
    claimed: Vec<(NodeId, GlobalDirection)>,
    probes: ProbePool,
    /// Node of each agent at the start of the round (trace recording only).
    nodes_before: Vec<NodeId>,
}

/// A batch of B same-shape runs stepped in lockstep (see the [module
/// docs](self)).
///
/// Lifecycle: [`load`](SimBatch::load) a group of lanes (validates the
/// shared shape and rewinds to round zero), [`run_into`](SimBatch::run_into)
/// to play every lane to its stop condition, then either
/// [`recycle`](SimBatch::recycle) for another cycle of the same lanes or
/// `load` the next group — all buffers are reused across both.
#[derive(Default)]
pub struct SimBatch {
    ring_size: usize,
    agent_count: usize,
    fsync: bool,
    transport_pt: bool,
    rings: Vec<RingTopology>,
    specs: Vec<RunSpec>,
    activation: Vec<Box<dyn ActivationPolicy>>,
    edges: Vec<Box<dyn EdgePolicy>>,
    // Run-major hot state: one entry per (lane, agent), stride `agent_count`.
    node: Vec<NodeId>,
    held_port: Vec<Option<GlobalDirection>>,
    terminated: Vec<bool>,
    handedness: Vec<Handedness>,
    prior: Vec<PriorOutcome>,
    program: Vec<Box<dyn Protocol>>,
    moves: Vec<u64>,
    activations: Vec<u64>,
    last_active_round: Vec<u64>,
    asleep_on_port: Vec<u64>,
    terminated_at: Vec<Option<u64>>,
    poll_termination: Vec<bool>,
    visited_count: Vec<usize>,
    // Per-(lane, agent) visit rows, stride `agent_count * ring_size`.
    agent_visited: Vec<bool>,
    // Per-lane ring state, stride `ring_size`.
    visited: Vec<bool>,
    node_population: Vec<u32>,
    // Per-lane scalars.
    crowded_nodes: Vec<usize>,
    unvisited: Vec<usize>,
    alive: Vec<usize>,
    round: Vec<u64>,
    explored_at: Vec<Option<u64>>,
    /// Indices of lanes still running, swap-compacted as lanes finish.
    active_lanes: Vec<usize>,
    /// Whether the hot state holds a completed cycle (so `recycle` can undo
    /// the node populations agent-by-agent instead of clearing `O(n)` rows).
    primed: bool,
    // Flat FSYNC round scratch, stride `agent_count` — written in place
    // every round (no per-round clears), read back within the same round.
    fviews: Vec<AgentView>,
    fdecisions: Vec<Decision>,
    factive: Vec<AgentId>,
    fclaimed: Vec<(NodeId, GlobalDirection)>,
    // Flat FSYNC trace scratch, stride `agent_count` — written only for
    // trace-recording lanes (the fused round keeps plain `Decision`s and no
    // activity mask, so the trace's solo-shaped inputs are staged here).
    fnodes_before: Vec<NodeId>,
    factive_mask: Vec<bool>,
    fdecisions_opt: Vec<Option<Decision>>,
    /// Per-lane recorded traces (`None` for lanes whose spec runs
    /// trace-off); columnar flat appends, recycled capacity-intact.
    traces: Vec<Option<Trace>>,
    /// Flat cruise-window scratch, stride `agent_count`.
    fslots: Vec<CruiseSlot>,
    /// Per-lane cruise-window counters, reset by `recycle`.
    cruise_stats: Vec<CruiseStats>,
    /// Per-lane scratch of the SSYNC path (live policy state machines need
    /// the solo round shape; see `step_round_ssync`).
    lane_scratch: Vec<LaneScratch>,
}

/// Clears and refills a flat array to `len` copies of `value`, reusing the
/// existing capacity (the actual per-lane values are written by `recycle`).
fn refit<T: Clone>(buffer: &mut Vec<T>, len: usize, value: T) {
    buffer.clear();
    buffer.resize(len, value);
}

/// Hot state of one lane on the fused FSYNC path: the lane's slices of the
/// batch's flat arrays plus its round-level counters, hoisted once per
/// [`SimBatch::run_into`] and carried across the whole round loop (the
/// counters live in registers; the caller writes them back when the lane
/// stops). [`FsyncLane::round`] is the solo `step_impl` FSYNC tier fused
/// into one pass: fill (+ fused predictions), adversary selection, Compute
/// and resolution, with the round scratch written in place — no per-round
/// `Vec` traffic and no re-slicing.
struct FsyncLane<'x> {
    ring: &'x RingTopology,
    edges: &'x mut Box<dyn EdgePolicy>,
    node: &'x mut [NodeId],
    held: &'x mut [Option<GlobalDirection>],
    term: &'x mut [bool],
    hand: &'x [Handedness],
    prior: &'x mut [PriorOutcome],
    prog: &'x mut [Box<dyn Protocol>],
    moves: &'x mut [u64],
    activations: &'x mut [u64],
    last_active: &'x mut [u64],
    asleep: &'x mut [u64],
    terminated_at: &'x mut [Option<u64>],
    poll: &'x [bool],
    vcount: &'x mut [usize],
    views: &'x mut [AgentView],
    dec: &'x mut [Decision],
    act: &'x mut [AgentId],
    claim: &'x mut [(NodeId, GlobalDirection)],
    visited: &'x mut [bool],
    population: &'x mut [u32],
    avisited: &'x mut [bool],
    /// The lane's trace, when its spec records one. The fused round keeps
    /// plain `Decision`s and no activity mask, so `tnodes`/`tmask`/`tdec`
    /// stage the solo-shaped record inputs; they are written only while
    /// `trace` is `Some`.
    trace: Option<&'x mut Trace>,
    tnodes: &'x mut [NodeId],
    tmask: &'x mut [bool],
    tdec: &'x mut [Option<Decision>],
    slots: &'x mut [CruiseSlot],
    stats: &'x mut CruiseStats,
    crowded: usize,
    alive: usize,
    unvisited: usize,
    explored: Option<u64>,
    r: u64,
    /// Rounds left of this call's budget.
    left: u64,
    /// The round from which a cruise may be probed again (see
    /// `CRUISE_PROBE_BACKOFF`).
    next_probe: u64,
}

impl FsyncLane<'_> {
    /// Whether the lane's stop condition holds (mirrors the solo
    /// `stop_condition_met`).
    #[inline]
    fn stop_met(&self, stop: StopCondition, a: usize) -> bool {
        condition_met(stop, self.explored.is_some(), self.alive, a)
    }

    /// Plays the lane's next stretch — a cruise window when eligible, else
    /// one round — or returns why the lane stops. This is the solo
    /// `run_rounds` loop body: the cull runs before every stretch, and once
    /// the budget is used up the final check decides between
    /// `ConditionMet` and `BudgetExhausted`.
    #[inline(always)]
    fn advance(
        &mut self,
        a: usize,
        n: usize,
        predict: bool,
        stop: StopCondition,
    ) -> Option<StopReason> {
        if self.left == 0 {
            return Some(if self.stop_met(stop, a) {
                StopReason::ConditionMet
            } else {
                StopReason::BudgetExhausted
            });
        }
        if let Some(reason) = self.cull(stop, a) {
            return Some(reason);
        }
        if self.trace.is_none() && self.r >= self.next_probe && self.crowded == 0 {
            let cruised = self.try_cruise(n, stop);
            if cruised > 0 {
                self.left -= cruised;
                return None;
            }
            self.next_probe = self.r + CRUISE_PROBE_BACKOFF;
        }
        self.round(a, n, predict);
        self.left -= 1;
        None
    }

    /// The shared [`cruise_window`] over this lane's slices.
    #[inline(never)]
    fn try_cruise(&mut self, n: usize, stop: StopCondition) -> u64 {
        let lane = LaneStateMut {
            node: &mut *self.node,
            held_port: &mut *self.held,
            terminated: &mut *self.term,
            handedness: self.hand,
            prior: &mut *self.prior,
            program: &mut *self.prog,
            moves: &mut *self.moves,
            activations: &mut *self.activations,
            last_active_round: &mut *self.last_active,
            asleep_on_port: &mut *self.asleep,
            terminated_at: &mut *self.terminated_at,
            poll_termination: self.poll,
            agent_visited: &mut *self.avisited,
            visited_count: &mut *self.vcount,
            ring_size: n,
            node_population: &mut *self.population,
            crowded_nodes: &mut self.crowded,
            global_visited: &mut *self.visited,
            unvisited: &mut self.unvisited,
            alive: &mut self.alive,
        };
        cruise_window(
            self.ring,
            lane,
            self.edges.as_mut(),
            self.views,
            self.act,
            self.slots,
            &mut self.r,
            &mut self.explored,
            self.left,
            stop,
            self.stats,
        )
    }

    /// The solo loop's cull, run before every stepped round: `Some` reason
    /// if the lane must stop now.
    #[inline]
    fn cull(&self, stop: StopCondition, a: usize) -> Option<StopReason> {
        if self.stop_met(stop, a) {
            Some(StopReason::ConditionMet)
        } else if self.alive == 0 {
            Some(StopReason::Deadlocked)
        } else {
            None
        }
    }

    /// One FSYNC round. Per lane the observable sequence — snapshot
    /// contents, `decide` call order, the `RoundView` handed to the
    /// adversary, port mutual exclusion, movement and bookkeeping — is
    /// exactly the solo `step_impl` FSYNC tier, so seeded policies consume
    /// their draws identically and the lane state stays byte-identical to
    /// a solo run (`tests/batch_lockstep_equivalence.rs`). `predict` is
    /// `EdgePolicy::needs_predictions`, hoisted by the caller: it takes
    /// `&self`, so its answer cannot change between rounds.
    #[inline(always)]
    #[allow(clippy::too_many_lines)]
    fn round(&mut self, a: usize, n: usize, predict: bool) {
        self.r += 1;
        let r = self.r;
        // Start-of-round snapshot for the trace (trace-only work): under
        // FSYNC the active set is exactly the agents live at the start of
        // the round, and every one of them decides.
        if self.trace.is_some() {
            self.tnodes.copy_from_slice(self.node);
            for index in 0..a {
                self.tmask[index] = !self.term[index];
            }
        }
        // Compute-on-fill (predict tier): the dry run *is* this round's
        // Compute under FSYNC, so run every live agent's protocol first,
        // keeping only the decide inputs live across the opaque calls.
        if predict {
            for index in 0..a {
                if self.term[index] {
                    continue;
                }
                let snapshot = snapshot_at(
                    self.ring,
                    self.crowded,
                    self.node,
                    self.held,
                    index,
                    self.hand[index],
                    self.prior[index],
                    r,
                );
                self.dec[index] = self.prog[index].decide(&snapshot);
            }
        }
        // Views, the active set and the start-of-round port claims —
        // straight-line array work, no calls.
        let mut active_len = 0;
        let mut claimed_len = 0;
        for index in 0..a {
            let is_terminated = self.term[index];
            let at = self.node[index];
            let held = self.held[index];
            let hand = self.hand[index];
            if !is_terminated {
                self.act[active_len] = AgentId::new(index);
                active_len += 1;
            }
            if let Some(port) = held {
                self.claim[claimed_len] = (at, port);
                claimed_len += 1;
            }
            let predicted = if is_terminated {
                PredictedAction::Terminate
            } else if predict {
                predict_action(self.ring, at, hand, self.dec[index])
            } else {
                PredictedAction::Stay
            };
            self.views[index] = AgentView {
                id: AgentId::new(index),
                node: at,
                held_port: held,
                terminated: is_terminated,
                handedness: hand,
                predicted,
                last_active_round: self.last_active[index],
                asleep_on_port: self.asleep[index],
                moves: self.moves[index],
            };
        }
        // Selection: the lane's adversary sees exactly the solo round view
        // and picks the missing edge.
        let view = RoundView {
            round: r,
            ring: self.ring,
            agents: Cow::Borrowed(&self.views[..]),
            visited: &self.visited[..],
        };
        let missing = self.edges.select(&view, &self.act[..active_len]).filter(|e| e.index() < n);
        drop(view);
        // Compute (non-predict tier: live agents decide only now, after
        // the adversary moved).
        if !predict {
            for index in 0..a {
                if self.term[index] {
                    continue;
                }
                let snapshot = snapshot_at(
                    self.ring,
                    self.crowded,
                    self.node,
                    self.held,
                    index,
                    self.hand[index],
                    self.prior[index],
                    r,
                );
                self.dec[index] = self.prog[index].decide(&snapshot);
            }
        }
        // Resolution + FSYNC bookkeeping — the `resolve_lane` FSYNC branch
        // (PT never applies to FSYNC). Every agent in the active set
        // decided this round.
        for k in 0..active_len {
            let index = self.act[k].index();
            let decision = self.dec[index];
            self.activations[index] += 1;
            self.last_active[index] = r;
            self.asleep[index] = 0;
            match decision {
                Decision::Terminate => {
                    self.alive -= 1;
                    self.term[index] = true;
                    self.terminated_at[index] = Some(r);
                    self.held[index] = None;
                    self.prior[index] = PriorOutcome::Idle;
                }
                Decision::Stay => {
                    self.prior[index] = PriorOutcome::Idle;
                }
                Decision::Retreat => {
                    self.held[index] = None;
                    self.prior[index] = PriorOutcome::Idle;
                }
                Decision::Move(ldir) => {
                    // The fill phase already resolved the local direction
                    // against the topology for the adversary's dry run;
                    // reuse it.
                    let at = self.node[index];
                    let (gdir, edge) = match self.views[index].predicted {
                        PredictedAction::Move { edge, direction } if predict => {
                            (direction, edge)
                        }
                        _ => {
                            let g = to_global(self.hand[index], ldir);
                            (g, self.ring.edge_towards(at, g))
                        }
                    };
                    let already_held = self.held[index] == Some(gdir);
                    if !already_held {
                        self.held[index] = None;
                        if self.claim[..claimed_len].contains(&(at, gdir)) {
                            self.prior[index] = PriorOutcome::PortAcquisitionFailed;
                            continue;
                        }
                        self.held[index] = Some(gdir);
                        self.claim[claimed_len] = (at, gdir);
                        claimed_len += 1;
                    }
                    if missing == Some(edge) {
                        self.prior[index] = PriorOutcome::BlockedOnPort;
                    } else {
                        let destination = self.ring.neighbor(at, gdir);
                        self.node[index] = destination;
                        self.held[index] = None;
                        self.prior[index] = PriorOutcome::Moved;
                        self.moves[index] += 1;
                        AgentSoA::relocate(self.population, &mut self.crowded, at, destination);
                        let node_index = destination.index();
                        if !self.visited[node_index] {
                            self.visited[node_index] = true;
                            self.unvisited -= 1;
                        }
                        let cell = &mut self.avisited[index * n + node_index];
                        if !*cell {
                            *cell = true;
                            self.vcount[index] += 1;
                        }
                    }
                }
            }
            if self.poll[index] && self.prog[index].has_terminated() && !self.term[index] {
                self.alive -= 1;
                self.term[index] = true;
                self.terminated_at[index] = Some(r);
                self.held[index] = None;
            }
        }
        if self.explored.is_none() && self.unvisited == 0 {
            self.explored = Some(r);
        }
        // Trace recording: the same columnar flat appends as the solo step,
        // fed from the staged solo-shaped inputs (`Option` decisions exist
        // exactly for the agents active at the start of the round).
        if let Some(trace) = self.trace.as_mut() {
            for index in 0..a {
                self.tdec[index] = if self.tmask[index] { Some(self.dec[index]) } else { None };
            }
            trace.record_round_from_lane(
                r,
                missing,
                n - self.unvisited,
                n,
                &self.act[..active_len],
                self.tmask,
                self.tnodes,
                self.node,
                self.held,
                self.tdec,
                self.prior,
                self.term,
                self.prog,
            );
        }
    }
}

/// Builds the [`LaneRef`] of lane `lane` from the batch's flat arrays.
#[allow(clippy::too_many_arguments)]
fn lane_ref_at<'a>(
    lane: usize,
    a: usize,
    node: &'a [NodeId],
    held_port: &'a [Option<GlobalDirection>],
    terminated: &'a [bool],
    handedness: &'a [Handedness],
    prior: &'a [PriorOutcome],
    last_active_round: &'a [u64],
    asleep_on_port: &'a [u64],
    moves: &'a [u64],
    crowded_nodes: usize,
) -> LaneRef<'a> {
    LaneRef {
        node: &node[lane * a..][..a],
        held_port: &held_port[lane * a..][..a],
        terminated: &terminated[lane * a..][..a],
        handedness: &handedness[lane * a..][..a],
        prior: &prior[lane * a..][..a],
        last_active_round: &last_active_round[lane * a..][..a],
        asleep_on_port: &asleep_on_port[lane * a..][..a],
        moves: &moves[lane * a..][..a],
        crowded_nodes,
    }
}

/// The solo `build_snapshot` over hoisted lane slices — what agent
/// `observer` perceives during Look, with the occupancy scan skipped while
/// no node in the lane holds two agents (`crowded == 0`). FSYNC only
/// (`round_hint` always set).
#[allow(clippy::too_many_arguments)]
fn snapshot_at(
    ring: &RingTopology,
    crowded: usize,
    node: &[NodeId],
    held_port: &[Option<GlobalDirection>],
    observer: usize,
    observer_handedness: Handedness,
    prior: PriorOutcome,
    round: u64,
) -> Snapshot {
    let observer_node = node[observer];
    let mut occupancy = NodeOccupancy::default();
    if crowded > 0 {
        for index in 0..node.len() {
            if index == observer || node[index] != observer_node {
                continue;
            }
            match held_port[index] {
                None => occupancy.in_node += 1,
                Some(gdir) => match to_local(observer_handedness, gdir) {
                    LocalDirection::Left => occupancy.on_left_port += 1,
                    LocalDirection::Right => occupancy.on_right_port += 1,
                },
            }
        }
    }
    let position = match held_port[observer] {
        None => LocalPosition::InNode,
        Some(gdir) => LocalPosition::OnPort(to_local(observer_handedness, gdir)),
    };
    Snapshot {
        position,
        is_landmark: ring.is_landmark(observer_node),
        occupancy,
        prior,
        round_hint: Some(round),
    }
}

impl std::fmt::Debug for SimBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBatch")
            .field("lanes", &self.specs.len())
            .field("ring_size", &self.ring_size)
            .field("agent_count", &self.agent_count)
            .field("fsync", &self.fsync)
            .field("active_lanes", &self.active_lanes.len())
            .finish_non_exhaustive()
    }
}

impl SimBatch {
    /// An empty batch; [`load`](SimBatch::load) lanes into it before running.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes currently loaded.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.specs.len()
    }

    /// Whether no lanes are loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The recorded trace of lane `lane` — `Some` once the lane has run iff
    /// its spec enabled trace recording. The trace is byte-identical to the
    /// one a solo [`Simulation`](crate::sim::Simulation) of the same
    /// spec/policies would record (`tests/batch_lockstep_equivalence.rs`).
    #[must_use]
    pub fn trace(&self, lane: usize) -> Option<&Trace> {
        self.traces.get(lane).and_then(Option::as_ref)
    }

    /// The cruise windows lane `lane` played in the current cycle — the
    /// counters a solo [`Simulation`](crate::sim::Simulation) of the same
    /// spec/policies reports through its `cruise_stats`.
    #[must_use]
    pub fn cruise_stats(&self, lane: usize) -> CruiseStats {
        self.cruise_stats.get(lane).copied().unwrap_or_default()
    }

    /// Loads a group of lanes, replacing any previous group while reusing
    /// every buffer, and rewinds the batch to round zero (an implicit
    /// [`recycle`](SimBatch::recycle)).
    ///
    /// # Errors
    ///
    /// [`EngineError::NoAgents`] for an empty group;
    /// [`EngineError::BatchMismatch`] when a lane's ring size, team size or
    /// synchrony model differs from lane 0's. Trace recording is per lane
    /// (any mix of trace-on and trace-off lanes batches fine): a lane whose
    /// spec records a trace fills it during the run, readable via
    /// [`trace`](SimBatch::trace) after [`run_into`](SimBatch::run_into).
    pub fn load(&mut self, lanes: Vec<BatchLane>) -> Result<(), EngineError> {
        let Some(first) = lanes.first() else {
            return Err(EngineError::NoAgents);
        };
        let n = first.spec.ring().size();
        let a = first.spec.agent_count();
        let synchrony = first.spec.synchrony();
        for (index, lane) in lanes.iter().enumerate() {
            if lane.spec.ring().size() != n {
                return Err(EngineError::BatchMismatch { lane: index, what: "ring size" });
            }
            if lane.spec.agent_count() != a {
                return Err(EngineError::BatchMismatch { lane: index, what: "team size" });
            }
            if lane.spec.synchrony() != synchrony {
                return Err(EngineError::BatchMismatch { lane: index, what: "synchrony model" });
            }
        }
        let b = lanes.len();
        self.ring_size = n;
        self.agent_count = a;
        self.fsync = synchrony.is_fsync();
        self.transport_pt = synchrony.transport() == Some(TransportModel::PassiveTransport);
        self.rings.clear();
        self.specs.clear();
        self.activation.clear();
        self.edges.clear();
        for lane in lanes {
            self.rings.push(lane.spec.ring().clone());
            self.activation.push(lane.activation);
            self.edges.push(lane.edges);
            self.specs.push(lane.spec);
        }
        refit(&mut self.node, b * a, NodeId::new(0));
        refit(&mut self.held_port, b * a, None);
        refit(&mut self.terminated, b * a, false);
        refit(&mut self.handedness, b * a, Handedness::LeftIsCcw);
        refit(&mut self.prior, b * a, PriorOutcome::Idle);
        refit(&mut self.moves, b * a, 0);
        refit(&mut self.activations, b * a, 0);
        refit(&mut self.last_active_round, b * a, 0);
        refit(&mut self.asleep_on_port, b * a, 0);
        refit(&mut self.terminated_at, b * a, None);
        refit(&mut self.poll_termination, b * a, false);
        refit(&mut self.visited_count, b * a, 1);
        refit(&mut self.agent_visited, b * a * n, false);
        refit(&mut self.visited, b * n, false);
        refit(&mut self.node_population, b * n, 0);
        refit(&mut self.crowded_nodes, b, 0);
        refit(&mut self.unvisited, b, 0);
        refit(&mut self.alive, b, 0);
        refit(&mut self.round, b, 0);
        refit(&mut self.explored_at, b, None);
        refit(&mut self.fviews, b * a, AgentView::VACANT);
        refit(&mut self.fdecisions, b * a, Decision::Stay);
        refit(&mut self.factive, b * a, AgentId::new(0));
        refit(&mut self.fnodes_before, b * a, NodeId::new(0));
        refit(&mut self.factive_mask, b * a, false);
        refit(&mut self.fdecisions_opt, b * a, None);
        // Keep surviving lanes' trace allocations so a trace-on lane of the
        // next group recycles capacity-intact; `recycle` toggles per lane.
        self.traces.truncate(b);
        self.traces.resize_with(b, || None);
        refit(&mut self.fslots, b * a, CruiseSlot::VACANT);
        refit(&mut self.cruise_stats, b, CruiseStats::default());
        // An agent can contribute two claim entries in one round (the port
        // it held at the start plus a newly acquired one), hence stride 2A.
        refit(&mut self.fclaimed, b * 2 * a, (NodeId::new(0), GlobalDirection::Cw));
        // Programs are refreshed by `recycle`; keeping the old entries lets
        // same-type templates reset through an in-place `clone_from`
        // without reboxing.
        self.program.truncate(b * a);
        if self.lane_scratch.len() < b {
            self.lane_scratch.resize_with(b, LaneScratch::default);
        }
        // Handedness and the termination-polling flag are fixed by the
        // lane's templates, so they are written once per load, not per
        // recycle.
        for (lane, spec) in self.specs.iter().enumerate() {
            for (index, agent) in spec.agent_specs().iter().enumerate() {
                self.handedness[lane * a + index] = agent.handedness;
                self.poll_termination[lane * a + index] =
                    agent.program.termination_kind() != TerminationKind::Unconscious;
            }
        }
        self.primed = false;
        self.recycle();
        Ok(())
    }

    /// Rewinds every lane to round zero of its spec in place — the batched
    /// counterpart of [`Simulation::recycle`](crate::sim::Simulation::recycle).
    /// The shared fields reset through bulk fills over the flat arrays; the
    /// per-lane pass re-places the agents, restores each program from its
    /// pristine template and resets the lane's policies. When the shapes
    /// match the previous cycle this performs zero heap allocations.
    pub fn recycle(&mut self) {
        let b = self.specs.len();
        let a = self.agent_count;
        let n = self.ring_size;
        if self.primed {
            // Every agent (terminated ones included) still occupies exactly
            // one node, so undoing the occupancy agent-by-agent zeroes the
            // populations in O(lanes * agents) instead of O(lanes * n).
            for (flat, at) in self.node.iter().enumerate() {
                self.node_population[(flat / a) * n + at.index()] -= 1;
            }
        } else {
            self.node_population.fill(0);
            self.primed = true;
        }
        self.visited.fill(false);
        self.agent_visited.fill(false);
        self.held_port.fill(None);
        self.terminated.fill(false);
        self.prior.fill(PriorOutcome::Idle);
        self.terminated_at.fill(None);
        self.visited_count.fill(1);
        self.explored_at.fill(None);
        self.moves.fill(0);
        self.activations.fill(0);
        self.last_active_round.fill(0);
        self.asleep_on_port.fill(0);
        self.round.fill(0);
        self.crowded_nodes.fill(0);
        self.alive.fill(a);
        self.cruise_stats.fill(CruiseStats::default());
        for (lane, spec) in self.specs.iter().enumerate() {
            let mut start_nodes = 0;
            for (index, agent) in spec.agent_specs().iter().enumerate() {
                let flat = lane * a + index;
                self.node[flat] = agent.start;
                match self.program.get_mut(flat) {
                    Some(live) => live.clone_from(&agent.program),
                    None => self.program.push(agent.program.clone()),
                }
                self.agent_visited[flat * n + agent.start.index()] = true;
                let population = &mut self.node_population[lane * n + agent.start.index()];
                *population += 1;
                if *population == 2 {
                    self.crowded_nodes[lane] += 1;
                }
                let slot = &mut self.visited[lane * n + agent.start.index()];
                if !*slot {
                    *slot = true;
                    start_nodes += 1;
                }
            }
            self.unvisited[lane] = n - start_nodes;
            self.activation[lane].reset();
            self.edges[lane].reset();
            // Same toggle as the solo recycle: clearing keeps the columns'
            // capacity, so a recycled trace-on lane records allocation-free.
            match (&mut self.traces[lane], spec.record_trace()) {
                (Some(trace), true) => trace.clear(),
                (slot @ None, true) => *slot = Some(Trace::new()),
                (slot, false) => *slot = None,
            }
        }
        self.active_lanes.clear();
        self.active_lanes.extend(0..b);
    }

    /// Plays every lane until its stop condition holds, it deadlocks, or the
    /// round budget is exhausted, writing lane ℓ's summary into
    /// `reports[ℓ]` (resized to the lane count; per-lane vectors reuse their
    /// capacity, so a recycled batch summarising into a recycled report
    /// vector allocates nothing). Each lane's report is byte-identical to
    /// running its spec/policies solo via
    /// [`Simulation::run_into`](crate::sim::Simulation::run_into) with the
    /// same budget and stop condition.
    ///
    /// One `run_into` consumes the current cycle: call
    /// [`recycle`](SimBatch::recycle) (or [`load`](SimBatch::load)) before
    /// the next one.
    pub fn run_into(
        &mut self,
        max_rounds: u64,
        stop: StopCondition,
        reports: &mut Vec<RunReport>,
    ) {
        let b = self.specs.len();
        reports.truncate(b);
        if reports.len() < b {
            reports.resize_with(b, RunReport::default);
        }
        if self.fsync {
            // FSYNC lanes are fully independent (no cross-lane scheduler
            // state), so they are played to completion — adjacent pairs
            // with their rounds interleaved to keep two instruction
            // streams in flight — and harvested immediately.
            let mut i = 0;
            while i < self.active_lanes.len() {
                let lane = self.active_lanes[i];
                let paired = self.active_lanes.get(i + 1) == Some(&(lane + 1));
                if paired {
                    let (s0, s1) = self.run_lane_pair_fsync(lane, max_rounds, stop);
                    self.harvest(lane, s0, reports);
                    self.harvest(lane + 1, s1, reports);
                    i += 2;
                } else {
                    let reason = self.run_lane_fsync(lane, max_rounds, stop);
                    self.harvest(lane, reason, reports);
                    i += 1;
                }
            }
            self.active_lanes.clear();
            return;
        }
        for _ in 0..max_rounds {
            self.cull(stop, reports);
            if self.active_lanes.is_empty() {
                return;
            }
            self.step_round();
        }
        // Budget exhausted: the solo loop's final check — a lane whose stop
        // condition holds after the last budgeted round still reports
        // `ConditionMet`.
        for i in 0..self.active_lanes.len() {
            let lane = self.active_lanes[i];
            let reason = if self.lane_stop_met(lane, stop) {
                StopReason::ConditionMet
            } else {
                StopReason::BudgetExhausted
            };
            self.harvest(lane, reason, reports);
        }
        self.active_lanes.clear();
    }

    /// Whether lane `lane`'s stop condition holds (mirrors the solo
    /// `stop_condition_met`).
    fn lane_stop_met(&self, lane: usize, stop: StopCondition) -> bool {
        condition_met(stop, self.explored_at[lane].is_some(), self.alive[lane], self.agent_count)
    }

    /// Harvests finished lanes out of the active set: a lane whose stop
    /// condition holds reports `ConditionMet`; a lane with no live agents
    /// (and an unmet condition) would make the solo `step` return `false`,
    /// so it reports `Deadlocked`. Matching the solo loop, this runs
    /// *before* each round is stepped.
    fn cull(&mut self, stop: StopCondition, reports: &mut [RunReport]) {
        let mut i = 0;
        while i < self.active_lanes.len() {
            let lane = self.active_lanes[i];
            let reason = if self.lane_stop_met(lane, stop) {
                Some(StopReason::ConditionMet)
            } else if self.alive[lane] == 0 {
                Some(StopReason::Deadlocked)
            } else {
                None
            };
            match reason {
                Some(reason) => {
                    self.harvest(lane, reason, reports);
                    self.active_lanes.swap_remove(i);
                }
                None => i += 1,
            }
        }
    }

    /// Writes lane `lane`'s summary into `reports[lane]` — field for field
    /// the solo `report_into`, reading the per-agent visit totals from the
    /// incrementally maintained counters.
    fn harvest(&self, lane: usize, reason: StopReason, reports: &mut [RunReport]) {
        let a = self.agent_count;
        let out = &mut reports[lane];
        out.rounds = self.round[lane];
        out.ring_size = self.ring_size;
        out.explored_at = self.explored_at[lane];
        out.visited_count = self.ring_size - self.unvisited[lane];
        out.termination_rounds.clear();
        out.termination_rounds.extend_from_slice(&self.terminated_at[lane * a..][..a]);
        out.all_terminated = self.alive[lane] == 0;
        out.moves_per_agent.clear();
        out.moves_per_agent.extend_from_slice(&self.moves[lane * a..][..a]);
        out.visited_per_agent.clear();
        out.visited_per_agent.extend_from_slice(&self.visited_count[lane * a..][..a]);
        out.total_moves = self.moves[lane * a..][..a].iter().sum();
        out.stop_reason = reason;
    }

    /// Advances every active lane by one round (SSYNC lockstep path; FSYNC
    /// lanes run to completion in [`SimBatch::run_lane_fsync`]).
    fn step_round(&mut self) {
        debug_assert!(!self.fsync);
        self.step_round_ssync();
    }

    /// Plays lane `lane` from its current round until its stop condition
    /// holds, it deadlocks, or `max_rounds` total rounds have been stepped,
    /// returning why it stopped. See [`FsyncLane`] for the fused round
    /// body; lanes are independent, so playing one to completion before
    /// the next is observationally equivalent to round-lockstep stepping.
    fn run_lane_fsync(&mut self, lane: usize, max_rounds: u64, stop: StopCondition) -> StopReason {
        let a = self.agent_count;
        let n = self.ring_size;
        debug_assert!(!self.transport_pt, "FSYNC has no passive transport");
        let base = lane * a;
        let Self {
            rings,
            round,
            edges,
            node,
            held_port,
            terminated,
            handedness,
            prior,
            program,
            moves,
            activations,
            last_active_round,
            asleep_on_port,
            terminated_at,
            poll_termination,
            agent_visited,
            visited_count,
            visited,
            node_population,
            crowded_nodes,
            unvisited,
            alive,
            explored_at,
            fviews,
            fdecisions,
            factive,
            fclaimed,
            fnodes_before,
            factive_mask,
            fdecisions_opt,
            traces,
            fslots,
            cruise_stats,
            ..
        } = self;
        let mut hot = FsyncLane {
            ring: &rings[lane],
            edges: &mut edges[lane],
            node: &mut node[base..base + a],
            held: &mut held_port[base..base + a],
            term: &mut terminated[base..base + a],
            hand: &handedness[base..base + a],
            prior: &mut prior[base..base + a],
            prog: &mut program[base..base + a],
            moves: &mut moves[base..base + a],
            activations: &mut activations[base..base + a],
            last_active: &mut last_active_round[base..base + a],
            asleep: &mut asleep_on_port[base..base + a],
            terminated_at: &mut terminated_at[base..base + a],
            poll: &poll_termination[base..base + a],
            vcount: &mut visited_count[base..base + a],
            views: &mut fviews[base..base + a],
            dec: &mut fdecisions[base..base + a],
            act: &mut factive[base..base + a],
            claim: &mut fclaimed[2 * base..2 * base + 2 * a],
            visited: &mut visited[lane * n..lane * n + n],
            population: &mut node_population[lane * n..lane * n + n],
            avisited: &mut agent_visited[base * n..base * n + a * n],
            trace: traces[lane].as_mut(),
            tnodes: &mut fnodes_before[base..base + a],
            tmask: &mut factive_mask[base..base + a],
            tdec: &mut fdecisions_opt[base..base + a],
            slots: &mut fslots[base..base + a],
            stats: &mut cruise_stats[lane],
            crowded: crowded_nodes[lane],
            alive: alive[lane],
            unvisited: unvisited[lane],
            explored: explored_at[lane],
            r: round[lane],
            left: max_rounds,
            next_probe: round[lane] + CRUISE_PROBE_BACKOFF,
        };
        let predict = hot.edges.needs_predictions();
        let reason = loop {
            if let Some(reason) = hot.advance(a, n, predict, stop) {
                break reason;
            }
        };
        crowded_nodes[lane] = hot.crowded;
        alive[lane] = hot.alive;
        unvisited[lane] = hot.unvisited;
        explored_at[lane] = hot.explored;
        round[lane] = hot.r;
        reason
    }

    /// Plays the adjacent lane pair `(lane, lane + 1)` with their rounds
    /// interleaved in one loop: lane `lane` steps round *r*, then lane
    /// `lane + 1` steps round *r*, and so on. Each lane's observable
    /// sequence is untouched (lanes share no state), but the two
    /// independent instruction streams overlap in the pipeline, hiding the
    /// protocols' loop-carried Compute latency that a lane run serially
    /// would expose.
    #[allow(clippy::too_many_lines)]
    fn run_lane_pair_fsync(
        &mut self,
        lane: usize,
        max_rounds: u64,
        stop: StopCondition,
    ) -> (StopReason, StopReason) {
        let a = self.agent_count;
        let n = self.ring_size;
        debug_assert!(!self.transport_pt, "FSYNC has no passive transport");
        let base = lane * a;
        let Self {
            rings,
            round,
            edges,
            node,
            held_port,
            terminated,
            handedness,
            prior,
            program,
            moves,
            activations,
            last_active_round,
            asleep_on_port,
            terminated_at,
            poll_termination,
            agent_visited,
            visited_count,
            visited,
            node_population,
            crowded_nodes,
            unvisited,
            alive,
            explored_at,
            fviews,
            fdecisions,
            factive,
            fclaimed,
            fnodes_before,
            factive_mask,
            fdecisions_opt,
            traces,
            fslots,
            cruise_stats,
            ..
        } = self;
        let (edges0, edges1) = edges[lane..lane + 2].split_at_mut(1);
        let (node0, node1) = node[base..base + 2 * a].split_at_mut(a);
        let (held0, held1) = held_port[base..base + 2 * a].split_at_mut(a);
        let (term0, term1) = terminated[base..base + 2 * a].split_at_mut(a);
        let (hand0, hand1) = handedness[base..base + 2 * a].split_at(a);
        let (prior0, prior1) = prior[base..base + 2 * a].split_at_mut(a);
        let (prog0, prog1) = program[base..base + 2 * a].split_at_mut(a);
        let (moves0, moves1) = moves[base..base + 2 * a].split_at_mut(a);
        let (activations0, activations1) = activations[base..base + 2 * a].split_at_mut(a);
        let (last0, last1) = last_active_round[base..base + 2 * a].split_at_mut(a);
        let (asleep0, asleep1) = asleep_on_port[base..base + 2 * a].split_at_mut(a);
        let (tat0, tat1) = terminated_at[base..base + 2 * a].split_at_mut(a);
        let (poll0, poll1) = poll_termination[base..base + 2 * a].split_at(a);
        let (vcount0, vcount1) = visited_count[base..base + 2 * a].split_at_mut(a);
        let (views0, views1) = fviews[base..base + 2 * a].split_at_mut(a);
        let (dec0, dec1) = fdecisions[base..base + 2 * a].split_at_mut(a);
        let (act0, act1) = factive[base..base + 2 * a].split_at_mut(a);
        let (claim0, claim1) = fclaimed[2 * base..2 * base + 4 * a].split_at_mut(2 * a);
        let (visited0, visited1) = visited[lane * n..(lane + 2) * n].split_at_mut(n);
        let (pop0, pop1) = node_population[lane * n..(lane + 2) * n].split_at_mut(n);
        let (av0, av1) = agent_visited[base * n..base * n + 2 * a * n].split_at_mut(a * n);
        let (tn0, tn1) = fnodes_before[base..base + 2 * a].split_at_mut(a);
        let (tm0, tm1) = factive_mask[base..base + 2 * a].split_at_mut(a);
        let (td0, td1) = fdecisions_opt[base..base + 2 * a].split_at_mut(a);
        let (trace0, trace1) = traces[lane..lane + 2].split_at_mut(1);
        let (slots0, slots1) = fslots[base..base + 2 * a].split_at_mut(a);
        let (stats0, stats1) = cruise_stats[lane..lane + 2].split_at_mut(1);
        let mut h0 = FsyncLane {
            ring: &rings[lane],
            edges: &mut edges0[0],
            node: node0,
            held: held0,
            term: term0,
            hand: hand0,
            prior: prior0,
            prog: prog0,
            moves: moves0,
            activations: activations0,
            last_active: last0,
            asleep: asleep0,
            terminated_at: tat0,
            poll: poll0,
            vcount: vcount0,
            views: views0,
            dec: dec0,
            act: act0,
            claim: claim0,
            visited: visited0,
            population: pop0,
            avisited: av0,
            trace: trace0[0].as_mut(),
            tnodes: tn0,
            tmask: tm0,
            tdec: td0,
            slots: slots0,
            stats: &mut stats0[0],
            crowded: crowded_nodes[lane],
            alive: alive[lane],
            unvisited: unvisited[lane],
            explored: explored_at[lane],
            r: round[lane],
            left: max_rounds,
            next_probe: round[lane] + CRUISE_PROBE_BACKOFF,
        };
        let mut h1 = FsyncLane {
            ring: &rings[lane + 1],
            edges: &mut edges1[0],
            node: node1,
            held: held1,
            term: term1,
            hand: hand1,
            prior: prior1,
            prog: prog1,
            moves: moves1,
            activations: activations1,
            last_active: last1,
            asleep: asleep1,
            terminated_at: tat1,
            poll: poll1,
            vcount: vcount1,
            views: views1,
            dec: dec1,
            act: act1,
            claim: claim1,
            visited: visited1,
            population: pop1,
            avisited: av1,
            trace: trace1[0].as_mut(),
            tnodes: tn1,
            tmask: tm1,
            tdec: td1,
            slots: slots1,
            stats: &mut stats1[0],
            crowded: crowded_nodes[lane + 1],
            alive: alive[lane + 1],
            unvisited: unvisited[lane + 1],
            explored: explored_at[lane + 1],
            r: round[lane + 1],
            left: max_rounds,
            next_probe: round[lane + 1] + CRUISE_PROBE_BACKOFF,
        };
        let predict0 = h0.edges.needs_predictions();
        let predict1 = h1.edges.needs_predictions();
        let mut s0 = None;
        let mut s1 = None;
        while s0.is_none() || s1.is_none() {
            if s0.is_none() {
                s0 = h0.advance(a, n, predict0, stop);
            }
            if s1.is_none() {
                s1 = h1.advance(a, n, predict1, stop);
            }
        }
        let (Some(s0), Some(s1)) = (s0, s1) else { unreachable!("both lanes stopped") };
        crowded_nodes[lane] = h0.crowded;
        alive[lane] = h0.alive;
        unvisited[lane] = h0.unvisited;
        explored_at[lane] = h0.explored;
        round[lane] = h0.r;
        crowded_nodes[lane + 1] = h1.crowded;
        alive[lane + 1] = h1.alive;
        unvisited[lane + 1] = h1.unvisited;
        explored_at[lane + 1] = h1.explored;
        round[lane + 1] = h1.r;
        (s0, s1)
    }

    fn step_round_ssync(&mut self) {
        let a = self.agent_count;
        let n = self.ring_size;
        let Self {
            active_lanes,
            rings,
            round,
            lane_scratch,
            activation,
            edges,
            node,
            held_port,
            terminated,
            handedness,
            prior,
            program,
            moves,
            activations,
            last_active_round,
            asleep_on_port,
            terminated_at,
            poll_termination,
            agent_visited,
            visited_count,
            visited,
            node_population,
            crowded_nodes,
            unvisited,
            alive,
            explored_at,
            transport_pt,
            traces,
            ..
        } = self;
        for &lane in active_lanes.iter() {
            let r = round[lane] + 1;
            round[lane] = r;
            let ring = &rings[lane];
            let scratch = &mut lane_scratch[lane];
            let act_pred = activation[lane].needs_predictions();
            let edges_pred = edges[lane].needs_predictions();
            let predict = act_pred || edges_pred;
            // 1. Fill + activation choice (predictions only when the
            // activation policy reads them — the deferred tier below covers
            // an omniscient edge policy).
            {
                let lane_ref = lane_ref_at(
                    lane,
                    a,
                    node,
                    held_port,
                    terminated,
                    handedness,
                    prior,
                    last_active_round,
                    asleep_on_port,
                    moves,
                    crowded_nodes[lane],
                );
                fill_agent_views_lane(
                    &mut scratch.views,
                    &mut scratch.predicted,
                    &mut scratch.probes,
                    ring,
                    &lane_ref,
                    &program[lane * a..][..a],
                    r,
                    false,
                    act_pred,
                );
            }
            {
                let view = RoundView {
                    round: r,
                    ring,
                    agents: Cow::Borrowed(&scratch.views),
                    visited: &visited[lane * n..][..n],
                };
                scratch.active.clear();
                scratch.chosen.clear();
                activation[lane].select_into(&view, &mut scratch.chosen);
                let lane_terminated = &terminated[lane * a..][..a];
                scratch.chosen.retain(|id| lane_terminated.get(id.index()).is_some_and(|t| !*t));
                if scratch.chosen.len() > 1 {
                    scratch.chosen.sort_unstable();
                    scratch.chosen.dedup();
                }
                if scratch.chosen.is_empty() {
                    scratch.active.extend(view.alive().map(|agent| agent.id));
                } else {
                    scratch.active.extend(scratch.chosen.iter().copied());
                }
            }
            debug_assert!(
                scratch.active.windows(2).all(|w| w[0] < w[1]),
                "active set must be sorted and deduplicated"
            );
            scratch.active_mask.clear();
            scratch.active_mask.resize(a, false);
            for id in &scratch.active {
                scratch.active_mask[id.index()] = true;
            }
            // Keep the start-of-round nodes for the trace (trace-only work).
            if traces[lane].is_some() {
                scratch.nodes_before.clear();
                scratch.nodes_before.extend_from_slice(&node[lane * a..][..a]);
            }
            // Deferred predictions (omniscient edge policy, non-predicting
            // scheduler): actives decide on the live protocols, sleepers
            // dry-run a probe only if the edge policy reads them.
            let deferred = predict && !act_pred;
            if deferred {
                let probe_sleepers = edges[lane].needs_sleeper_predictions();
                scratch.decisions.clear();
                scratch.decisions.resize(a, None);
                for index in 0..a {
                    if terminated[lane * a + index] {
                        continue;
                    }
                    let agent_node = node[lane * a + index];
                    let agent_handedness = handedness[lane * a + index];
                    let lane_ref = lane_ref_at(
                        lane,
                        a,
                        node,
                        held_port,
                        terminated,
                        handedness,
                        prior,
                        last_active_round,
                        asleep_on_port,
                        moves,
                        crowded_nodes[lane],
                    );
                    let decision = if scratch.active_mask[index] {
                        let snapshot = build_snapshot_lane(ring, &lane_ref, index, r, false);
                        let decision = program[lane * a + index].decide(&snapshot);
                        scratch.decisions[index] = Some(decision);
                        decision
                    } else if probe_sleepers {
                        let snapshot = build_snapshot_lane(ring, &lane_ref, index, r, false);
                        scratch
                            .probes
                            .refresh(index, program[lane * a + index].as_ref())
                            .decide(&snapshot)
                    } else {
                        continue;
                    };
                    scratch.views[index].predicted =
                        predict_action(ring, agent_node, agent_handedness, decision);
                }
            }
            // 2. Edge adversary.
            let lane_missing = {
                let view = RoundView {
                    round: r,
                    ring,
                    agents: Cow::Borrowed(&scratch.views),
                    visited: &visited[lane * n..][..n],
                };
                edges[lane].select(&view, &scratch.active).filter(|e| e.index() < n)
            };
            // 3. Look + Compute for the active set (fused with the probe
            // pass when the scheduler predicted).
            if !deferred {
                scratch.decisions.clear();
                scratch.decisions.resize(a, None);
                for index in 0..a {
                    if !scratch.active_mask[index] {
                        continue;
                    }
                    let decision = if predict {
                        debug_assert!(act_pred);
                        let decision = scratch.predicted[index]
                            .expect("every live agent carries a prediction on prediction rounds");
                        scratch.probes.swap(index, &mut program[lane * a + index]);
                        decision
                    } else {
                        let lane_ref = lane_ref_at(
                            lane,
                            a,
                            node,
                            held_port,
                            terminated,
                            handedness,
                            prior,
                            last_active_round,
                            asleep_on_port,
                            moves,
                            crowded_nodes[lane],
                        );
                        let snapshot = build_snapshot_lane(ring, &lane_ref, index, r, false);
                        program[lane * a + index].decide(&snapshot)
                    };
                    scratch.decisions[index] = Some(decision);
                }
            }
            // Ports denied for the whole round: start-of-round held ports.
            scratch.claimed.clear();
            for index in 0..a {
                if let Some(port) = held_port[lane * a + index] {
                    scratch.claimed.push((node[lane * a + index], port));
                }
            }
            // 4–6. Resolution, passive transport, bookkeeping.
            let lane_state = LaneStateMut {
                node: &mut node[lane * a..][..a],
                held_port: &mut held_port[lane * a..][..a],
                terminated: &mut terminated[lane * a..][..a],
                handedness: &handedness[lane * a..][..a],
                prior: &mut prior[lane * a..][..a],
                program: &mut program[lane * a..][..a],
                moves: &mut moves[lane * a..][..a],
                activations: &mut activations[lane * a..][..a],
                last_active_round: &mut last_active_round[lane * a..][..a],
                asleep_on_port: &mut asleep_on_port[lane * a..][..a],
                terminated_at: &mut terminated_at[lane * a..][..a],
                poll_termination: &poll_termination[lane * a..][..a],
                agent_visited: &mut agent_visited[lane * a * n..][..a * n],
                visited_count: &mut visited_count[lane * a..][..a],
                ring_size: n,
                node_population: &mut node_population[lane * n..][..n],
                crowded_nodes: &mut crowded_nodes[lane],
                global_visited: &mut visited[lane * n..][..n],
                unvisited: &mut unvisited[lane],
                alive: &mut alive[lane],
            };
            resolve_lane(
                ring,
                lane_state,
                &scratch.decisions[..a],
                &scratch.active_mask[..a],
                &mut scratch.claimed,
                lane_missing,
                r,
                false,
                *transport_pt,
            );
            if explored_at[lane].is_none() && unvisited[lane] == 0 {
                explored_at[lane] = Some(r);
            }
            // Trace recording: identical columnar appends to the solo step
            // (the scratch already carries the solo-shaped round inputs).
            if let Some(trace) = traces[lane].as_mut() {
                trace.record_round_from_lane(
                    r,
                    lane_missing,
                    n - unvisited[lane],
                    n,
                    &scratch.active,
                    &scratch.active_mask[..a],
                    &scratch.nodes_before,
                    &node[lane * a..][..a],
                    &held_port[lane * a..][..a],
                    &scratch.decisions[..a],
                    &prior[lane * a..][..a],
                    &terminated[lane * a..][..a],
                    &program[lane * a..][..a],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BlockAgent, NoRemoval};
    use crate::scheduler::{FullActivation, RoundRobinSingle};
    use crate::sim::AgentSpec;
    use dynring_core::fsync::KnownBound;
    use dynring_model::SynchronyModel;

    fn spec(n: usize, starts: &[usize], synchrony: SynchronyModel) -> RunSpec {
        let agents = starts
            .iter()
            .map(|&start| AgentSpec {
                start: NodeId::new(start),
                handedness: Handedness::LeftIsCcw,
                program: Box::new(KnownBound::new(n)),
            })
            .collect();
        RunSpec::new(RingTopology::new(n).unwrap(), synchrony, agents, false).unwrap()
    }

    fn fsync_lane(n: usize, starts: &[usize]) -> BatchLane {
        BatchLane {
            spec: spec(n, starts, SynchronyModel::Fsync),
            activation: Box::new(FullActivation),
            edges: Box::new(NoRemoval),
        }
    }

    #[test]
    fn empty_batch_is_rejected() {
        let mut batch = SimBatch::new();
        assert_eq!(batch.load(Vec::new()), Err(EngineError::NoAgents));
        assert!(batch.is_empty());
    }

    #[test]
    fn shape_mismatches_are_rejected_with_the_offending_lane() {
        let mut batch = SimBatch::new();
        let err = batch.load(vec![fsync_lane(8, &[0]), fsync_lane(9, &[0])]).unwrap_err();
        assert_eq!(err, EngineError::BatchMismatch { lane: 1, what: "ring size" });
        let err = batch.load(vec![fsync_lane(8, &[0]), fsync_lane(8, &[0, 1])]).unwrap_err();
        assert_eq!(err, EngineError::BatchMismatch { lane: 1, what: "team size" });
        let mixed = BatchLane {
            spec: spec(8, &[0], SynchronyModel::Ssync(TransportModel::PassiveTransport)),
            activation: Box::new(RoundRobinSingle::new()),
            edges: Box::new(NoRemoval),
        };
        let err = batch.load(vec![fsync_lane(8, &[0]), mixed]).unwrap_err();
        assert_eq!(err, EngineError::BatchMismatch { lane: 1, what: "synchrony model" });
    }



    #[test]
    fn batched_lanes_match_solo_runs_and_recycle_identically() {
        let mut lanes = Vec::new();
        for shift in 0..5 {
            lanes.push(BatchLane {
                spec: spec(8, &[shift, shift + 2], SynchronyModel::Fsync),
                activation: Box::new(FullActivation),
                edges: Box::new(BlockAgent::new(AgentId::new(0))),
            });
        }
        let mut batch = SimBatch::new();
        batch.load(lanes).unwrap();
        assert_eq!(batch.lane_count(), 5);
        let mut reports = Vec::new();
        batch.run_into(200, StopCondition::AllTerminated, &mut reports);
        assert_eq!(reports.len(), 5);
        for (shift, report) in reports.iter().enumerate() {
            let solo_spec = spec(8, &[shift, shift + 2], SynchronyModel::Fsync);
            let mut solo = solo_spec.instantiate(
                Box::new(FullActivation),
                Box::new(BlockAgent::new(AgentId::new(0))),
            );
            let solo_report = solo.run(200, StopCondition::AllTerminated);
            assert_eq!(*report, solo_report, "lane {shift}");
        }
        // A recycled cycle reproduces the same reports.
        batch.recycle();
        let mut again = Vec::new();
        batch.run_into(200, StopCondition::AllTerminated, &mut again);
        assert_eq!(reports, again);
    }
}
