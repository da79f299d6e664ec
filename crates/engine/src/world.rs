//! The simulator's "god view" of the ring and the agents.
//!
//! Nothing in this module is visible to the protocols; they only ever receive
//! [`dynring_model::Snapshot`]s built from it. Adversaries, on the
//! other hand, receive the full [`RoundView`], including a prediction of what
//! every agent would do if activated — this is legitimate because the
//! protocols are deterministic, so an omniscient adversary could compute the
//! same prediction by simulation, exactly as the adversaries in the paper's
//! impossibility proofs do.
//!
//! Agent state is laid out as a **struct of arrays** (`AgentSoA`): the
//! fields read by the per-round hot loops — the Look snapshot's occupancy
//! pass and the scheduler's activation scans — are dense parallel vectors
//! indexed by agent, while cold state (the agent program, per-agent visit
//! maps, statistics) lives in separate arrays the hot passes never touch.
//! Each program is a `Box<dyn Protocol>`, the one agent-program
//! representation for catalogue and user-defined protocols alike. Decision
//! predictions reuse per-agent probe instances from a private probe pool (an
//! in-place state copy per round through [`Protocol::clone_from_box`])
//! instead of boxing a fresh clone, so the omniscient-adversary path is
//! allocation-free in the steady state too.

use dynring_graph::{AgentId, EdgeId, GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::{
    copy_program, Decision, LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Protocol,
    Snapshot, TerminationKind,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Converts a local direction into the global frame of an agent with the
/// given orientation.
pub(crate) fn to_global(handedness: Handedness, dir: LocalDirection) -> GlobalDirection {
    match dir {
        LocalDirection::Left => handedness.local_left(),
        LocalDirection::Right => handedness.local_right(),
    }
}

/// Converts a global direction into the local frame of an agent with the
/// given orientation.
pub(crate) fn to_local(handedness: Handedness, dir: GlobalDirection) -> LocalDirection {
    if dir == handedness.local_left() {
        LocalDirection::Left
    } else {
        LocalDirection::Right
    }
}

/// Mutable per-agent runtime state owned by the simulation, in
/// struct-of-arrays layout. All vectors are parallel and indexed by agent
/// (agents are stored in id order, so the index *is* the [`AgentId`]).
#[derive(Debug, Default)]
pub(crate) struct AgentSoA {
    /// Hot: the node each agent currently occupies.
    pub node: Vec<NodeId>,
    /// Hot: the port (by global direction) each agent holds, if any.
    pub held_port: Vec<Option<GlobalDirection>>,
    /// Hot: whether each agent has terminated.
    pub terminated: Vec<bool>,
    /// Hot: each agent's private orientation.
    pub handedness: Vec<Handedness>,
    /// Hot: the outcome each agent will be shown at its next Look.
    pub prior: Vec<PriorOutcome>,
    /// Cold: the program (Compute state machine) of each agent.
    pub program: Vec<Box<dyn Protocol>>,
    /// Cold: successful traversals per agent.
    pub moves: Vec<u64>,
    /// Cold: activations per agent.
    pub activations: Vec<u64>,
    /// Cold: the last round each agent was active (0 = never).
    pub last_active_round: Vec<u64>,
    /// Cold: consecutive rounds spent asleep while holding a port (ET
    /// fairness accounting).
    pub asleep_on_port: Vec<u64>,
    /// Cold: per-agent termination rounds.
    pub terminated_at: Vec<Option<u64>>,
    /// Cold: whether the engine must poll `Protocol::has_terminated` after
    /// each decision. Protocols declaring [`TerminationKind::Unconscious`]
    /// promise they never enter a terminal state, so the per-round virtual
    /// call is skipped for them.
    pub poll_termination: Vec<bool>,
    /// Cold: per-agent visit maps, flattened row-major
    /// (`agent * ring_size + node`).
    pub visited: Vec<bool>,
    /// Cold: number of `true` entries in each agent's row of `visited`,
    /// maintained incrementally by the resolution phase so reports read the
    /// count in O(1) instead of re-scanning the row.
    pub visited_count: Vec<usize>,
    /// Ring size (row stride of `visited`).
    pub ring_size: usize,
    /// Number of agents standing on each node (index = node id), maintained
    /// incrementally on every move/transport.
    pub node_population: Vec<u32>,
    /// Number of nodes holding two or more agents. While this is zero the
    /// Look occupancy of every agent is trivially empty, so
    /// [`build_snapshot`] skips its scan over the team entirely — the common
    /// case under a meeting-preventing adversary, and the difference between
    /// O(k) and O(k²) Look work per round for large teams.
    pub crowded_nodes: usize,
}

impl AgentSoA {
    /// An empty team on a ring of the given size.
    pub(crate) fn new(ring_size: usize) -> Self {
        AgentSoA {
            ring_size,
            node_population: vec![0; ring_size],
            ..AgentSoA::default()
        }
    }

    /// Appends an agent; its start node is marked visited in its private map.
    pub(crate) fn push(&mut self, node: NodeId, handedness: Handedness, program: Box<dyn Protocol>) {
        self.node.push(node);
        self.held_port.push(None);
        self.terminated.push(false);
        self.handedness.push(handedness);
        self.prior.push(PriorOutcome::Idle);
        self.poll_termination
            .push(program.termination_kind() != TerminationKind::Unconscious);
        self.program.push(program);
        self.moves.push(0);
        self.activations.push(0);
        self.last_active_round.push(0);
        self.asleep_on_port.push(0);
        self.terminated_at.push(None);
        let start = self.visited.len();
        self.visited.resize(start + self.ring_size, false);
        self.visited[start + node.index()] = true;
        self.visited_count.push(1);
        self.node_population[node.index()] += 1;
        if self.node_population[node.index()] == 2 {
            self.crowded_nodes += 1;
        }
    }

    /// Re-initialises the whole team in place from per-agent templates: every
    /// parallel vector is cleared and refilled (capacity reused — no
    /// allocation when the shape matches a previous run, and vector growth is
    /// the only allocation when it does not), and each agent's program copies
    /// the template's pristine state in place (`Clone::clone_from` on the
    /// box, falling back to a fresh clone on a type mismatch). This is the
    /// team half of
    /// [`Simulation::recycle`](crate::sim::Simulation::recycle).
    pub(crate) fn reset_from<'a>(
        &mut self,
        ring_size: usize,
        specs: impl ExactSizeIterator<Item = (NodeId, Handedness, &'a Box<dyn Protocol>)>,
    ) {
        let count = specs.len();
        self.ring_size = ring_size;
        self.node.clear();
        self.handedness.clear();
        self.held_port.clear();
        self.held_port.resize(count, None);
        self.terminated.clear();
        self.terminated.resize(count, false);
        self.prior.clear();
        self.prior.resize(count, PriorOutcome::Idle);
        self.moves.clear();
        self.moves.resize(count, 0);
        self.activations.clear();
        self.activations.resize(count, 0);
        self.last_active_round.clear();
        self.last_active_round.resize(count, 0);
        self.asleep_on_port.clear();
        self.asleep_on_port.resize(count, 0);
        self.terminated_at.clear();
        self.terminated_at.resize(count, None);
        self.poll_termination.clear();
        self.program.truncate(count);
        self.visited.clear();
        self.visited.resize(count * ring_size, false);
        self.visited_count.clear();
        self.visited_count.resize(count, 1);
        self.node_population.clear();
        self.node_population.resize(ring_size, 0);
        self.crowded_nodes = 0;
        for (index, (node, handedness, template)) in specs.enumerate() {
            debug_assert!(node.index() < ring_size, "RunSpec starts are validated");
            self.node.push(node);
            self.handedness.push(handedness);
            self.poll_termination
                .push(template.termination_kind() != TerminationKind::Unconscious);
            match self.program.get_mut(index) {
                Some(live) => live.clone_from(template),
                None => self.program.push(template.clone()),
            }
            self.visited[index * ring_size + node.index()] = true;
            self.node_population[node.index()] += 1;
            if self.node_population[node.index()] == 2 {
                self.crowded_nodes += 1;
            }
        }
    }

    /// Records that an agent left `from` for `to`, keeping the population
    /// index and the crowded-node counter in sync.
    #[inline]
    pub(crate) fn relocate(
        node_population: &mut [u32],
        crowded_nodes: &mut usize,
        from: NodeId,
        to: NodeId,
    ) {
        node_population[from.index()] -= 1;
        if node_population[from.index()] == 1 {
            *crowded_nodes -= 1;
        }
        node_population[to.index()] += 1;
        if node_population[to.index()] == 2 {
            *crowded_nodes += 1;
        }
    }

    /// Number of agents.
    pub(crate) fn len(&self) -> usize {
        self.node.len()
    }

    /// The number of distinct nodes agent `index` has visited (maintained
    /// incrementally; equals the number of `true` entries in the agent's
    /// row of the visit map).
    pub(crate) fn visited_count(&self, index: usize) -> usize {
        debug_assert_eq!(
            self.visited_count[index],
            self.visited[index * self.ring_size..(index + 1) * self.ring_size]
                .iter()
                .filter(|v| **v)
                .count(),
            "incremental per-agent visit counter out of sync"
        );
        self.visited_count[index]
    }

    /// Whether every agent has terminated (a straight pass over one dense
    /// bool slice).
    pub(crate) fn all_terminated(&self) -> bool {
        self.terminated.iter().all(|t| *t)
    }

    /// Splits the team into the immutable hot-state [`LaneRef`] plus the
    /// mutable program slice — the borrow shape shared by the solo round
    /// loop and the batched engine, so [`fill_round_fsync`] and friends run
    /// on exactly the same slices either way.
    #[inline(always)]
    pub(crate) fn lane_split(&mut self) -> (LaneRef<'_>, &mut [Box<dyn Protocol>]) {
        (
            LaneRef {
                node: &self.node,
                held_port: &self.held_port,
                terminated: &self.terminated,
                handedness: &self.handedness,
                prior: &self.prior,
                last_active_round: &self.last_active_round,
                asleep_on_port: &self.asleep_on_port,
                moves: &self.moves,
                crowded_nodes: self.crowded_nodes,
            },
            &mut self.program,
        )
    }

    /// Immutable variant of [`AgentSoA::lane_split`].
    #[inline(always)]
    pub(crate) fn lane_ref(&self) -> (LaneRef<'_>, &[Box<dyn Protocol>]) {
        (
            LaneRef {
                node: &self.node,
                held_port: &self.held_port,
                terminated: &self.terminated,
                handedness: &self.handedness,
                prior: &self.prior,
                last_active_round: &self.last_active_round,
                asleep_on_port: &self.asleep_on_port,
                moves: &self.moves,
                crowded_nodes: self.crowded_nodes,
            },
            &self.program,
        )
    }

    /// Borrows the team's complete mutable state as a [`LaneStateMut`] for
    /// the resolution phase, joined with the run-level visit map and
    /// liveness counters that live outside the SoA.
    #[inline(always)]
    pub(crate) fn lane_state_mut<'a>(
        &'a mut self,
        global_visited: &'a mut [bool],
        unvisited: &'a mut usize,
        alive: &'a mut usize,
    ) -> LaneStateMut<'a> {
        LaneStateMut {
            node: &mut self.node,
            held_port: &mut self.held_port,
            terminated: &mut self.terminated,
            handedness: &self.handedness,
            prior: &mut self.prior,
            program: &mut self.program,
            moves: &mut self.moves,
            activations: &mut self.activations,
            last_active_round: &mut self.last_active_round,
            asleep_on_port: &mut self.asleep_on_port,
            terminated_at: &mut self.terminated_at,
            poll_termination: &self.poll_termination,
            agent_visited: &mut self.visited,
            visited_count: &mut self.visited_count,
            ring_size: self.ring_size,
            node_population: &mut self.node_population,
            crowded_nodes: &mut self.crowded_nodes,
            global_visited,
            unvisited,
            alive,
        }
    }
}

/// Borrowed, storage-agnostic view of one run's hot agent state: parallel
/// slices indexed by agent. The solo [`Simulation`](crate::sim::Simulation)
/// derives it from its [`AgentSoA`]; the batched engine
/// ([`SimBatch`](crate::sim_batch::SimBatch)) derives it from one lane's
/// stride of its run-major flat arrays — both then run the **same** fill,
/// Look and resolution code, which is what makes the batched path
/// byte-identical by construction.
pub(crate) struct LaneRef<'a> {
    pub node: &'a [NodeId],
    pub held_port: &'a [Option<GlobalDirection>],
    pub terminated: &'a [bool],
    pub handedness: &'a [Handedness],
    pub prior: &'a [PriorOutcome],
    pub last_active_round: &'a [u64],
    pub asleep_on_port: &'a [u64],
    pub moves: &'a [u64],
    pub crowded_nodes: usize,
}

/// Mutable counterpart of [`LaneRef`] for the resolution phase: one run's
/// complete mutable state (agent slices plus the run-level visit map and
/// liveness counters), again shared between the solo and batched engines.
pub(crate) struct LaneStateMut<'a> {
    pub node: &'a mut [NodeId],
    pub held_port: &'a mut [Option<GlobalDirection>],
    pub terminated: &'a mut [bool],
    pub handedness: &'a [Handedness],
    pub prior: &'a mut [PriorOutcome],
    pub program: &'a mut [Box<dyn Protocol>],
    pub moves: &'a mut [u64],
    pub activations: &'a mut [u64],
    pub last_active_round: &'a mut [u64],
    pub asleep_on_port: &'a mut [u64],
    pub terminated_at: &'a mut [Option<u64>],
    pub poll_termination: &'a [bool],
    pub agent_visited: &'a mut [bool],
    pub visited_count: &'a mut [usize],
    pub ring_size: usize,
    pub node_population: &'a mut [u32],
    pub crowded_nodes: &'a mut usize,
    pub global_visited: &'a mut [bool],
    pub unvisited: &'a mut usize,
    pub alive: &'a mut usize,
}

/// A pool of reusable protocol *probe* instances, one slot per agent.
///
/// Predicting an agent's decision requires dry-running its (deterministic)
/// protocol on the upcoming Look snapshot without touching the live instance.
/// Instead of boxing a fresh clone per agent per round, the pool refreshes a
/// persistent probe in place through [`Protocol::clone_from_box`]; only the
/// first round per agent (or a protocol that does not support in-place
/// copies) allocates.
#[derive(Debug, Default)]
pub(crate) struct ProbePool {
    slots: Vec<Option<Box<dyn Protocol>>>,
}

impl ProbePool {
    /// Returns the probe for agent `index`, its state refreshed from `src`.
    pub(crate) fn refresh(&mut self, index: usize, src: &dyn Protocol) -> &mut Box<dyn Protocol> {
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || None);
        }
        let slot = &mut self.slots[index];
        match slot {
            Some(probe) => copy_program(probe, src),
            None => *slot = Some(src.clone_box()),
        }
        slot.as_mut().expect("slot was just filled")
    }

    /// Swaps agent `index`'s probe with `live` (see the round loop's
    /// *prediction fusion*: after the dry run the probe holds exactly the
    /// post-Compute state of the live protocol, so swapping it in replaces a
    /// second Look + Compute).
    pub(crate) fn swap(&mut self, index: usize, live: &mut Box<dyn Protocol>) {
        let probe = self.slots[index].as_mut().expect("probe exists for predicted agents");
        std::mem::swap(probe, live);
    }
}

/// What an agent would do if it were activated in the current round, in the
/// global frame (visible to adversaries only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictedAction {
    /// The agent would try to cross `edge`, leaving its node in `direction`.
    Move {
        /// The edge it would traverse.
        edge: EdgeId,
        /// The global direction of the attempted move.
        direction: GlobalDirection,
    },
    /// The agent would do nothing this round.
    Stay,
    /// The agent would step back from its held port into the node.
    Retreat,
    /// The agent would enter its terminal state.
    Terminate,
}

impl PredictedAction {
    /// The edge the agent would cross, if it would move.
    #[must_use]
    pub const fn target_edge(&self) -> Option<EdgeId> {
        match self {
            PredictedAction::Move { edge, .. } => Some(*edge),
            _ => None,
        }
    }

    /// Whether the prediction is an attempted move.
    #[must_use]
    pub const fn is_move(&self) -> bool {
        matches!(self, PredictedAction::Move { .. })
    }
}

/// Adversary-visible information about one agent at the start of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentView {
    /// The agent's simulator identifier.
    pub id: AgentId,
    /// The node the agent currently occupies.
    pub node: NodeId,
    /// The port (global direction) it holds, if it is waiting on one.
    pub held_port: Option<GlobalDirection>,
    /// Whether the agent has terminated.
    pub terminated: bool,
    /// The agent's private orientation.
    pub handedness: Handedness,
    /// What the agent would do if activated this round.
    ///
    /// Predicting a decision requires dry-running the protocol, so the
    /// engine only computes this when one of the installed policies declares
    /// that it reads predictions (see
    /// [`EdgePolicy::needs_predictions`](crate::adversary::EdgePolicy::needs_predictions));
    /// otherwise live agents report [`PredictedAction::Stay`] here.
    pub predicted: PredictedAction,
    /// The last round in which the agent was active (0 = never).
    pub last_active_round: u64,
    /// Consecutive rounds spent asleep while holding a port.
    pub asleep_on_port: u64,
    /// Successful traversals so far.
    pub moves: u64,
}

impl AgentView {
    /// Filler for view buffers that are written in place before use.
    pub(crate) const VACANT: AgentView = AgentView {
        id: AgentId::new(0),
        node: NodeId::new(0),
        held_port: None,
        terminated: false,
        handedness: Handedness::LeftIsCcw,
        predicted: PredictedAction::Stay,
        last_active_round: 0,
        asleep_on_port: 0,
        moves: 0,
    };
}

/// Adversary-visible information about the whole system at the start of a
/// round.
///
/// Inside the round loop the agent views are borrowed from a scratch buffer
/// owned by the simulation (no per-round allocation); stand-alone views such
/// as [`Simulation::peek`](crate::sim::Simulation::peek) own their agents.
/// The [`Cow`] makes both representations share one type.
#[derive(Debug, Clone)]
pub struct RoundView<'a> {
    /// The round about to be played (1-based).
    pub round: u64,
    /// The static ring.
    pub ring: &'a RingTopology,
    /// One entry per agent (including terminated ones), ordered by id.
    pub agents: Cow<'a, [AgentView]>,
    /// Which nodes have been visited by at least one agent so far.
    pub visited: &'a [bool],
}

impl RoundView<'_> {
    /// The agents that have not terminated yet.
    pub fn alive(&self) -> impl Iterator<Item = &AgentView> {
        self.agents.iter().filter(|a| !a.terminated)
    }

    /// Number of nodes visited so far.
    #[must_use]
    pub fn visited_count(&self) -> usize {
        self.visited.iter().filter(|v| **v).count()
    }

    /// Whether every node has been visited.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.visited.iter().all(|v| *v)
    }

    /// The view of a specific agent.
    #[must_use]
    pub fn agent(&self, id: AgentId) -> Option<&AgentView> {
        self.agents.iter().find(|a| a.id == id)
    }
}

/// Refills `views` (a scratch buffer owned by the simulation) with the
/// per-agent views of the upcoming round. The buffer's capacity is reused, so
/// after the first round this performs no allocation.
///
/// When `predict` is set (a policy running this round reads predictions) each
/// live agent's protocol is dry-run on its Look snapshot through a probe from
/// `probes`, and the raw [`Decision`] is stored in `predicted_decisions` so
/// the round loop can *fuse* the prediction with the actual Compute step: the
/// protocols are deterministic and the snapshot at Look time is identical, so
/// the dry run already produced both this round's decision and the
/// post-Compute state. (FSYNC rounds use [`fill_round_fsync`] instead,
/// which skips the probes entirely.)
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn fill_agent_views(
    views: &mut Vec<AgentView>,
    predicted_decisions: &mut Vec<Option<Decision>>,
    probes: &mut ProbePool,
    ring: &RingTopology,
    agents: &AgentSoA,
    round: u64,
    fsync: bool,
    predict: bool,
) {
    let (lane, programs) = agents.lane_ref();
    fill_agent_views_lane(
        views,
        predicted_decisions,
        probes,
        ring,
        &lane,
        programs,
        round,
        fsync,
        predict,
    );
}

/// Slice-based body of [`fill_agent_views`], shared with the batched engine
/// (which passes one lane's stride of its run-major arrays).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn fill_agent_views_lane(
    views: &mut Vec<AgentView>,
    predicted_decisions: &mut Vec<Option<Decision>>,
    probes: &mut ProbePool,
    ring: &RingTopology,
    lane: &LaneRef<'_>,
    programs: &[Box<dyn Protocol>],
    round: u64,
    fsync: bool,
    predict: bool,
) {
    predicted_decisions.clear();
    predicted_decisions.resize(lane.node.len(), None);
    if predict {
        for (index, slot) in predicted_decisions.iter_mut().enumerate() {
            if lane.terminated[index] {
                continue;
            }
            let snapshot = build_snapshot_lane(ring, lane, index, round, fsync);
            let probe = probes.refresh(index, programs[index].as_ref());
            *slot = Some(probe.decide(&snapshot));
        }
    }
    fill_views_from_decisions(views, ring, lane, predicted_decisions, predict);
}

/// One-pass start of an FSYNC round: refills the agent views, the active set
/// (every live agent — full synchrony ignores the activation policy), the
/// activation mask, the claimed-port list (held ports only change during
/// resolution, so the fill-time snapshot is the start-of-round truth) and,
/// when `predict` is set, the fused predictions, all in a single traversal
/// of the hot slices. Under FSYNC the prediction dry run
/// *is* this round's Compute (see [`fill_agent_views_fsync_predict`]), so the
/// recorded decisions are reused verbatim by the resolution phase.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn fill_round_fsync(
    views: &mut Vec<AgentView>,
    predicted_decisions: &mut Vec<Option<Decision>>,
    active: &mut Vec<AgentId>,
    active_mask: &mut Vec<bool>,
    claimed: &mut Vec<(NodeId, GlobalDirection)>,
    ring: &RingTopology,
    agents: &mut AgentSoA,
    round: u64,
    predict: bool,
) {
    let (lane, programs) = agents.lane_split();
    fill_round_fsync_lane(
        views,
        predicted_decisions,
        active,
        active_mask,
        claimed,
        ring,
        &lane,
        programs,
        round,
        predict,
    );
}

/// Slice-based body of [`fill_round_fsync`], shared with the batched engine
/// (which passes one lane's stride of its run-major arrays).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn fill_round_fsync_lane(
    views: &mut Vec<AgentView>,
    predicted_decisions: &mut Vec<Option<Decision>>,
    active: &mut Vec<AgentId>,
    active_mask: &mut Vec<bool>,
    claimed: &mut Vec<(NodeId, GlobalDirection)>,
    ring: &RingTopology,
    lane: &LaneRef<'_>,
    programs: &mut [Box<dyn Protocol>],
    round: u64,
    predict: bool,
) {
    views.clear();
    active.clear();
    active_mask.clear();
    claimed.clear();
    let count = lane.node.len();
    predicted_decisions.clear();
    predicted_decisions.resize(count, None);
    for (index, predicted_slot) in predicted_decisions.iter_mut().enumerate().take(count) {
        let is_terminated = lane.terminated[index];
        let node = lane.node[index];
        let held_port = lane.held_port[index];
        let handedness = lane.handedness[index];
        active_mask.push(!is_terminated);
        if !is_terminated {
            active.push(AgentId::new(index));
        }
        if let Some(port) = held_port {
            claimed.push((node, port));
        }
        let predicted = if is_terminated {
            PredictedAction::Terminate
        } else if predict {
            let snapshot = build_snapshot_lane(ring, lane, index, round, true);
            let decision = programs[index].decide(&snapshot);
            *predicted_slot = Some(decision);
            predict_action(ring, node, handedness, decision)
        } else {
            PredictedAction::Stay
        };
        views.push(AgentView {
            id: AgentId::new(index),
            node,
            held_port,
            terminated: is_terminated,
            handedness,
            predicted,
            last_active_round: lane.last_active_round[index],
            asleep_on_port: lane.asleep_on_port[index],
            moves: lane.moves[index],
        });
    }
}

/// Shared second pass of the fill functions: one [`AgentView`] per agent from
/// the hot slices plus the already-computed decisions. The slices are
/// re-sliced to a common length up front so the indexing below is
/// bounds-check-free.
fn fill_views_from_decisions(
    views: &mut Vec<AgentView>,
    ring: &RingTopology,
    lane: &LaneRef<'_>,
    predicted_decisions: &[Option<Decision>],
    predict: bool,
) {
    views.clear();
    let count = lane.node.len();
    let node = &lane.node[..count];
    let held_port = &lane.held_port[..count];
    let terminated = &lane.terminated[..count];
    let handedness = &lane.handedness[..count];
    let last_active_round = &lane.last_active_round[..count];
    let asleep_on_port = &lane.asleep_on_port[..count];
    let moves = &lane.moves[..count];
    let predicted_decisions = &predicted_decisions[..count];
    for index in 0..count {
        let predicted = if terminated[index] {
            PredictedAction::Terminate
        } else if predict {
            let decision = predicted_decisions[index]
                .expect("every live agent carries a prediction on prediction rounds");
            predict_action(ring, node[index], handedness[index], decision)
        } else {
            PredictedAction::Stay
        };
        views.push(AgentView {
            id: AgentId::new(index),
            node: node[index],
            held_port: held_port[index],
            terminated: terminated[index],
            handedness: handedness[index],
            predicted,
            last_active_round: last_active_round[index],
            asleep_on_port: asleep_on_port[index],
            moves: moves[index],
        });
    }
}

/// Builds the **Look** snapshot of agent `observer` given the positions of
/// all agents (the paper's Look operation: own position, other agents at the
/// same node, landmark flag, own previous outcome). The occupancy loop is a
/// straight pass over the two dense hot slices of the [`AgentSoA`].
#[inline(always)]
pub(crate) fn build_snapshot(
    ring: &RingTopology,
    agents: &AgentSoA,
    observer: usize,
    round: u64,
    fsync: bool,
) -> Snapshot {
    let (lane, _) = agents.lane_ref();
    build_snapshot_lane(ring, &lane, observer, round, fsync)
}

/// Slice-based body of [`build_snapshot`], shared with the batched engine.
#[inline(always)]
pub(crate) fn build_snapshot_lane(
    ring: &RingTopology,
    lane: &LaneRef<'_>,
    observer: usize,
    round: u64,
    fsync: bool,
) -> Snapshot {
    let count = lane.node.len();
    let node = &lane.node[..count];
    let held_port = &lane.held_port[..count];
    let observer_node = node[observer];
    let observer_handedness = lane.handedness[observer];
    let mut occupancy = NodeOccupancy::default();
    // While no node holds two agents (tracked incrementally), every
    // observer's occupancy is trivially empty and the team scan is skipped.
    if lane.crowded_nodes > 0 {
        for index in 0..count {
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
    let position = match lane.held_port[observer] {
        None => LocalPosition::InNode,
        Some(gdir) => LocalPosition::OnPort(to_local(observer_handedness, gdir)),
    };
    Snapshot {
        position,
        is_landmark: ring.is_landmark(observer_node),
        occupancy,
        prior: lane.prior[observer],
        round_hint: if fsync { Some(round) } else { None },
    }
}

/// Converts a protocol [`Decision`] of an agent standing at `node` with the
/// given orientation into the adversary-facing [`PredictedAction`].
pub(crate) fn predict_action(
    ring: &RingTopology,
    node: NodeId,
    handedness: Handedness,
    decision: Decision,
) -> PredictedAction {
    match decision {
        Decision::Move(ldir) => {
            let gdir = to_global(handedness, ldir);
            PredictedAction::Move { edge: ring.edge_towards(node, gdir), direction: gdir }
        }
        Decision::Stay => PredictedAction::Stay,
        Decision::Retreat => PredictedAction::Retreat,
        Decision::Terminate => PredictedAction::Terminate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::TerminationKind;

    #[derive(Debug, Clone)]
    struct GoLeft;
    impl Protocol for GoLeft {
        fn name(&self) -> &'static str {
            "go-left"
        }
        fn termination_kind(&self) -> TerminationKind {
            TerminationKind::Unconscious
        }
        fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
            Decision::Move(LocalDirection::Left)
        }
        fn has_terminated(&self) -> bool {
            false
        }
        fn clone_box(&self) -> Box<dyn Protocol> {
            Box::new(self.clone())
        }
    }

    fn team(ring: &RingTopology, agents: &[(usize, Handedness)]) -> AgentSoA {
        let mut soa = AgentSoA::new(ring.size());
        for (node, handedness) in agents {
            soa.push(NodeId::new(*node), *handedness, Box::new(GoLeft));
        }
        soa
    }

    #[test]
    fn local_global_conversion_roundtrips() {
        let ring = RingTopology::new(5).unwrap();
        for h in Handedness::both() {
            let soa = team(&ring, &[(0, h)]);
            for d in LocalDirection::both() {
                assert_eq!(to_local(h, to_global(soa.handedness[0], d)), d);
            }
            for g in GlobalDirection::both() {
                assert_eq!(to_global(soa.handedness[0], to_local(h, g)), g);
            }
        }
    }

    #[test]
    fn snapshot_sees_other_agents_in_the_observers_frame() {
        let ring = RingTopology::with_landmark(6, NodeId::new(2)).unwrap();
        let mut agents = team(
            &ring,
            &[
                (2, Handedness::LeftIsCcw),
                (2, Handedness::LeftIsCw),
                (3, Handedness::LeftIsCcw),
            ],
        );
        // Agent 1 is waiting on the CCW port of node 2.
        agents.held_port[1] = Some(GlobalDirection::Ccw);

        let snap0 = build_snapshot(&ring, &agents, 0, 7, true);
        // Observer 0 (left = CCW) sees agent 1 on its *left* port.
        assert_eq!(snap0.occupancy.on_left_port, 1);
        assert_eq!(snap0.occupancy.on_right_port, 0);
        assert_eq!(snap0.occupancy.in_node, 0);
        assert!(snap0.is_landmark);
        assert_eq!(snap0.round_hint, Some(7));
        assert_eq!(snap0.position, LocalPosition::InNode);

        // Observer 1 (left = CW) is itself on the CCW port, i.e. its right port.
        let snap1 = build_snapshot(&ring, &agents, 1, 7, false);
        assert_eq!(snap1.position, LocalPosition::OnPort(LocalDirection::Right));
        assert_eq!(snap1.occupancy.in_node, 1);
        assert_eq!(snap1.round_hint, None);

        // Agent 2 is alone on node 3.
        let snap2 = build_snapshot(&ring, &agents, 2, 7, true);
        assert_eq!(snap2.occupancy.total(), 0);
        assert!(!snap2.is_landmark);
    }

    #[test]
    fn predicted_action_maps_direction_and_edge() {
        let ring = RingTopology::new(6).unwrap();
        let p = predict_action(
            &ring,
            NodeId::new(0),
            Handedness::LeftIsCcw,
            Decision::Move(LocalDirection::Left),
        );
        assert_eq!(
            p,
            PredictedAction::Move { edge: EdgeId::new(0), direction: GlobalDirection::Ccw }
        );
        assert_eq!(p.target_edge(), Some(EdgeId::new(0)));
        assert!(p.is_move());
        let q = predict_action(
            &ring,
            NodeId::new(0),
            Handedness::LeftIsCw,
            Decision::Move(LocalDirection::Left),
        );
        assert_eq!(
            q,
            PredictedAction::Move { edge: EdgeId::new(5), direction: GlobalDirection::Cw }
        );
        assert_eq!(
            predict_action(&ring, NodeId::new(0), Handedness::LeftIsCcw, Decision::Stay),
            PredictedAction::Stay
        );
        assert!(!PredictedAction::Retreat.is_move());
        assert_eq!(PredictedAction::Terminate.target_edge(), None);
    }

    #[test]
    fn visited_count_starts_with_the_start_node() {
        let ring = RingTopology::new(4).unwrap();
        let soa = team(&ring, &[(3, Handedness::LeftIsCcw)]);
        assert_eq!(soa.visited_count(0), 1);
    }

    #[test]
    fn probe_pool_reuses_slots_and_survives_type_mismatches() {
        #[derive(Debug, Clone)]
        struct Stepper {
            steps: u64,
        }
        impl Protocol for Stepper {
            fn name(&self) -> &'static str {
                "stepper"
            }
            fn termination_kind(&self) -> TerminationKind {
                TerminationKind::Unconscious
            }
            fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
                self.steps += 1;
                Decision::Stay
            }
            fn has_terminated(&self) -> bool {
                false
            }
            fn clone_box(&self) -> Box<dyn Protocol> {
                Box::new(self.clone())
            }
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }
            fn clone_from_box(&mut self, src: &dyn Protocol) -> bool {
                dynring_model::clone_state_from(self, src)
            }
        }

        let mut pool = ProbePool::default();
        let live: Box<dyn Protocol> = Box::new(Stepper { steps: 5 });
        let probe = pool.refresh(0, live.as_ref());
        assert!(probe.state_label().contains("steps: 5"));
        // Mutate the probe, then refresh again: the state is copied back in
        // place (same slot, no mismatch).
        let _ = probe.decide(&build_dummy_snapshot());
        let probe = pool.refresh(0, live.as_ref());
        assert!(probe.state_label().contains("steps: 5"));
        // A different protocol type in the same slot falls back to clone_box.
        let other: Box<dyn Protocol> = Box::new(GoLeft);
        let probe = pool.refresh(0, other.as_ref());
        assert_eq!(probe.name(), "go-left");
        // Swapping hands the probe to the caller and parks the old live box.
        let mut live_box: Box<dyn Protocol> = Box::new(Stepper { steps: 9 });
        let probe = pool.refresh(1, live.as_ref());
        let _ = probe.decide(&build_dummy_snapshot());
        pool.swap(1, &mut live_box);
        assert!(live_box.state_label().contains("steps: 6"));
    }

    #[test]
    fn probe_pool_refreshes_catalog_programs_in_place() {
        use dynring_core::Algorithm;

        let mut pool = ProbePool::default();
        let live = Algorithm::KnownBound { upper_bound: 6 }.instantiate();
        // First refresh fills the slot with a clone…
        let probe = pool.refresh(0, live.as_ref());
        assert_eq!(probe.state_label(), live.state_label());
        // …and diverging the probe (two activations: the first only arms the
        // Ttime counter) then refreshing copies the state back in place.
        let _ = probe.decide(&build_dummy_snapshot());
        let _ = probe.decide(&build_dummy_snapshot());
        assert_ne!(probe.state_label(), live.state_label());
        let probe = pool.refresh(0, live.as_ref());
        assert_eq!(probe.state_label(), live.state_label());
        // A different algorithm in the same slot falls back to a fresh clone.
        let probe = pool.refresh(0, Algorithm::Unconscious.instantiate().as_ref());
        assert_eq!(probe.name(), "UnconsciousExploration");
        // Swapping fuses the post-Compute probe into the live slot.
        let mut live_et = Algorithm::EtUnconscious.instantiate();
        let probe = pool.refresh(1, live_et.as_ref());
        let _ = probe.decide(&build_dummy_snapshot());
        let advanced = probe.state_label();
        pool.swap(1, &mut live_et);
        assert_eq!(live_et.state_label(), advanced);
    }

    fn build_dummy_snapshot() -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::Idle,
            round_hint: Some(1),
        }
    }
}
