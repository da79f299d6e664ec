//! The round loop: Look–Compute–Move against an adversary.

use crate::adversary::EdgePolicy;
use crate::checkpoint::SimCheckpoint;
use crate::error::EngineError;
use crate::scheduler::ActivationPolicy;
use crate::trace::Trace;
use crate::world::{
    build_snapshot, fill_agent_views, fill_round_fsync, predict_action, AgentSoA, AgentView,
    MoveState, PredictedAction, ProbePool, RoundView,
};
use dynring_graph::{AgentId, EdgeId, GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::{CruiseLog, Decision, PriorOutcome, Protocol, SynchronyModel, TransportModel};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// When a run should stop (besides exhausting the round budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopCondition {
    /// Stop as soon as every node has been visited.
    Explored,
    /// Stop as soon as every node has been visited **and** at least one agent
    /// has terminated.
    ExploredAndPartialTermination,
    /// Stop as soon as every agent has terminated (also stops if the ring is
    /// explored and no agent can ever terminate — i.e. never, so use a round
    /// budget).
    AllTerminated,
    /// Run for the full round budget regardless.
    RoundBudget,
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum StopReason {
    /// The stop condition was met.
    ConditionMet,
    /// The round budget was exhausted.
    #[default]
    BudgetExhausted,
    /// Every agent terminated (nothing left to simulate).
    Deadlocked,
}

/// Summary of a finished run.
///
/// The `Default` value is an empty shell for
/// [`Simulation::run_into`], which refills an existing report in place
/// (reusing the per-agent vectors) instead of allocating a fresh one per run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of rounds simulated.
    pub rounds: u64,
    /// Ring size.
    pub ring_size: usize,
    /// Round in which the last unvisited node was first visited, if any.
    pub explored_at: Option<u64>,
    /// Number of distinct nodes visited by the union of the agents.
    pub visited_count: usize,
    /// Per-agent termination rounds (same order as the agents were added).
    pub termination_rounds: Vec<Option<u64>>,
    /// Whether every agent terminated.
    pub all_terminated: bool,
    /// Per-agent number of successful traversals.
    pub moves_per_agent: Vec<u64>,
    /// Per-agent number of distinct nodes visited.
    pub visited_per_agent: Vec<usize>,
    /// Total number of successful traversals.
    pub total_moves: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

impl RunReport {
    /// Whether the whole ring was explored.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.explored_at.is_some()
    }

    /// Round of the earliest explicit termination, if any.
    #[must_use]
    pub fn first_termination(&self) -> Option<u64> {
        self.termination_rounds.iter().flatten().min().copied()
    }

    /// Round of the latest explicit termination, if all agents terminated.
    #[must_use]
    pub fn last_termination(&self) -> Option<u64> {
        if self.all_terminated {
            self.termination_rounds.iter().flatten().max().copied()
        } else {
            None
        }
    }

    /// Whether at least one agent terminated.
    #[must_use]
    pub fn partially_terminated(&self) -> bool {
        self.termination_rounds.iter().any(Option::is_some)
    }
}

/// Builder for a [`Simulation`].
pub struct SimulationBuilder {
    ring: RingTopology,
    synchrony: SynchronyModel,
    agents: Vec<(NodeId, Handedness, Box<dyn Protocol>)>,
    activation: Option<Box<dyn ActivationPolicy>>,
    edges: Option<Box<dyn EdgePolicy>>,
    record_trace: bool,
}

impl SimulationBuilder {
    /// Declares the synchrony model (FSYNC by default).
    #[must_use]
    pub fn synchrony(mut self, synchrony: SynchronyModel) -> Self {
        self.synchrony = synchrony;
        self
    }

    /// Adds an agent with its start node, private orientation and protocol —
    /// a catalogue algorithm (`Algorithm::instantiate`) or any user-defined
    /// [`Protocol`]; mixed teams are fine.
    #[must_use]
    pub fn agent(
        mut self,
        start: NodeId,
        handedness: Handedness,
        protocol: Box<dyn Protocol>,
    ) -> Self {
        self.agents.push((start, handedness, protocol));
        self
    }

    /// Sets the activation policy (scheduler).
    #[must_use]
    pub fn activation(mut self, policy: Box<dyn ActivationPolicy>) -> Self {
        self.activation = Some(policy);
        self
    }

    /// Sets the edge-removal policy (dynamics adversary).
    #[must_use]
    pub fn edges(mut self, policy: Box<dyn EdgePolicy>) -> Self {
        self.edges = Some(policy);
        self
    }

    /// Enables or disables per-round trace recording (disabled by default).
    #[must_use]
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Fails if no agents were declared, an agent starts outside the ring, or
    /// a policy is missing.
    pub fn build(self) -> Result<Simulation, EngineError> {
        if self.agents.is_empty() {
            return Err(EngineError::NoAgents);
        }
        let activation =
            self.activation.ok_or(EngineError::MissingPolicy { which: "activation" })?;
        let edges = self.edges.ok_or(EngineError::MissingPolicy { which: "edges" })?;
        let ring_size = self.ring.size();
        let mut team = AgentSoA::new(ring_size);
        for (index, (start, handedness, protocol)) in self.agents.into_iter().enumerate() {
            if start.index() >= ring_size {
                return Err(EngineError::StartOutOfRange {
                    agent: AgentId::new(index),
                    node: start,
                    ring_size,
                });
            }
            team.push(start, handedness, protocol);
        }
        let mut visited = vec![false; ring_size];
        for node in &team.node {
            visited[node.index()] = true;
        }
        let unvisited = visited.iter().filter(|v| !**v).count();
        let scratch = RoundScratch::new(team.len());
        let alive = team.len();
        Ok(Simulation {
            ring: self.ring,
            synchrony: self.synchrony,
            agents: team,
            visited,
            unvisited,
            alive,
            round: 0,
            activation,
            edges,
            trace: if self.record_trace { Some(Trace::new()) } else { None },
            explored_at: None,
            scratch,
            cruise: CruiseStats::default(),
        })
    }
}

/// One agent of a [`RunSpec`]: the start node, the private orientation and
/// the **pristine program template** every (re)run copies its initial state
/// from.
#[derive(Debug)]
pub struct AgentSpec {
    /// Start node.
    pub start: NodeId,
    /// Private orientation.
    pub handedness: Handedness,
    /// The program in its as-instantiated state. Fresh builds clone it;
    /// recycled runs copy its state into the live program in place (see
    /// [`Simulation::recycle`]).
    pub program: Box<dyn Protocol>,
}

impl AgentSpec {
    /// Bundles one agent's start, orientation and program template.
    #[must_use]
    pub fn new(start: NodeId, handedness: Handedness, program: Box<dyn Protocol>) -> Self {
        AgentSpec { start, handedness, program }
    }
}

/// A validated, reusable description of one run: ring topology, synchrony
/// model, the agent templates and whether a trace is recorded.
///
/// This is the engine half of the **run-recycling** fast path (see
/// `docs/ARCHITECTURE.md`, "Run lifecycle"): where [`SimulationBuilder`]
/// builds one `Simulation` and is consumed, a `RunSpec` is compiled once and
/// then drives any number of runs —
///
/// * [`RunSpec::instantiate`] builds a fresh simulation (observably identical
///   to the builder path);
/// * [`Simulation::recycle`] re-initialises an *existing* simulation to round
///   zero of the spec **in place**, reusing every buffer the previous run
///   allocated.
///
/// The activation and edge policies are deliberately not part of the spec:
/// they are installed on the simulation (at `instantiate` time or via
/// [`Simulation::replace_policies`]) and restored by their
/// [`reset`](crate::scheduler::ActivationPolicy::reset) hooks on recycle, so
/// the spec itself stays immutable and shareable.
#[derive(Debug)]
pub struct RunSpec {
    ring: RingTopology,
    synchrony: SynchronyModel,
    agents: Vec<AgentSpec>,
    record_trace: bool,
}

impl RunSpec {
    /// Compiles a validated spec.
    ///
    /// # Errors
    ///
    /// Fails like [`SimulationBuilder::build`]: no agents, or an agent
    /// starting outside the ring.
    pub fn new(
        ring: RingTopology,
        synchrony: SynchronyModel,
        agents: Vec<AgentSpec>,
        record_trace: bool,
    ) -> Result<Self, EngineError> {
        if agents.is_empty() {
            return Err(EngineError::NoAgents);
        }
        for (index, agent) in agents.iter().enumerate() {
            if agent.start.index() >= ring.size() {
                return Err(EngineError::StartOutOfRange {
                    agent: AgentId::new(index),
                    node: agent.start,
                    ring_size: ring.size(),
                });
            }
        }
        Ok(RunSpec { ring, synchrony, agents, record_trace })
    }

    /// The ring the runs explore.
    #[must_use]
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// The synchrony model of the runs.
    #[must_use]
    pub fn synchrony(&self) -> SynchronyModel {
        self.synchrony
    }

    /// Number of agents per run.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Whether runs record a trace.
    #[must_use]
    pub fn record_trace(&self) -> bool {
        self.record_trace
    }

    /// Builds a fresh simulation from this spec with the given policies
    /// (observably identical to assembling the same run through
    /// [`Simulation::builder`]; the agent templates are cloned, the spec
    /// stays reusable).
    #[must_use]
    pub fn instantiate(
        &self,
        activation: Box<dyn ActivationPolicy>,
        edges: Box<dyn EdgePolicy>,
    ) -> Simulation {
        let mut builder = Simulation::builder(self.ring.clone())
            .synchrony(self.synchrony)
            .activation(activation)
            .edges(edges)
            .record_trace(self.record_trace);
        for agent in &self.agents {
            builder = builder.agent(agent.start, agent.handedness, agent.program.clone());
        }
        builder.build().expect("RunSpec was validated at construction")
    }
}

/// Reusable per-round working memory. All buffers are cleared and refilled
/// every round, so after the first round [`Simulation::step`] performs no
/// heap allocation on the FSYNC hot path — with trace recording off this now
/// holds **with or without** decision predictions, because predictions reuse
/// the per-agent [`ProbePool`] instead of boxing protocol clones; see
/// [`Simulation::step`] for the one SSYNC caveat.
#[derive(Debug, Default)]
struct RoundScratch {
    /// Per-agent adversary views (borrowed by the [`RoundView`]).
    views: Vec<AgentView>,
    /// The sanitised active set, sorted by agent id.
    active: Vec<AgentId>,
    /// Raw activation-policy choice (SSYNC only; sanitised into `active`).
    chosen: Vec<AgentId>,
    /// `active_mask[i]` ⇔ agent `i` is active this round (O(1) lookup where
    /// the resolution steps previously scanned the active list).
    active_mask: Vec<bool>,
    /// Per-agent decision of this round (`None` = asleep or terminated).
    decisions: Vec<Option<Decision>>,
    /// Per-agent decision predicted by the probe dry run (prediction rounds
    /// only; fused into [`RoundScratch::decisions`] for active agents).
    predicted: Vec<Option<Decision>>,
    /// Reusable per-agent protocol probes backing the predictions.
    probes: ProbePool,
    /// Node of each agent at the start of the round (trace recording only).
    nodes_before: Vec<NodeId>,
    /// Ports denied for the rest of the round, sorted. A handful of entries
    /// at most (one per agent), so a sorted vec beats a `HashSet`.
    claimed: Vec<(NodeId, GlobalDirection)>,
    /// Per-agent state of the current cruise window.
    slots: Vec<CruiseSlot>,
}

impl RoundScratch {
    fn new(agent_count: usize) -> Self {
        RoundScratch {
            views: Vec::with_capacity(agent_count),
            active: Vec::with_capacity(agent_count),
            chosen: Vec::with_capacity(agent_count),
            active_mask: vec![false; agent_count],
            decisions: vec![None; agent_count],
            predicted: vec![None; agent_count],
            probes: ProbePool::default(),
            nodes_before: Vec::with_capacity(agent_count),
            claimed: Vec::with_capacity(agent_count),
            slots: vec![CruiseSlot::VACANT; agent_count],
        }
    }
}

/// A live simulation of agents exploring a dynamic ring.
pub struct Simulation {
    ring: RingTopology,
    synchrony: SynchronyModel,
    agents: AgentSoA,
    visited: Vec<bool>,
    /// Number of `false` entries in `visited` (kept incrementally so the
    /// per-round exploration check is O(1) instead of an O(n) scan).
    unvisited: usize,
    /// Number of agents that have not terminated (kept incrementally so the
    /// per-round liveness and termination checks are O(1)).
    alive: usize,
    round: u64,
    activation: Box<dyn ActivationPolicy>,
    edges: Box<dyn EdgePolicy>,
    trace: Option<Trace>,
    explored_at: Option<u64>,
    scratch: RoundScratch,
    cruise: CruiseStats,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("ring_size", &self.ring.size())
            .field("round", &self.round)
            .field("agents", &self.agents.len())
            .field("visited", &self.visited_count())
            .field("synchrony", &self.synchrony)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Starts building a simulation on the given ring.
    #[must_use]
    pub fn builder(ring: RingTopology) -> SimulationBuilder {
        SimulationBuilder {
            ring,
            synchrony: SynchronyModel::Fsync,
            agents: Vec::new(),
            activation: None,
            edges: None,
            record_trace: false,
        }
    }

    /// The ring being explored.
    #[must_use]
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// Number of rounds simulated so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The recorded trace, if trace recording was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Number of distinct nodes visited by the union of the agents.
    #[must_use]
    pub fn visited_count(&self) -> usize {
        self.ring.size() - self.unvisited
    }

    /// Whether every node has been visited.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.explored_at.is_some()
    }

    /// The round in which exploration completed, if it did.
    #[must_use]
    pub fn explored_at(&self) -> Option<u64> {
        self.explored_at
    }

    /// Whether every agent has terminated.
    #[must_use]
    pub fn all_terminated(&self) -> bool {
        self.agents.all_terminated()
    }

    /// Current node of each agent, in agent order (for tests and rendering).
    #[must_use]
    pub fn positions(&self) -> Vec<NodeId> {
        self.agents.node.clone()
    }

    /// Per-agent termination rounds.
    #[must_use]
    pub fn termination_rounds(&self) -> Vec<Option<u64>> {
        self.agents.terminated_at.clone()
    }

    /// Per-agent traversal counts.
    #[must_use]
    pub fn moves_per_agent(&self) -> Vec<u64> {
        self.agents.moves.clone()
    }

    /// The cruise windows this run has played so far (reset by
    /// [`Simulation::recycle`]). Only [`Simulation::run`] and
    /// [`Simulation::run_into`] enter windows; [`Simulation::step`] always
    /// plays one generic round.
    #[must_use]
    pub fn cruise_stats(&self) -> CruiseStats {
        self.cruise
    }

    /// Re-initialises this simulation **in place** to round zero of `spec`,
    /// reusing every buffer of the previous run:
    ///
    /// * ring topology, synchrony model and the global visited map are
    ///   overwritten (the map's allocation is reused);
    /// * the whole agent team is reset from the spec's templates — hot and
    ///   cold SoA fields, per-agent visit maps and the occupancy index are
    ///   refilled in their existing vectors, and each program copies the
    ///   template's pristine state in place through
    ///   [`Protocol::clone_from_box`];
    /// * the trace is cleared (or created/dropped if `spec` toggles
    ///   recording) and the round scratch, including the probe pool, carries
    ///   over as-is — every scratch buffer is refilled before use;
    /// * the installed activation and edge policies are restored by their
    ///   [`reset`](crate::scheduler::ActivationPolicy::reset) hooks. If the
    ///   next run needs *different* policies, install them first with
    ///   [`Simulation::replace_policies`].
    ///
    /// When the shape (ring size, team size, program types) matches
    /// the previous run this performs **zero heap allocations**; when it does
    /// not, existing capacity is still reused and only growth allocates. A
    /// recycled run is observably identical to one built fresh from the same
    /// spec (`tests/recycle_equivalence.rs` pins this for the whole
    /// catalogue).
    pub fn recycle(&mut self, spec: &RunSpec) {
        self.ring.clone_from(&spec.ring);
        self.synchrony = spec.synchrony;
        self.agents.reset_from(
            spec.ring.size(),
            spec.agents.iter().map(|a| (a.start, a.handedness, &a.program)),
        );
        self.visited.clear();
        self.visited.resize(spec.ring.size(), false);
        let mut start_nodes = 0;
        for agent in &spec.agents {
            let slot = &mut self.visited[agent.start.index()];
            if !*slot {
                *slot = true;
                start_nodes += 1;
            }
        }
        self.unvisited = spec.ring.size() - start_nodes;
        self.alive = spec.agents.len();
        self.round = 0;
        self.explored_at = None;
        self.cruise = CruiseStats::default();
        match (&mut self.trace, spec.record_trace) {
            (Some(trace), true) => trace.clear(),
            (trace @ None, true) => *trace = Some(Trace::new()),
            (trace, false) => *trace = None,
        }
        self.activation.reset();
        self.edges.reset();
    }

    /// Replaces the installed activation and edge policies (used by recycling
    /// callers when the next run's policies differ from the previous run's;
    /// same-policy reruns only need the `reset` performed by
    /// [`Simulation::recycle`]).
    pub fn replace_policies(
        &mut self,
        activation: Box<dyn ActivationPolicy>,
        edges: Box<dyn EdgePolicy>,
    ) {
        self.activation = activation;
        self.edges = edges;
    }

    /// Plays one round. Returns `false` if there was nothing to do (every
    /// agent has terminated).
    ///
    /// All per-round working memory lives in scratch buffers owned by the
    /// simulation, so on the FSYNC hot path (trace recording off) this
    /// performs no heap allocation — including rounds with decision
    /// predictions, which dry-run each live protocol through a reusable
    /// probe from the engine's probe pool instead of boxing a clone. Under
    /// SSYNC
    /// the activation policy still returns a fresh `Vec` of chosen agents
    /// each round (that is its trait contract), so SSYNC rounds carry one
    /// small allocation.
    pub fn step(&mut self) -> bool {
        self.step_impl(None)
    }

    /// Plays one round with the adversary's edge choice **forced** to
    /// `missing` (`None` forces an all-present round), bypassing the
    /// installed edge policy entirely: it is neither consulted nor advanced,
    /// and no edge-policy predictions are computed. Out-of-range edges are
    /// ignored exactly as the engine ignores an invalid policy choice.
    /// Activation policies still run (and still receive their predictions),
    /// so a forced round is otherwise identical to a policy round.
    ///
    /// This is the expansion primitive of the analysis-side model checker,
    /// which enumerates every edge choice per round instead of sampling one
    /// choice from a policy.
    pub fn step_with_edge(&mut self, missing: Option<EdgeId>) -> bool {
        self.step_impl(Some(missing))
    }

    fn step_impl(&mut self, forced: Option<Option<EdgeId>>) -> bool {
        if self.alive == 0 {
            return false;
        }
        let round = self.round + 1;
        self.round = round;
        let fsync = self.synchrony.is_fsync();
        let record_trace = self.trace.is_some();
        // Predictions dry-run every live protocol, so they are only computed
        // when a policy that will run this round declares it reads them
        // (under FSYNC the activation policy never runs — the engine
        // activates everyone directly). Three prediction strategies:
        //
        //  * FSYNC: every live agent is activated no matter what, so the dry
        //    run *is* this round's Compute — decide on the live protocols at
        //    fill time, no probe (`fill_agent_views_fsync_predict`);
        //  * SSYNC, activation policy reads predictions: full probe pass
        //    before the activation choice; actives are fused by swapping the
        //    post-Compute probe in;
        //  * SSYNC, only the edge policy reads predictions: defer the
        //    predictions until after the activation choice, so actives
        //    decide on the live protocols and only sleepers go through a
        //    probe (the policy declared it never reads `predicted`, so the
        //    placeholder views it selects on are equivalent).
        let act_pred = !fsync && self.activation.needs_predictions();
        let edges_pred = forced.is_none() && self.edges.needs_predictions();
        let predict = edges_pred || act_pred;

        // 1. Fill + activation choice. Under FSYNC the activation policy is
        // never consulted (everyone live is active), so the views, active
        // set, mask and fused predictions come from one pass; under SSYNC the
        // policy selects on a view borrowed from the scratch buffers.
        if fsync {
            let RoundScratch { views, predicted, active, active_mask, claimed, .. } =
                &mut self.scratch;
            fill_round_fsync(
                views,
                predicted,
                active,
                active_mask,
                claimed,
                &self.ring,
                &mut self.agents,
                round,
                predict,
            );
        } else {
            {
                let RoundScratch { views, predicted, probes, .. } = &mut self.scratch;
                fill_agent_views(
                    views,
                    predicted,
                    probes,
                    &self.ring,
                    &self.agents,
                    round,
                    fsync,
                    act_pred,
                );
            }
            {
                let RoundScratch { views, active, chosen, .. } = &mut self.scratch;
                let view = RoundView {
                    round,
                    ring: &self.ring,
                    agents: Cow::Borrowed(views),
                    visited: &self.visited,
                };
                active.clear();
                chosen.clear();
                self.activation.select_into(&view, chosen);
                chosen.retain(|id| {
                    self.agents.terminated.get(id.index()).is_some_and(|t| !*t)
                });
                if chosen.len() > 1 {
                    chosen.sort_unstable();
                    chosen.dedup();
                }
                if chosen.is_empty() {
                    active.extend(view.alive().map(|a| a.id));
                } else {
                    active.extend(chosen.iter().copied());
                }
            }
            // The policy result was sorted and deduplicated above (the FSYNC
            // pass walks the agents in order by construction).
            debug_assert!(
                self.scratch.active.windows(2).all(|w| w[0] < w[1]),
                "active set must be sorted and deduplicated"
            );

            self.scratch.active_mask.clear();
            self.scratch.active_mask.resize(self.agents.len(), false);
            for id in &self.scratch.active {
                self.scratch.active_mask[id.index()] = true;
            }
        }

        // Deferred predictions (SSYNC with an omniscient edge policy only):
        // the active set is known, so actives run Compute on the live
        // protocols (prediction fusion) and only sleepers dry-run a probe.
        // Active decisions land straight in the decision buffer — there is
        // no separate Look + Compute pass afterwards.
        let deferred = predict && !fsync && !act_pred;
        if deferred {
            // Sleepers are only dry-run when the edge policy actually reads
            // their predictions; the paper's block-the-mover adversaries
            // all filter on the active set first.
            let probe_sleepers = self.edges.needs_sleeper_predictions();
            let agent_count = self.agents.len();
            let RoundScratch { views, probes, active_mask, decisions, .. } = &mut self.scratch;
            let views = &mut views[..agent_count];
            let active_mask = &active_mask[..agent_count];
            decisions.clear();
            decisions.resize(agent_count, None);
            for (index, decision_slot) in decisions.iter_mut().enumerate() {
                if self.agents.terminated[index] {
                    continue;
                }
                let node = self.agents.node[index];
                let handedness = self.agents.handedness[index];
                let decision = if active_mask[index] {
                    let snapshot = build_snapshot(&self.ring, &self.agents, index, round, fsync);
                    let decision = self.agents.program[index].decide(&snapshot);
                    *decision_slot = Some(decision);
                    decision
                } else if probe_sleepers {
                    let snapshot = build_snapshot(&self.ring, &self.agents, index, round, fsync);
                    probes.refresh(index, self.agents.program[index].as_ref()).decide(&snapshot)
                } else {
                    continue;
                };
                views[index].predicted = predict_action(&self.ring, node, handedness, decision);
            }
        }

        // 2. Edge adversary (may inspect predicted intents and the active
        // set). A forced round skips the policy: the caller *is* the
        // adversary.
        let missing = match forced {
            Some(choice) => choice.filter(|e| e.index() < self.ring.size()),
            None => {
                let view = RoundView {
                    round,
                    ring: &self.ring,
                    agents: Cow::Borrowed(&self.scratch.views),
                    visited: &self.visited,
                };
                self.edges
                    .select(&view, &self.scratch.active)
                    .filter(|e| e.index() < self.ring.size())
            }
        };

        // 3. Look + Compute for active agents, in id order. On prediction
        // rounds this is *fused* with the prediction pass: the probe was
        // state-copied from the live protocol and dry-run on the identical
        // Look snapshot, so (protocols being deterministic) its decision is
        // this round's decision and its state the post-Compute state — the
        // probe is swapped in instead of running Look + Compute a second
        // time.
        if fsync && predict {
            // The one-pass FSYNC fill already ran Compute on every live
            // agent and recorded the decisions; terminated agents hold
            // `None` there exactly as the resolution phase expects, so the
            // prediction buffer simply *becomes* the decision buffer.
            std::mem::swap(&mut self.scratch.decisions, &mut self.scratch.predicted);
        } else if deferred {
            // The deferred pass above filled the decision buffer in place.
        } else {
            self.scratch.decisions.clear();
            self.scratch.decisions.resize(self.agents.len(), None);
            for index in 0..self.agents.len() {
                if !self.scratch.active_mask[index] {
                    continue;
                }
                let decision = if predict {
                    // Only the predicting-scheduler tier reaches this branch
                    // (the FSYNC and deferred tiers were handled above), so
                    // the probe holds the post-Compute state: swap it in.
                    debug_assert!(act_pred);
                    let decision = self.scratch.predicted[index]
                        .expect("every live agent carries a prediction on prediction rounds");
                    self.scratch.probes.swap(index, &mut self.agents.program[index]);
                    decision
                } else {
                    let snapshot = build_snapshot(&self.ring, &self.agents, index, round, fsync);
                    self.agents.program[index].decide(&snapshot)
                };
                self.scratch.decisions[index] = Some(decision);
            }
        }

        // Keep the start-of-round nodes for the trace (trace-only work).
        if record_trace {
            self.scratch.nodes_before.clear();
            self.scratch.nodes_before.extend_from_slice(&self.agents.node);
        }

        // Ports denied for the whole round: every port already held at the
        // start of the round plus every port acquired during it ("access to
        // the port continues to be denied … during this round"). At most one
        // entry per agent, so an unsorted scratch vec with a linear
        // membership scan beats both a hash set and a sorted vec. (FSYNC
        // rounds collected the held ports during the one-pass fill; held
        // ports only change during resolution, so the fill-time snapshot is
        // identical.)
        if !fsync {
            self.scratch.claimed.clear();
            for (node, port) in self.agents.node.iter().zip(&self.agents.held_port) {
                if let Some(port) = port {
                    self.scratch.claimed.push((*node, *port));
                }
            }
        }

        // 4–6. Resolution (port acquisition in mutual exclusion, then
        // moves), passive transport, and activation/sleep bookkeeping.
        {
            let agent_count = self.agents.len();
            let transport_pt = self.synchrony.transport() == Some(TransportModel::PassiveTransport);
            let state = self.agents.move_state(
                self.visited.as_mut_slice(),
                &mut self.unvisited,
                &mut self.alive,
            );
            resolve_moves(
                &self.ring,
                state,
                &self.scratch.decisions[..agent_count],
                &self.scratch.active_mask[..agent_count],
                &mut self.scratch.claimed,
                missing,
                round,
                fsync,
                transport_pt,
            );
        }
        if self.explored_at.is_none() && self.unvisited == 0 {
            self.explored_at = Some(round);
        }

        // 7. Trace recording: flat columnar appends straight from the round
        // slices (allocation-free in the recycled steady state; see
        // `Trace::record_round`).
        let visited_count = self.ring.size() - self.unvisited;
        if let Some(trace) = self.trace.as_mut() {
            trace.record_round(
                round,
                missing,
                visited_count,
                self.ring.size(),
                &self.scratch.active,
                &self.scratch.active_mask,
                &self.scratch.nodes_before,
                &self.agents.node,
                &self.agents.held_port,
                &self.scratch.decisions,
                &self.agents.prior,
                &self.agents.terminated,
                &self.agents.program,
            );
        }
        true
    }

    /// Runs until the stop condition holds or `max_rounds` rounds have been
    /// simulated, and summarises the execution.
    pub fn run(&mut self, max_rounds: u64, stop: StopCondition) -> RunReport {
        let reason = self.run_rounds(max_rounds, stop);
        self.report(reason)
    }

    /// [`Simulation::run`], but the summary is written into an existing
    /// report whose per-agent vectors are reused (allocation-free once the
    /// report has seen a team of this size) — the companion of
    /// [`Simulation::recycle`] on the runs/sec fast path.
    pub fn run_into(&mut self, max_rounds: u64, stop: StopCondition, report: &mut RunReport) {
        let reason = self.run_rounds(max_rounds, stop);
        self.report_into(reason, report);
    }

    fn run_rounds(&mut self, max_rounds: u64, stop: StopCondition) -> StopReason {
        // Cruise windows need FSYNC and no trace (a trace records every
        // round); both hold for the whole run.
        let windows = self.synchrony.is_fsync() && self.trace.is_none();
        let mut next_probe = self.round + CRUISE_PROBE_BACKOFF;
        let mut left = max_rounds;
        while left > 0 {
            if self.stop_condition_met(stop) {
                return StopReason::ConditionMet;
            }
            if windows && self.round >= next_probe && self.agents.crowded_nodes == 0 {
                let cruised = self.try_cruise(left, stop);
                if cruised > 0 {
                    left -= cruised;
                    continue;
                }
                next_probe = self.round + CRUISE_PROBE_BACKOFF;
            }
            if !self.step() {
                return StopReason::Deadlocked;
            }
            left -= 1;
        }
        if self.stop_condition_met(stop) {
            StopReason::ConditionMet
        } else {
            StopReason::BudgetExhausted
        }
    }

    /// Plays a cruise window of at most `budget` rounds if every live
    /// program promises a cruise (see [`cruise_window`]), returning the
    /// rounds played.
    #[inline(never)]
    fn try_cruise(&mut self, budget: u64, stop: StopCondition) -> u64 {
        let agent_count = self.agents.len();
        let RoundScratch { views, active, slots, .. } = &mut self.scratch;
        if views.len() < agent_count {
            views.resize(agent_count, AgentView::VACANT);
        }
        if active.len() < agent_count {
            active.resize(agent_count, AgentId::new(0));
        }
        if slots.len() < agent_count {
            slots.resize(agent_count, CruiseSlot::VACANT);
        }
        let state =
            self.agents.move_state(&mut self.visited, &mut self.unvisited, &mut self.alive);
        cruise_window(
            &self.ring,
            state,
            self.edges.as_mut(),
            views,
            active,
            slots,
            &mut self.round,
            &mut self.explored_at,
            budget,
            stop,
            &mut self.cruise,
        )
    }

    fn stop_condition_met(&self, stop: StopCondition) -> bool {
        condition_met(stop, self.explored(), self.alive, self.agents.len())
    }

    /// Builds the report for the current state of the simulation.
    #[must_use]
    pub fn report(&self, stop_reason: StopReason) -> RunReport {
        let mut report = RunReport::default();
        self.report_into(stop_reason, &mut report);
        report
    }

    /// [`Simulation::report`], written into an existing report in place. The
    /// per-agent vectors reuse their capacity, so summarising a recycled run
    /// into a recycled report allocates nothing.
    pub fn report_into(&self, stop_reason: StopReason, out: &mut RunReport) {
        out.rounds = self.round;
        out.ring_size = self.ring.size();
        out.explored_at = self.explored_at;
        out.visited_count = self.visited_count();
        out.termination_rounds.clone_from(&self.agents.terminated_at);
        out.all_terminated = self.all_terminated();
        out.moves_per_agent.clone_from(&self.agents.moves);
        out.visited_per_agent.clear();
        out.visited_per_agent
            .extend((0..self.agents.len()).map(|index| self.agents.visited_count(index)));
        out.total_moves = self.agents.moves.iter().sum();
        out.stop_reason = stop_reason;
    }

    /// View of the upcoming round for external inspection (used by the
    /// renderer and by tests). The view always includes decision predictions
    /// and borrows the simulation's round scratch (which is why this takes
    /// `&mut self` — the next `step` refills every scratch buffer before
    /// reading it, so peeking never perturbs the run).
    #[must_use]
    pub fn peek(&mut self) -> RoundView<'_> {
        let round = self.round + 1;
        let fsync = self.synchrony.is_fsync();
        {
            let RoundScratch { views, predicted, probes, .. } = &mut self.scratch;
            fill_agent_views(views, predicted, probes, &self.ring, &self.agents, round, fsync, true);
        }
        RoundView {
            round,
            ring: &self.ring,
            agents: Cow::Borrowed(&self.scratch.views),
            visited: &self.visited,
        }
    }

    /// Validates the adversary's last choice against the ring (exposed for
    /// property tests; the engine already filters invalid edges).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AdversaryEdgeOutOfRange`] when the edge does not
    /// exist.
    pub fn validate_edge_choice(&self, edge: Option<EdgeId>) -> Result<(), EngineError> {
        match edge {
            Some(e) if e.index() >= self.ring.size() => {
                Err(EngineError::AdversaryEdgeOutOfRange { edge: e, ring_size: self.ring.size() })
            }
            _ => Ok(()),
        }
    }

    /// Number of agents in the team (terminated or not).
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Number of agents that have not terminated.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Total successful traversals across the team so far.
    #[must_use]
    pub fn total_moves(&self) -> u64 {
        self.agents.moves.iter().sum()
    }

    /// Whether this simulation can be checkpointed: the installed activation
    /// policy must be able to capture its state in a token (seeded random
    /// policies cannot; see
    /// [`ActivationPolicy::state_token`]).
    /// The edge policy never matters — checkpoint/restore exists to drive
    /// branching through [`Simulation::step_with_edge`], which bypasses it.
    #[must_use]
    pub fn supports_checkpoint(&self) -> bool {
        self.activation.state_token().is_some()
    }

    /// Captures the complete behavioural state of the run — round, visit
    /// maps, every agent's position/port/program state and the activation
    /// policy's token — into a fresh [`SimCheckpoint`], so the run can be
    /// branched: `checkpoint`, step with one adversary choice, inspect,
    /// [`restore`](Simulation::restore), step with the next choice.
    ///
    /// The trace (if recording) and the edge policy's internal state are
    /// deliberately **not** captured: checkpointing callers drive the
    /// adversary themselves through [`Simulation::step_with_edge`] and run
    /// trace-off (a restored trace-on simulation keeps appending rounds from
    /// every branch to one trace).
    ///
    /// # Panics
    ///
    /// Panics if the activation policy is not checkpointable; guard with
    /// [`Simulation::supports_checkpoint`].
    #[must_use]
    pub fn checkpoint(&self) -> SimCheckpoint {
        let mut out = SimCheckpoint::default();
        self.checkpoint_into(&mut out);
        out
    }

    /// [`Simulation::checkpoint`], written into an existing checkpoint whose
    /// buffers are reused — the model checker's expansion loop re-fills one
    /// scratch checkpoint per candidate state instead of allocating per
    /// branch.
    ///
    /// # Panics
    ///
    /// Panics if the activation policy is not checkpointable.
    pub fn checkpoint_into(&self, out: &mut SimCheckpoint) {
        out.round = self.round;
        out.explored_at = self.explored_at;
        out.unvisited = self.unvisited;
        out.alive = self.alive;
        out.visited.clone_from(&self.visited);
        let agents = &self.agents;
        out.node.clone_from(&agents.node);
        out.held_port.clone_from(&agents.held_port);
        out.terminated.clone_from(&agents.terminated);
        out.handedness.clone_from(&agents.handedness);
        out.prior.clone_from(&agents.prior);
        out.moves.clone_from(&agents.moves);
        out.activations.clone_from(&agents.activations);
        out.last_active_round.clone_from(&agents.last_active_round);
        out.asleep_on_port.clone_from(&agents.asleep_on_port);
        out.terminated_at.clone_from(&agents.terminated_at);
        out.agent_visited.clone_from(&agents.visited);
        out.agent_visited_count.clone_from(&agents.visited_count);
        out.node_population.clone_from(&agents.node_population);
        out.crowded_nodes = agents.crowded_nodes;
        out.program.clone_from(&agents.program);
        out.activation_token = self
            .activation
            .state_token()
            .expect("checkpoint requires a checkpointable activation policy");
    }

    /// Rewinds the run to a state previously captured from **this** run by
    /// [`Simulation::checkpoint`]: every field the checkpoint holds is copied
    /// back in place (no allocation when shapes match) and the activation
    /// policy's state token is restored. Stepping after a restore replays
    /// exactly as stepping did from the original state.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shape (team size, ring size) does not match
    /// this simulation — checkpoints are not portable across specs.
    pub fn restore(&mut self, cp: &SimCheckpoint) {
        assert_eq!(cp.node.len(), self.agents.len(), "checkpoint is from a different team");
        assert_eq!(cp.visited.len(), self.ring.size(), "checkpoint is from a different ring");
        self.round = cp.round;
        self.explored_at = cp.explored_at;
        self.unvisited = cp.unvisited;
        self.alive = cp.alive;
        self.visited.clone_from(&cp.visited);
        let agents = &mut self.agents;
        agents.node.clone_from(&cp.node);
        agents.held_port.clone_from(&cp.held_port);
        agents.terminated.clone_from(&cp.terminated);
        agents.handedness.clone_from(&cp.handedness);
        agents.prior.clone_from(&cp.prior);
        agents.moves.clone_from(&cp.moves);
        agents.activations.clone_from(&cp.activations);
        agents.last_active_round.clone_from(&cp.last_active_round);
        agents.asleep_on_port.clone_from(&cp.asleep_on_port);
        agents.terminated_at.clone_from(&cp.terminated_at);
        agents.visited.clone_from(&cp.agent_visited);
        agents.visited_count.clone_from(&cp.agent_visited_count);
        agents.node_population.clone_from(&cp.node_population);
        agents.crowded_nodes = cp.crowded_nodes;
        agents.program.clone_from(&cp.program);
        if let Some(trace) = self.trace.as_mut() {
            // Program state just changed outside `decide` — the one event the
            // trace's label delta encoding cannot observe.
            trace.invalidate_label_cache();
        }
        self.activation.restore_state(cp.activation_token);
    }
}

/// Resolution phase of one round — steps 4–6 of the round pipeline: port
/// acquisition in mutual exclusion, traversals against the missing edge,
/// passive transport of sleeping agents (PT model), and activation/sleep
/// bookkeeping. `decisions[index]` is `Some` exactly for the agents that ran
/// Compute this round; `claimed` must already hold every port held at the
/// start of the round.
///
/// The per-agent state arrives as slices hoisted once per round (via
/// [`MoveState`]): the parallel vectors are re-sliced to the common
/// length so the indexing below is bounds-check-free.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn resolve_moves(
    ring: &RingTopology,
    state: MoveState<'_>,
    decisions: &[Option<Decision>],
    active_mask: &[bool],
    claimed: &mut Vec<(NodeId, GlobalDirection)>,
    missing: Option<EdgeId>,
    round: u64,
    fsync: bool,
    transport_pt: bool,
) {
    let MoveState {
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
        ring_size,
        node_population,
        crowded_nodes,
        global_visited,
        unvisited,
        alive,
    } = state;
    let agent_count = node.len();
    let decisions = &decisions[..agent_count];
    let mut mark_visited = |index: usize, node_index: usize| {
        if !global_visited[node_index] {
            global_visited[node_index] = true;
            *unvisited -= 1;
        }
        let cell = &mut agent_visited[index * ring_size + node_index];
        if !*cell {
            *cell = true;
            visited_count[index] += 1;
        }
    };
    for index in 0..agent_count {
        let Some(decision) = decisions[index] else { continue };
        // Under FSYNC every decider was active, so the per-agent
        // bookkeeping (step 6) folds into this pass; terminated
        // agents were never activated and their sleep counters are
        // already zero.
        if fsync {
            activations[index] += 1;
            last_active_round[index] = round;
            asleep_on_port[index] = 0;
        }
        match decision {
            Decision::Terminate => {
                *alive -= 1;
                terminated[index] = true;
                terminated_at[index] = Some(round);
                held_port[index] = None;
                prior[index] = PriorOutcome::Idle;
            }
            Decision::Stay => {
                prior[index] = PriorOutcome::Idle;
            }
            Decision::Retreat => {
                held_port[index] = None;
                prior[index] = PriorOutcome::Idle;
            }
            Decision::Move(ldir) => {
                let gdir = crate::world::to_global(handedness[index], ldir);
                let at = node[index];
                let already_held = held_port[index] == Some(gdir);
                if !already_held {
                    // Release any other port first, then try to
                    // acquire. The target port must not have been
                    // held or claimed by anyone else this round
                    // (mutual exclusion).
                    held_port[index] = None;
                    if claimed.contains(&(at, gdir)) {
                        prior[index] = PriorOutcome::PortAcquisitionFailed;
                        continue;
                    }
                    held_port[index] = Some(gdir);
                    claimed.push((at, gdir));
                }
                // Attempt the traversal.
                let edge = ring.edge_towards(at, gdir);
                if missing == Some(edge) {
                    prior[index] = PriorOutcome::BlockedOnPort;
                } else {
                    let destination = ring.neighbor(at, gdir);
                    node[index] = destination;
                    held_port[index] = None;
                    prior[index] = PriorOutcome::Moved;
                    moves[index] += 1;
                    AgentSoA::relocate(node_population, crowded_nodes, at, destination);
                    mark_visited(index, destination.index());
                }
            }
        }
        // A protocol may flag termination without returning
        // `Terminate` (defensive; none of the paper's algorithms do).
        if poll_termination[index] && program[index].has_terminated() && !terminated[index] {
            *alive -= 1;
            terminated[index] = true;
            terminated_at[index] = Some(round);
            held_port[index] = None;
        }
    }

    // 5. Passive transport of sleeping agents (PT model only).
    if transport_pt {
        let active_mask = &active_mask[..agent_count];
        for index in 0..agent_count {
            if active_mask[index] || terminated[index] {
                continue;
            }
            if let Some(gdir) = held_port[index] {
                let at = node[index];
                let edge = ring.edge_towards(at, gdir);
                if missing != Some(edge) {
                    let destination = ring.neighbor(at, gdir);
                    node[index] = destination;
                    held_port[index] = None;
                    prior[index] = PriorOutcome::Transported;
                    moves[index] += 1;
                    AgentSoA::relocate(node_population, crowded_nodes, at, destination);
                    mark_visited(index, destination.index());
                }
            }
        }
    }

    // 6. Bookkeeping: activation ages, sleep counters (FSYNC rounds
    // folded this into the resolution pass above).
    if !fsync {
        let active_mask = &active_mask[..agent_count];
        for index in 0..agent_count {
            if active_mask[index] {
                activations[index] += 1;
                last_active_round[index] = round;
                asleep_on_port[index] = 0;
            } else if held_port[index].is_some() {
                asleep_on_port[index] += 1;
            } else {
                asleep_on_port[index] = 0;
            }
        }
    }
}

/// Whether `stop` holds for a run with the given exploration status and
/// liveness — the one stop test of the round loop and the cruise windows.
#[inline]
fn condition_met(
    stop: StopCondition,
    explored: bool,
    alive: usize,
    agent_count: usize,
) -> bool {
    match stop {
        StopCondition::Explored => explored,
        StopCondition::ExploredAndPartialTermination => explored && alive < agent_count,
        StopCondition::AllTerminated => alive == 0,
        StopCondition::RoundBudget => false,
    }
}

/// Rounds a run plays before it first asks its programs for a cruise, and
/// again after one of them declined. Asking costs a virtual call per live
/// agent, which a run that never cruises would otherwise pay every round
/// (and a short run at all); a window that opens up to this many rounds
/// late plays the same rounds generically, so the backoff changes no
/// result.
const CRUISE_PROBE_BACKOFF: u64 = 32;

/// Deterministic counters of the cruise windows a run played (see
/// `docs/ARCHITECTURE.md`, "Cruise windows"). They are not part of the
/// [`RunReport`]: a window changes how rounds are played, never what they
/// produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CruiseStats {
    /// Windows entered.
    pub windows: u64,
    /// Rounds played inside windows, jumped ones included.
    pub rounds: u64,
    /// Rounds crossed by quiet jumps.
    pub jumped: u64,
}

/// One live agent's side of a cruise window: its promised direction (in the
/// global frame) and the log of what its skipped `decide` calls would have
/// absorbed.
#[derive(Debug, Clone, Copy)]
struct CruiseSlot {
    gdir: GlobalDirection,
    log: CruiseLog,
}

impl CruiseSlot {
    /// Filler for the per-agent scratch arrays (every field is written when
    /// a window starts).
    const VACANT: CruiseSlot = CruiseSlot {
        gdir: GlobalDirection::Ccw,
        log: CruiseLog {
            activations: 0,
            first_prior: PriorOutcome::Idle,
            moves: 0,
            trailing_blocked: 0,
        },
    };

    /// Tallies the outcome of a window move, as absorbed by the next
    /// window activation.
    #[inline(always)]
    fn absorb(&mut self, prior: PriorOutcome) {
        if prior == PriorOutcome::Moved {
            self.log.moves += 1;
            self.log.trailing_blocked = 0;
        } else {
            debug_assert_eq!(prior, PriorOutcome::BlockedOnPort);
            self.log.trailing_blocked += 1;
        }
    }
}

/// The first round `t ≥ 1` after which two agents at distinct nodes `a` and
/// `b` stand on one node, when `a` steps `da` and `b` steps `db` (each
/// `-1`, `0` or `+1`) every round on a ring of `n` nodes; `u64::MAX` if
/// they never do.
fn first_meeting(n: u64, a: u64, da: i64, b: u64, db: i64) -> u64 {
    let closing = da - db;
    if closing == 0 {
        return u64::MAX;
    }
    // Gap from a to b, measured in a's relative direction of travel.
    let gap = if closing > 0 { (b + n - a) % n } else { (a + n - b) % n };
    if closing.abs() == 1 {
        gap
    } else if gap % 2 == 0 {
        gap / 2
    } else if n % 2 == 1 {
        (gap + n) / 2
    } else {
        // An odd gap on an even ring never closes: the two swap sides on an
        // edge instead of meeting on a node.
        u64::MAX
    }
}

/// Plays a **cruise window** on an FSYNC run (see `docs/ARCHITECTURE.md`,
/// "Cruise windows") and returns the rounds it played — `0` when the run is
/// not eligible. The callers have already checked the cheap conditions, in
/// this order: FSYNC, no trace, no node holding two agents (and the probe
/// backoff, [`CRUISE_PROBE_BACKOFF`]); here every live agent must promise a
/// [`Protocol::cruise`].
///
/// Each window round is the generic FSYNC round with `decide` replaced by
/// the promised `Move(dir)`: the views are filled as
/// [`fill_round_fsync`] fills them, the edge policy selects on them, and
/// every agent moves or blocks exactly as [`resolve_moves`] would move an
/// agent that is alone at its node. Rounds that the policy declares quiet
/// ([`EdgePolicy::quiet_rounds`]) on a fully explored ring are jumped in
/// one step, up to the round before the first possible meeting. The window
/// ends when a promise runs out, two agents share a node, the stop
/// condition holds or `budget` rounds are played; then every live program
/// absorbs the window through one [`Protocol::advance_cruise`] call.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn cruise_window(
    ring: &RingTopology,
    state: MoveState<'_>,
    edges: &mut dyn EdgePolicy,
    views: &mut [AgentView],
    active: &mut [AgentId],
    slots: &mut [CruiseSlot],
    round: &mut u64,
    explored_at: &mut Option<u64>,
    budget: u64,
    stop: StopCondition,
    stats: &mut CruiseStats,
) -> u64 {
    let MoveState {
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
        agent_visited,
        visited_count,
        ring_size,
        node_population,
        crowded_nodes,
        global_visited,
        unvisited,
        alive,
        ..
    } = state;
    debug_assert_eq!(*crowded_nodes, 0, "callers only probe uncrowded runs");
    let agent_count = node.len();
    let mut limit = budget;
    let mut live = 0;
    for index in 0..agent_count {
        if terminated[index] {
            continue;
        }
        let Some(cruise) = program[index].cruise() else { return 0 };
        limit = limit.min(cruise.activations);
        active[live] = AgentId::new(index);
        live += 1;
        slots[index] = CruiseSlot {
            gdir: crate::world::to_global(handedness[index], cruise.dir),
            log: CruiseLog {
                activations: 0,
                first_prior: prior[index],
                moves: 0,
                trailing_blocked: 0,
            },
        };
    }
    if live == 0 || limit == 0 {
        return 0;
    }
    let active = &active[..live];
    let views = &mut views[..agent_count];
    let predict = edges.needs_predictions();
    for (index, view) in views.iter_mut().enumerate() {
        *view = AgentView {
            id: AgentId::new(index),
            node: node[index],
            held_port: held_port[index],
            terminated: terminated[index],
            handedness: handedness[index],
            predicted: if terminated[index] {
                PredictedAction::Terminate
            } else {
                PredictedAction::Stay
            },
            last_active_round: last_active_round[index],
            asleep_on_port: asleep_on_port[index],
            moves: moves[index],
        };
    }
    let n = ring.size();
    let mut played = 0;
    let mut jumped = 0;
    while played < limit {
        // Quiet jump: nothing left to visit, nobody blocked by the policy
        // and nobody meeting before the horizon, so every round of the
        // jump moves every live agent one step.
        if explored_at.is_some()
            && active.iter().all(|id| visited_count[id.index()] == ring_size)
        {
            let quiet = edges.quiet_rounds(*round + 1, n);
            if quiet > 0 {
                let mut horizon = u64::MAX;
                for i in 0..agent_count {
                    let di = if terminated[i] { 0 } else { slots[i].gdir.step() };
                    for j in i + 1..agent_count {
                        let dj = if terminated[j] { 0 } else { slots[j].gdir.step() };
                        let at_i = node[i].index() as u64;
                        let at_j = node[j].index() as u64;
                        horizon = horizon.min(first_meeting(n as u64, at_i, di, at_j, dj));
                    }
                }
                let rounds = quiet.min(limit - played).min(horizon - 1);
                if rounds > 0 {
                    let r = *round + rounds;
                    let shift = (rounds % n as u64) as usize;
                    for id in active {
                        let index = id.index();
                        let slot = &mut slots[index];
                        if played > 0 {
                            slot.absorb(prior[index]);
                        }
                        if rounds > 1 {
                            slot.log.moves += rounds - 1;
                            slot.log.trailing_blocked = 0;
                        }
                        let at = node[index];
                        let to = match slot.gdir {
                            GlobalDirection::Ccw => (at.index() + shift) % n,
                            GlobalDirection::Cw => (at.index() + n - shift) % n,
                        };
                        let destination = NodeId::new(to);
                        AgentSoA::relocate(node_population, crowded_nodes, at, destination);
                        node[index] = destination;
                        held_port[index] = None;
                        prior[index] = PriorOutcome::Moved;
                        moves[index] += rounds;
                        activations[index] += rounds;
                        last_active_round[index] = r;
                        asleep_on_port[index] = 0;
                    }
                    debug_assert_eq!(*crowded_nodes, 0, "a jump never ends on a meeting");
                    edges.skip_quiet(rounds);
                    *round = r;
                    played += rounds;
                    jumped += rounds;
                    continue;
                }
            }
        }

        // One lean round.
        let r = *round + 1;
        *round = r;
        for id in active {
            let index = id.index();
            let at = node[index];
            let view = &mut views[index];
            view.node = at;
            view.held_port = held_port[index];
            view.last_active_round = last_active_round[index];
            view.asleep_on_port = asleep_on_port[index];
            view.moves = moves[index];
            if predict {
                let gdir = slots[index].gdir;
                view.predicted =
                    PredictedAction::Move { edge: ring.edge_towards(at, gdir), direction: gdir };
            }
        }
        let view = RoundView {
            round: r,
            ring,
            agents: Cow::Borrowed(&views[..]),
            visited: &global_visited[..],
        };
        let missing = edges.select(&view, active).filter(|e| e.index() < n);
        for id in active {
            let index = id.index();
            let slot = &mut slots[index];
            if played > 0 {
                slot.absorb(prior[index]);
            }
            activations[index] += 1;
            last_active_round[index] = r;
            asleep_on_port[index] = 0;
            // Alone at its node, the agent always acquires its port.
            let at = node[index];
            if missing == Some(ring.edge_towards(at, slot.gdir)) {
                held_port[index] = Some(slot.gdir);
                prior[index] = PriorOutcome::BlockedOnPort;
            } else {
                let destination = ring.neighbor(at, slot.gdir);
                node[index] = destination;
                held_port[index] = None;
                prior[index] = PriorOutcome::Moved;
                moves[index] += 1;
                AgentSoA::relocate(node_population, crowded_nodes, at, destination);
                let node_index = destination.index();
                if !global_visited[node_index] {
                    global_visited[node_index] = true;
                    *unvisited -= 1;
                }
                let cell = &mut agent_visited[index * ring_size + node_index];
                if !*cell {
                    *cell = true;
                    visited_count[index] += 1;
                }
            }
        }
        if explored_at.is_none() && *unvisited == 0 {
            *explored_at = Some(r);
        }
        played += 1;
        if *crowded_nodes > 0
            || condition_met(stop, explored_at.is_some(), *alive, agent_count)
        {
            break;
        }
    }
    for id in active {
        let log = &mut slots[id.index()].log;
        log.activations = played;
        program[id.index()].advance_cruise(log);
    }
    stats.windows += 1;
    stats.rounds += played;
    stats.jumped += jumped;
    played
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BlockAgent, NoRemoval, PreventMeeting};
    use crate::scheduler::{FullActivation, RoundRobinSingle};
    use dynring_core::fsync::{KnownBound, Unconscious};
    use dynring_core::single::LoneWalker;
    use dynring_core::ssync::PtBoundChirality;

    fn fsync_sim(
        n: usize,
        starts: &[usize],
        protos: Vec<Box<dyn Protocol>>,
        edges: Box<dyn EdgePolicy>,
    ) -> Simulation {
        let ring = RingTopology::new(n).unwrap();
        let mut builder = Simulation::builder(ring)
            .synchrony(SynchronyModel::Fsync)
            .activation(Box::new(FullActivation))
            .edges(edges)
            .record_trace(true);
        for (start, proto) in starts.iter().zip(protos) {
            builder = builder.agent(NodeId::new(*start), Handedness::LeftIsCcw, proto);
        }
        builder.build().unwrap()
    }

    #[test]
    fn first_meeting_matches_a_brute_force_walk() {
        for n in 3..12u64 {
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).filter(|(a, b)| a != b) {
                for (da, db) in [-1i64, 0, 1].into_iter().flat_map(|d| [(d, -1), (d, 0), (d, 1)]) {
                    let at = |start: u64, step: i64, t: u64| {
                        (start as i64 + step * t as i64).rem_euclid(n as i64)
                    };
                    let walked = (1..=2 * n)
                        .find(|&t| at(a, da, t) == at(b, db, t))
                        .unwrap_or(u64::MAX);
                    assert_eq!(first_meeting(n, a, da, b, db), walked, "n={n} {a}{da:+} {b}{db:+}");
                }
            }
        }
    }

    #[test]
    fn builder_rejects_empty_scenarios_and_bad_starts() {
        let ring = RingTopology::new(4).unwrap();
        let err = Simulation::builder(ring.clone())
            .activation(Box::new(FullActivation))
            .edges(Box::new(NoRemoval))
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::NoAgents);

        let err = Simulation::builder(ring.clone())
            .agent(NodeId::new(9), Handedness::LeftIsCcw, Box::new(LoneWalker::new(0)))
            .activation(Box::new(FullActivation))
            .edges(Box::new(NoRemoval))
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::StartOutOfRange { .. }));

        let err = Simulation::builder(ring)
            .agent(NodeId::new(0), Handedness::LeftIsCcw, Box::new(LoneWalker::new(0)))
            .edges(Box::new(NoRemoval))
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::MissingPolicy { which: "activation" }));
    }

    #[test]
    fn two_known_bound_agents_explore_and_terminate_on_a_static_ring() {
        let n = 8;
        let mut sim = fsync_sim(
            n,
            &[0, 3],
            vec![Box::new(KnownBound::new(n)), Box::new(KnownBound::new(n))],
            Box::new(NoRemoval),
        );
        let report = sim.run(200, StopCondition::AllTerminated);
        assert!(report.explored());
        assert!(report.all_terminated);
        // Theorem 3: termination within 3N - 6 rounds (plus the terminating
        // decision round itself).
        let deadline = 3 * n as u64 - 6 + 1;
        assert!(report.last_termination().unwrap() <= deadline);
        sim.trace().unwrap().check_invariants(n).unwrap();
    }

    #[test]
    fn a_single_agent_never_explores_against_its_blocker() {
        let n = 6;
        let mut sim = fsync_sim(
            n,
            &[2],
            vec![Box::new(LoneWalker::new(3))],
            Box::new(BlockAgent::new(AgentId::new(0))),
        );
        let report = sim.run(500, StopCondition::Explored);
        assert!(!report.explored());
        assert_eq!(report.visited_count, 1);
        assert_eq!(report.total_moves, 0);
    }

    #[test]
    fn unconscious_agents_explore_despite_prevent_meeting() {
        let n = 9;
        let mut sim = fsync_sim(
            n,
            &[0, 4],
            vec![Box::new(Unconscious::new()), Box::new(Unconscious::new())],
            Box::new(PreventMeeting::new()),
        );
        let report = sim.run(40 * n as u64, StopCondition::Explored);
        assert!(report.explored(), "Theorem 5: exploration completes in O(n) rounds");
        assert!(!report.all_terminated, "unconscious exploration never terminates");
    }

    #[test]
    fn port_mutual_exclusion_lets_only_one_agent_through() {
        // Two agents on the same node moving the same way: one acquires the
        // port, the other reports a failed acquisition (Theorem 3's argument
        // for agents starting on the same node).
        let n = 5;
        let mut sim = fsync_sim(
            n,
            &[0, 0],
            vec![Box::new(KnownBound::new(n)), Box::new(KnownBound::new(n))],
            Box::new(NoRemoval),
        );
        assert!(sim.step());
        let record = sim.trace().unwrap().round_at(0).unwrap();
        let outcomes: Vec<PriorOutcome> = record.agents.iter().map(|a| a.outcome).collect();
        assert!(outcomes.contains(&PriorOutcome::Moved));
        assert!(outcomes.contains(&PriorOutcome::PortAcquisitionFailed));
        sim.trace().unwrap().check_invariants(n).unwrap();
    }

    #[test]
    fn ssync_round_robin_with_pt_transport_carries_sleepers() {
        use crate::adversary::FromSchedule;
        use dynring_graph::ScheduleBuilder;
        // One PT agent walking left (CCW→CW depending on handedness) gets
        // blocked, falls asleep on the port, and is carried across when the
        // edge reappears while it is still asleep.
        let ring = RingTopology::new(6).unwrap();
        let schedule = ScheduleBuilder::new(&ring)
            .remove_for(dynring_graph::EdgeId::new(5), 2)
            .all_present_for(10)
            .build();
        let mut sim = Simulation::builder(ring)
            .synchrony(SynchronyModel::Ssync(TransportModel::PassiveTransport))
            .agent(NodeId::new(0), Handedness::LeftIsCcw, Box::new(PtBoundChirality::new(6)))
            .agent(NodeId::new(3), Handedness::LeftIsCcw, Box::new(PtBoundChirality::new(6)))
            .activation(Box::new(RoundRobinSingle::new()))
            .edges(Box::new(FromSchedule::new(schedule)))
            .record_trace(true)
            .build()
            .unwrap();
        let report = sim.run(400, StopCondition::ExploredAndPartialTermination);
        assert!(report.explored());
        assert!(report.partially_terminated(), "Theorem 12: at least one agent terminates");
        sim.trace().unwrap().check_invariants(6).unwrap();
    }

    #[test]
    fn report_accessors_are_consistent() {
        let n = 6;
        let mut sim = fsync_sim(
            n,
            &[0, 2],
            vec![Box::new(KnownBound::new(n)), Box::new(KnownBound::new(n))],
            Box::new(NoRemoval),
        );
        let report = sim.run(100, StopCondition::AllTerminated);
        assert_eq!(report.ring_size, n);
        assert_eq!(report.moves_per_agent.len(), 2);
        assert_eq!(report.termination_rounds.len(), 2);
        assert!(report.first_termination().is_some());
        assert!(report.last_termination().unwrap() >= report.first_termination().unwrap());
        assert_eq!(
            report.total_moves,
            report.moves_per_agent.iter().sum::<u64>()
        );
    }

    #[test]
    fn run_spec_validates_like_the_builder() {
        let ring = RingTopology::new(4).unwrap();
        let err = RunSpec::new(ring.clone(), SynchronyModel::Fsync, vec![], false).unwrap_err();
        assert_eq!(err, EngineError::NoAgents);
        let err = RunSpec::new(
            ring,
            SynchronyModel::Fsync,
            vec![AgentSpec::new(
                NodeId::new(9),
                Handedness::LeftIsCcw,
                Box::new(LoneWalker::new(0)) as Box<dyn Protocol>,
            )],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::StartOutOfRange { .. }));
    }

    #[test]
    fn recycled_runs_replay_the_fresh_execution_bit_for_bit() {
        let n = 8;
        let spec = RunSpec::new(
            RingTopology::new(n).unwrap(),
            SynchronyModel::Fsync,
            vec![
                AgentSpec::new(
                    NodeId::new(0),
                    Handedness::LeftIsCcw,
                    Box::new(KnownBound::new(n)) as Box<dyn Protocol>,
                ),
                AgentSpec::new(
                    NodeId::new(3),
                    Handedness::LeftIsCcw,
                    Box::new(KnownBound::new(n)) as Box<dyn Protocol>,
                ),
            ],
            true,
        )
        .unwrap();
        assert_eq!(spec.agent_count(), 2);
        assert!(spec.record_trace());
        assert_eq!(spec.ring().size(), n);
        assert!(spec.synchrony().is_fsync());
        let mut sim = spec.instantiate(
            Box::new(FullActivation),
            Box::new(crate::adversary::StickyRandomEdge::new(1, 6, 0.25, 7)),
        );
        let fresh_report = sim.run(200, StopCondition::AllTerminated);
        let fresh_trace = sim.trace().expect("trace on").clone();
        // Recycling the same simulation (the seeded adversary is restored by
        // its reset hook) must replay the identical execution; run_into
        // refills an existing report in place.
        let mut recycled_report = RunReport::default();
        for _ in 0..3 {
            sim.recycle(&spec);
            assert_eq!(sim.round(), 0);
            sim.run_into(200, StopCondition::AllTerminated, &mut recycled_report);
            assert_eq!(fresh_report, recycled_report);
            assert_eq!(&fresh_trace, sim.trace().expect("trace on"));
        }
    }

    #[test]
    fn recycle_adopts_a_new_shape_and_policies() {
        let small = RunSpec::new(
            RingTopology::new(5).unwrap(),
            SynchronyModel::Fsync,
            vec![
                AgentSpec::new(
                    NodeId::new(0),
                    Handedness::LeftIsCcw,
                    Box::new(KnownBound::new(5)) as Box<dyn Protocol>,
                ),
                AgentSpec::new(
                    NodeId::new(2),
                    Handedness::LeftIsCcw,
                    Box::new(KnownBound::new(5)) as Box<dyn Protocol>,
                ),
            ],
            true,
        )
        .unwrap();
        let big = RunSpec::new(
            RingTopology::new(9).unwrap(),
            SynchronyModel::Fsync,
            vec![AgentSpec::new(
                NodeId::new(4),
                Handedness::LeftIsCw,
                Box::new(LoneWalker::new(0)) as Box<dyn Protocol>,
            )],
            false,
        )
        .unwrap();
        let reference = big
            .instantiate(Box::new(FullActivation), Box::new(NoRemoval))
            .run(40, StopCondition::RoundBudget);
        // Start from the *small* two-agent spec, then recycle into the
        // nine-node single-agent one with different policies: the grown ring
        // and shrunk team must behave exactly like a fresh build.
        let mut sim = small.instantiate(
            Box::new(FullActivation),
            Box::new(BlockAgent::new(AgentId::new(0))),
        );
        let _ = sim.run(30, StopCondition::AllTerminated);
        sim.replace_policies(Box::new(FullActivation), Box::new(NoRemoval));
        sim.recycle(&big);
        assert!(sim.trace().is_none(), "recycling a trace-off spec drops the trace");
        assert_eq!(sim.run(40, StopCondition::RoundBudget), reference);
    }

    #[test]
    fn peek_exposes_predictions_without_advancing() {
        let n = 5;
        let mut sim = fsync_sim(
            n,
            &[0, 2],
            vec![Box::new(KnownBound::new(n)), Box::new(KnownBound::new(n))],
            Box::new(NoRemoval),
        );
        let view = sim.peek();
        assert_eq!(view.round, 1);
        assert_eq!(view.agents.len(), 2);
        assert!(view.agents.iter().all(|a| a.predicted.is_move()));
        assert_eq!(sim.round(), 0);
        assert!(sim.validate_edge_choice(Some(EdgeId::new(9))).is_err());
        assert!(sim.validate_edge_choice(Some(EdgeId::new(2))).is_ok());
        assert!(sim.validate_edge_choice(None).is_ok());
    }
}
