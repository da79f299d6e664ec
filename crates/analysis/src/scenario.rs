//! Declarative scenario descriptions and a one-call runner.
//!
//! A [`Scenario`] bundles everything needed to run one execution: the ring
//! (size and landmark), the algorithm and how many agents run it, their
//! starting nodes and orientations, the synchrony/transport model, the
//! activation scheduler and the edge adversary. The experiments in
//! [`crate::tables`], [`crate::figures`] and [`crate::sweeps`] are all thin
//! layers over this type.

use dynring_core::Algorithm;
use dynring_engine::adversary::{
    AlternatingBlock, BlockAgent, BlockEdgeForever, BlockFirstMover, ConfineWindow, EdgePolicy,
    FromSchedule, NoRemoval, PreventMeeting, RandomEdge, StickyRandomEdge,
};
use dynring_engine::scheduler::{
    ActivationPolicy, AlternateBlocked, EtFairness, FirstMoverOnly, FullActivation, RandomSubset,
    RoundRobinSingle,
};
use dynring_engine::sim::{
    AgentSpec, CruiseStats, RunReport, RunSpec, Simulation, StopCondition,
};
use dynring_engine::trace::Trace;
use dynring_graph::{AgentId, EdgeId, EdgeSchedule, Handedness, NodeId, RingTopology};
use dynring_model::SynchronyModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The edge adversaries available to scenarios (a serialisable mirror of the
/// engine's [`EdgePolicy`] implementations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// No edge is ever removed.
    Static,
    /// One uniformly random edge is removed with probability `p` each round.
    Random {
        /// Removal probability per round.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A random edge is removed and held for a random number of rounds.
    Sticky {
        /// Minimum hold duration.
        min_hold: u64,
        /// Maximum hold duration.
        max_hold: u64,
        /// Probability that an episode removes no edge at all.
        present: f64,
        /// RNG seed.
        seed: u64,
    },
    /// The same edge is removed in every round.
    BlockForever {
        /// The permanently missing edge.
        edge: usize,
    },
    /// Observation 1: the edge in front of the given agent is always removed.
    BlockAgent {
        /// The targeted agent index.
        agent: usize,
    },
    /// Observation 2: the agents are never allowed to meet.
    PreventMeeting,
    /// Theorem 9: the single activated would-be mover is always blocked.
    BlockFirstMover,
    /// The agents are confined to the CCW arc `[lo, hi]`.
    Confine {
        /// First node of the window.
        lo: usize,
        /// Last node of the window.
        hi: usize,
    },
    /// Two edges are removed in alternation.
    Alternating {
        /// Edge removed in odd rounds.
        first: usize,
        /// Edge removed in even rounds.
        second: usize,
    },
    /// A scripted schedule (e.g. the Figure 2 worst case), shared behind an
    /// [`Arc`] so huge batteries replaying one schedule across thousands of
    /// cells never deep-copy the removal list per build (construct via
    /// [`AdversaryKind::scripted`]).
    Scripted(Arc<EdgeSchedule>),
}

impl AdversaryKind {
    /// Wraps a scripted schedule (owned or already shared).
    #[must_use]
    pub fn scripted(schedule: impl Into<Arc<EdgeSchedule>>) -> Self {
        AdversaryKind::Scripted(schedule.into())
    }

    pub(crate) fn instantiate(&self) -> Box<dyn EdgePolicy> {
        match self {
            AdversaryKind::Static => Box::new(NoRemoval),
            AdversaryKind::Random { p, seed } => Box::new(RandomEdge::new(*p, *seed)),
            AdversaryKind::Sticky { min_hold, max_hold, present, seed } => {
                Box::new(StickyRandomEdge::new(*min_hold, *max_hold, *present, *seed))
            }
            AdversaryKind::BlockForever { edge } => {
                Box::new(BlockEdgeForever::new(EdgeId::new(*edge)))
            }
            AdversaryKind::BlockAgent { agent } => Box::new(BlockAgent::new(AgentId::new(*agent))),
            AdversaryKind::PreventMeeting => Box::new(PreventMeeting::new()),
            AdversaryKind::BlockFirstMover => Box::new(BlockFirstMover),
            AdversaryKind::Confine { lo, hi } => {
                Box::new(ConfineWindow::new(NodeId::new(*lo), NodeId::new(*hi)))
            }
            AdversaryKind::Alternating { first, second } => {
                Box::new(AlternatingBlock::new(EdgeId::new(*first), EdgeId::new(*second)))
            }
            AdversaryKind::Scripted(schedule) => {
                // A clone of the Arc, not of the schedule: the removal list
                // is shared by every cell of a battery.
                Box::new(FromSchedule::new(Arc::clone(schedule)))
            }
        }
    }

    /// A short label used in reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AdversaryKind::Static => "static".into(),
            AdversaryKind::Random { p, .. } => format!("random(p={p})"),
            AdversaryKind::Sticky { min_hold, max_hold, .. } => {
                format!("sticky({min_hold}..{max_hold})")
            }
            AdversaryKind::BlockForever { edge } => format!("block-e{edge}-forever"),
            AdversaryKind::BlockAgent { agent } => format!("block-agent-{agent}"),
            AdversaryKind::PreventMeeting => "prevent-meeting".into(),
            AdversaryKind::BlockFirstMover => "block-first-mover".into(),
            AdversaryKind::Confine { lo, hi } => format!("confine[{lo}..{hi}]"),
            AdversaryKind::Alternating { first, second } => format!("alternate(e{first},e{second})"),
            AdversaryKind::Scripted(_) => "scripted".into(),
        }
    }
}

/// The activation schedulers available to scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// FSYNC: every agent active in every round.
    Full,
    /// Exactly one agent per round, in rotation.
    RoundRobin,
    /// Each agent active independently with probability `p`.
    Random {
        /// Activation probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Agents waiting on a port are kept asleep for up to `hold` rounds.
    SleepBlocked {
        /// Maximum consecutive sleeping rounds on a port.
        hold: u64,
    },
    /// Theorem 9: only the longest-passive would-be mover (plus all
    /// non-movers) is activated.
    FirstMoverOnly,
    /// Round robin wrapped in the ET fairness guarantee.
    EtFairRoundRobin {
        /// Maximum rounds an agent may sleep on a port before being woken.
        max_lag: u64,
    },
}

impl SchedulerKind {
    pub(crate) fn instantiate(&self) -> Box<dyn ActivationPolicy> {
        match self {
            SchedulerKind::Full => Box::new(FullActivation),
            SchedulerKind::RoundRobin => Box::new(RoundRobinSingle::new()),
            SchedulerKind::Random { p, seed } => Box::new(RandomSubset::new(*p, *seed)),
            SchedulerKind::SleepBlocked { hold } => Box::new(AlternateBlocked::new(*hold)),
            SchedulerKind::FirstMoverOnly => Box::new(FirstMoverOnly),
            SchedulerKind::EtFairRoundRobin { max_lag } => {
                Box::new(EtFairness::new(Box::new(RoundRobinSingle::new()), *max_lag))
            }
        }
    }

    /// A short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Full => "fsync",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::Random { .. } => "random-subset",
            SchedulerKind::SleepBlocked { .. } => "sleep-blocked",
            SchedulerKind::FirstMoverOnly => "first-mover-only",
            SchedulerKind::EtFairRoundRobin { .. } => "et-fair-round-robin",
        }
    }
}

/// A complete, runnable experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Landmark node, if the ring has one.
    pub landmark: Option<usize>,
    /// The algorithm every agent runs.
    pub algorithm: Algorithm,
    /// Starting node of each agent.
    pub starts: Vec<usize>,
    /// Orientation of each agent (must have the same length as `starts`).
    pub orientations: Vec<Handedness>,
    /// Synchrony and transport model.
    pub synchrony: SynchronyModel,
    /// Activation scheduler.
    pub scheduler: SchedulerKind,
    /// Edge adversary.
    pub adversary: AdversaryKind,
    /// Round budget.
    pub max_rounds: u64,
    /// Stop condition.
    pub stop: StopCondition,
    /// Whether to record a full trace.
    pub record_trace: bool,
}

impl Scenario {
    /// A fully-synchronous scenario on a static anonymous ring with agents
    /// spread evenly, used as the base case that individual experiments then
    /// customise.
    #[must_use]
    pub fn fsync(ring_size: usize, algorithm: Algorithm) -> Self {
        let agents = algorithm.required_agents();
        let starts: Vec<usize> = (0..agents).map(|i| (i * ring_size) / agents).collect();
        let landmark = algorithm.needs_landmark().then_some(0);
        Scenario {
            ring_size,
            landmark,
            algorithm,
            starts,
            orientations: vec![Handedness::LeftIsCcw; agents],
            synchrony: SynchronyModel::Fsync,
            scheduler: SchedulerKind::Full,
            adversary: AdversaryKind::Static,
            max_rounds: 64 * ring_size as u64 + 512,
            stop: StopCondition::AllTerminated,
            record_trace: false,
        }
    }

    /// A semi-synchronous scenario using the algorithm's own transport model,
    /// an adversarial (but model-respecting) scheduler and sticky random
    /// dynamics. Under ET the scheduler must satisfy the eventual-transport
    /// fairness condition, so blocked agents are re-activated every round;
    /// under PT the passive-transport rule takes care of sleepers and the
    /// scheduler may keep them asleep.
    #[must_use]
    pub fn ssync(ring_size: usize, algorithm: Algorithm, seed: u64) -> Self {
        let mut scenario = Self::fsync(ring_size, algorithm);
        scenario.synchrony = algorithm.synchrony();
        scenario.scheduler = match algorithm.synchrony() {
            SynchronyModel::Ssync(dynring_model::TransportModel::EventualTransport) => {
                // max_lag = 0: every port holder is re-activated each round,
                // which satisfies the ET condition against any adversary.
                SchedulerKind::EtFairRoundRobin { max_lag: 0 }
            }
            _ => SchedulerKind::SleepBlocked { hold: 3 },
        };
        scenario.adversary = AdversaryKind::Sticky {
            min_hold: 1,
            max_hold: ring_size as u64,
            present: 0.3,
            seed,
        };
        scenario.max_rounds = 200 * (ring_size as u64) * (ring_size as u64) + 1000;
        scenario.stop = StopCondition::ExploredAndPartialTermination;
        scenario
    }

    /// Replaces the starting nodes.
    #[must_use]
    pub fn with_starts(mut self, starts: Vec<usize>) -> Self {
        self.starts = starts;
        self
    }

    /// Replaces the orientations.
    #[must_use]
    pub fn with_orientations(mut self, orientations: Vec<Handedness>) -> Self {
        self.orientations = orientations;
        self
    }

    /// Replaces the adversary.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversaryKind) -> Self {
        self.adversary = adversary;
        self
    }

    /// Replaces the scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the stop condition.
    #[must_use]
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Replaces the round budget.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// The ring topology this scenario runs on (with its landmark, if any).
    #[must_use]
    pub fn ring(&self) -> RingTopology {
        match self.landmark {
            Some(l) => RingTopology::with_landmark(self.ring_size, NodeId::new(l))
                .expect("valid landmark ring"),
            None => RingTopology::new(self.ring_size).expect("valid ring"),
        }
    }

    /// Compiles this scenario into the engine's reusable [`RunSpec`] (ring,
    /// synchrony, agent templates, trace flag) — the description a
    /// [`ScenarioRunner`] recycles one `Simulation` through. The policies are
    /// not part of the spec; they are instantiated from
    /// [`Scenario::scheduler`] / [`Scenario::adversary`] when installed.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is malformed (e.g. a start node outside the
    /// ring), like [`Scenario::build`].
    #[must_use]
    pub fn compile(&self) -> RunSpec {
        let agents = self
            .starts
            .iter()
            .enumerate()
            .map(|(i, start)| {
                let handedness =
                    self.orientations.get(i).copied().unwrap_or(Handedness::LeftIsCcw);
                AgentSpec::new(NodeId::new(*start), handedness, self.algorithm.instantiate())
            })
            .collect();
        RunSpec::new(self.ring(), self.synchrony, agents, self.record_trace)
            .expect("scenario must describe a valid simulation")
    }

    /// Builds the simulation for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is malformed (e.g. a start node outside the
    /// ring); scenario construction is test/benchmark code where a loud
    /// failure is preferable to error plumbing.
    #[must_use]
    pub fn build(&self) -> Simulation {
        let ring = self.ring();
        let mut builder = Simulation::builder(ring)
            .synchrony(self.synchrony)
            .activation(self.scheduler.instantiate())
            .edges(self.adversary.instantiate())
            .record_trace(self.record_trace);
        for (i, start) in self.starts.iter().enumerate() {
            let handedness =
                self.orientations.get(i).copied().unwrap_or(Handedness::LeftIsCcw);
            builder =
                builder.agent(NodeId::new(*start), handedness, self.algorithm.instantiate());
        }
        builder.build().expect("scenario must describe a valid simulation")
    }

    /// Builds and runs the scenario, returning the run report.
    #[must_use]
    pub fn run(&self) -> RunReport {
        self.build().run(self.max_rounds, self.stop)
    }

    /// A short description used in report rows.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} n={} {} {}",
            self.algorithm,
            self.ring_size,
            self.scheduler.label(),
            self.adversary.label()
        )
    }
}

/// A stateful scenario executor that **recycles one [`Simulation`]** across
/// runs instead of rebuilding it per cell.
///
/// Every sweep cell used to pay a full `Scenario::run()` → `build()`:
/// a fresh ring, agent SoA, scratch, probe pool and boxed policies per run.
/// A `ScenarioRunner` holds one `Simulation` (plus the [`RunSpec`] and the
/// [`Scenario`] it was compiled from) and re-initialises it in place:
///
/// * **same scenario again** (the benchmark regime): pure
///   [`Simulation::recycle`] — zero steady-state allocations;
/// * **different scenario** (consecutive battery cells): the spec is
///   recompiled and fresh policies installed, but the simulation's buffers —
///   the big per-`n` and per-agent allocations — are all reused;
/// * **first scenario**: a fresh build, exactly like `Scenario::run()`.
///
/// The output is byte-identical to the fresh-build path for every scenario
/// (`tests/recycle_equivalence.rs`); [`BatchRunner`](crate::batch::BatchRunner)
/// gives each worker thread its own runner, so whole batteries ride this fast
/// path without sharing state across threads.
#[derive(Debug, Default)]
pub struct ScenarioRunner {
    sim: Option<Simulation>,
    spec: Option<RunSpec>,
    compiled_from: Option<Scenario>,
}

impl ScenarioRunner {
    /// An empty runner (the first run builds its simulation).
    #[must_use]
    pub fn new() -> Self {
        ScenarioRunner::default()
    }

    /// Runs the scenario on the recycled simulation, returning the report.
    #[must_use]
    pub fn run(&mut self, scenario: &Scenario) -> RunReport {
        let (max_rounds, stop) = (scenario.max_rounds, scenario.stop);
        self.prepare(scenario).run(max_rounds, stop)
    }

    /// [`ScenarioRunner::run`], but the summary is written into an existing
    /// report in place ([`Simulation::run_into`]) — the fully
    /// allocation-free rerun path used by the `sweep_throughput` benchmark.
    pub fn run_into(&mut self, scenario: &Scenario, report: &mut RunReport) {
        let (max_rounds, stop) = (scenario.max_rounds, scenario.stop);
        self.prepare(scenario).run_into(max_rounds, stop, report);
    }

    /// The trace of the last run, if the scenario recorded one.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.sim.as_ref().and_then(Simulation::trace)
    }

    /// The cruise windows the last run played ([`Simulation::cruise_stats`]).
    #[must_use]
    pub fn cruise_stats(&self) -> CruiseStats {
        self.sim.as_ref().map(Simulation::cruise_stats).unwrap_or_default()
    }

    /// Readies the held simulation for a run of `scenario` at round zero.
    fn prepare(&mut self, scenario: &Scenario) -> &mut Simulation {
        if self.compiled_from.as_ref() == Some(scenario) {
            // Identical cell: recycle through the cached spec; the installed
            // policies are restored by their reset hooks. No allocation.
            let sim = self.sim.as_mut().expect("compiled_from implies a live simulation");
            sim.recycle(self.spec.as_ref().expect("compiled_from implies a cached spec"));
            return sim;
        }
        let spec = scenario.compile();
        let activation = scenario.scheduler.instantiate();
        let edges = scenario.adversary.instantiate();
        match self.sim.as_mut() {
            Some(sim) => {
                sim.replace_policies(activation, edges);
                sim.recycle(&spec);
            }
            None => self.sim = Some(spec.instantiate(activation, edges)),
        }
        self.spec = Some(spec);
        self.compiled_from = Some(scenario.clone());
        self.sim.as_mut().expect("simulation was just installed")
    }
}

/// A [`ScenarioRunner`] plus a report buffer, running a slice of cells one
/// after another.
///
/// Its only caller is the engine probe of the end-to-end benchmark
/// (`e2ebench`), which still times these names; they go together with that
/// probe in the next change to the benchmark. Every other battery runs
/// through [`BatchRunner::run_reports`](crate::batch::BatchRunner::run_reports).
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ScenarioBatchRunner {
    runner: ScenarioRunner,
    reports: Vec<RunReport>,
}

impl ScenarioBatchRunner {
    /// An empty runner.
    #[must_use]
    pub fn new() -> Self {
        ScenarioBatchRunner::default()
    }

    /// Runs every cell on the recycled runner and returns the reports, one
    /// per cell in input order, as a slice valid until the next call.
    pub fn run_group_reports(&mut self, group: &[Scenario]) -> &[RunReport] {
        if self.reports.len() < group.len() {
            self.reports.resize_with(group.len(), RunReport::default);
        }
        for (scenario, report) in group.iter().zip(&mut self.reports) {
            self.runner.run_into(scenario, report);
        }
        &self.reports[..group.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssync_groups_route_through_the_solo_recycled_path() {
        // Every cell runs on the recycled solo runner, so a group of either
        // synchrony family reports exactly what per-cell fresh runs report.
        let ssync: Vec<Scenario> = (0..4)
            .map(|i| Scenario::ssync(6, Algorithm::PtBoundChirality { upper_bound: 6 }, i))
            .collect();
        let fsync: Vec<Scenario> = (0..4)
            .map(|i| {
                Scenario::fsync(6, Algorithm::KnownBound { upper_bound: 6 }).with_starts(vec![0, i])
            })
            .collect();
        let mut runner = ScenarioBatchRunner::new();
        for group in [&ssync, &fsync, &ssync] {
            let fresh: Vec<RunReport> = group.iter().map(Scenario::run).collect();
            assert_eq!(runner.run_group_reports(group), fresh.as_slice());
        }
    }

    #[test]
    fn fsync_scenario_defaults_are_consistent() {
        let s = Scenario::fsync(9, Algorithm::KnownBound { upper_bound: 9 });
        assert_eq!(s.starts.len(), 2);
        assert_eq!(s.orientations.len(), 2);
        assert_eq!(s.landmark, None);
        let s = Scenario::fsync(9, Algorithm::LandmarkChirality);
        assert_eq!(s.landmark, Some(0));
    }

    #[test]
    fn known_bound_scenario_runs_to_termination() {
        let report = Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 }).run();
        assert!(report.explored());
        assert!(report.all_terminated);
    }

    #[test]
    fn ssync_scenario_runs_pt_algorithm() {
        let report = Scenario::ssync(6, Algorithm::PtBoundChirality { upper_bound: 6 }, 11).run();
        assert!(report.explored());
        assert!(report.partially_terminated());
    }

    #[test]
    fn builders_override_fields() {
        let s = Scenario::fsync(8, Algorithm::Unconscious)
            .with_starts(vec![1, 5])
            .with_orientations(vec![Handedness::LeftIsCcw, Handedness::LeftIsCw])
            .with_adversary(AdversaryKind::PreventMeeting)
            .with_scheduler(SchedulerKind::Full)
            .with_stop(StopCondition::Explored)
            .with_max_rounds(500)
            .with_trace();
        assert_eq!(s.starts, vec![1, 5]);
        assert_eq!(s.adversary, AdversaryKind::PreventMeeting);
        assert!(s.record_trace);
        let report = s.run();
        assert!(report.explored());
    }

    #[test]
    fn labels_mention_the_algorithm_and_adversary() {
        let s = Scenario::fsync(8, Algorithm::LandmarkChirality)
            .with_adversary(AdversaryKind::BlockForever { edge: 2 });
        let label = s.label();
        assert!(label.contains("LandmarkWithChirality"));
        assert!(label.contains("block-e2-forever"));
    }

    #[test]
    fn adversary_and_scheduler_labels_are_unique_enough() {
        let kinds = [
            AdversaryKind::Static,
            AdversaryKind::Random { p: 0.5, seed: 1 },
            AdversaryKind::Sticky { min_hold: 1, max_hold: 4, present: 0.2, seed: 1 },
            AdversaryKind::BlockForever { edge: 0 },
            AdversaryKind::BlockAgent { agent: 0 },
            AdversaryKind::PreventMeeting,
            AdversaryKind::BlockFirstMover,
            AdversaryKind::Confine { lo: 0, hi: 3 },
            AdversaryKind::Alternating { first: 0, second: 1 },
        ];
        let labels: std::collections::HashSet<String> =
            kinds.iter().map(AdversaryKind::label).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
