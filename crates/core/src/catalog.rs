//! A registry of every algorithm in the paper.
//!
//! The analysis and benchmark crates enumerate this catalogue to build the
//! feasibility map (Tables 1–4); examples use it to construct agents by name.

use crate::fsync::{KnownBound, LandmarkChirality, LandmarkNoChirality, Unconscious};
use crate::single::LoneWalker;
use crate::ssync::{EtUnconscious, PtBoundChirality, PtLandmarkChirality, PtNoChirality};
use dynring_model::{Protocol, ScenarioAssumptions, SynchronyModel, TerminationKind, TransportModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The synchrony family an algorithm is designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmFamily {
    /// Fully synchronous algorithms (Section 3).
    Fsync,
    /// Semi-synchronous algorithms for the PT model (Section 4.2).
    SsyncPt,
    /// Semi-synchronous algorithms for the ET model (Section 4.3).
    SsyncEt,
    /// Single-agent strawman (Observation 1).
    SingleAgent,
}

/// Every algorithm of the paper, with enough parameters to instantiate it.
///
/// ```
/// use dynring_core::Algorithm;
///
/// let alg = Algorithm::KnownBound { upper_bound: 16 };
/// let agent = alg.instantiate();
/// assert_eq!(agent.name(), "KnownNNoChirality");
/// assert_eq!(alg.required_agents(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Figure 1 — FSYNC, two agents, known upper bound, no chirality.
    KnownBound {
        /// The known upper bound `N ≥ n`.
        upper_bound: usize,
    },
    /// Figure 3 — FSYNC, two agents, no knowledge, unconscious.
    Unconscious,
    /// Figure 4 — FSYNC, two agents, landmark + chirality.
    LandmarkChirality,
    /// Figure 13 — FSYNC, two agents, landmark, no chirality.
    LandmarkNoChirality,
    /// Figure 8 — FSYNC, two agents, landmark, no chirality, starting at the
    /// landmark.
    StartFromLandmarkNoChirality,
    /// Figure 14 — SSYNC/PT, two agents, chirality, known upper bound.
    PtBoundChirality {
        /// The known upper bound `N ≥ n`.
        upper_bound: usize,
    },
    /// Figure 17 — SSYNC/PT, two agents, chirality, landmark.
    PtLandmarkChirality,
    /// Figure 18 — SSYNC/PT, three agents, no chirality, known upper bound.
    PtBoundNoChirality {
        /// The known upper bound `N ≥ n`.
        upper_bound: usize,
    },
    /// Theorem 17 — SSYNC/PT, three agents, no chirality, landmark.
    PtLandmarkNoChirality,
    /// Theorem 20 — SSYNC/ET, three agents, no chirality, exact size.
    EtBoundNoChirality {
        /// The exactly known ring size `n`.
        ring_size: usize,
    },
    /// Theorem 18 — SSYNC/ET, two agents, chirality, unconscious.
    EtUnconscious,
    /// Observation 1 — a single agent (cannot succeed).
    LoneWalker {
        /// Blocked rounds after which the walker reverses (0 = never).
        patience: u64,
    },
}

impl Algorithm {
    /// Instantiates a fresh agent running this algorithm.
    ///
    /// The twelve algorithm entries map onto nine concrete protocol types:
    /// `StartFromLandmarkNoChirality` is a parameterisation of
    /// [`LandmarkNoChirality`], and the three `Pt…NoChirality` /
    /// `EtBoundNoChirality` entries are parameterisations of
    /// [`PtNoChirality`].
    ///
    /// The result is a `Box<dyn Protocol>`, the engine's one agent-program
    /// representation, so catalogue agents and user-defined protocols share
    /// a team on equal terms:
    ///
    /// ```
    /// use dynring_core::Algorithm;
    /// use dynring_engine::adversary::RandomEdge;
    /// use dynring_engine::scheduler::FullActivation;
    /// use dynring_engine::sim::{Simulation, StopCondition};
    /// use dynring_graph::{Handedness, NodeId, RingTopology};
    /// use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
    ///
    /// // A user-defined protocol the catalogue has never heard of: it walks
    /// // right forever (it cannot explore alone, but it can tag along).
    /// #[derive(Debug, Clone)]
    /// struct RightWalker;
    ///
    /// impl Protocol for RightWalker {
    ///     fn name(&self) -> &'static str { "right-walker" }
    ///     fn termination_kind(&self) -> TerminationKind { TerminationKind::Unconscious }
    ///     fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
    ///         Decision::Move(LocalDirection::Right)
    ///     }
    ///     fn has_terminated(&self) -> bool { false }
    ///     fn clone_box(&self) -> Box<dyn Protocol> { Box::new(self.clone()) }
    /// }
    ///
    /// // Two catalogue agents plus the custom protocol, all in one simulation.
    /// let alg = Algorithm::KnownBound { upper_bound: 8 };
    /// let ring = RingTopology::new(8)?;
    /// let mut sim = Simulation::builder(ring)
    ///     .agent(NodeId::new(0), Handedness::LeftIsCcw, alg.instantiate())
    ///     .agent(NodeId::new(4), Handedness::LeftIsCcw, alg.instantiate())
    ///     .agent(NodeId::new(2), Handedness::LeftIsCcw, Box::new(RightWalker))
    ///     .activation(Box::new(FullActivation))
    ///     .edges(Box::new(RandomEdge::new(0.5, 7)))
    ///     .build()?;
    /// let report = sim.run(200, StopCondition::Explored);
    /// assert!(report.explored());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn Protocol> {
        match *self {
            Algorithm::KnownBound { upper_bound } => Box::new(KnownBound::new(upper_bound)),
            Algorithm::Unconscious => Box::new(Unconscious::new()),
            Algorithm::LandmarkChirality => Box::new(LandmarkChirality::new()),
            Algorithm::LandmarkNoChirality => Box::new(LandmarkNoChirality::new()),
            Algorithm::StartFromLandmarkNoChirality => {
                Box::new(LandmarkNoChirality::starting_from_landmark())
            }
            Algorithm::PtBoundChirality { upper_bound } => {
                Box::new(PtBoundChirality::new(upper_bound))
            }
            Algorithm::PtLandmarkChirality => Box::new(PtLandmarkChirality::new()),
            Algorithm::PtBoundNoChirality { upper_bound } => {
                Box::new(PtNoChirality::with_upper_bound(upper_bound))
            }
            Algorithm::PtLandmarkNoChirality => Box::new(PtNoChirality::with_landmark()),
            Algorithm::EtBoundNoChirality { ring_size } => {
                Box::new(PtNoChirality::for_eventual_transport(ring_size))
            }
            Algorithm::EtUnconscious => Box::new(EtUnconscious::new()),
            Algorithm::LoneWalker { patience } => Box::new(LoneWalker::new(patience)),
        }
    }

    /// The synchrony family the algorithm belongs to.
    #[must_use]
    pub fn family(&self) -> AlgorithmFamily {
        match self {
            Algorithm::KnownBound { .. }
            | Algorithm::Unconscious
            | Algorithm::LandmarkChirality
            | Algorithm::LandmarkNoChirality
            | Algorithm::StartFromLandmarkNoChirality => AlgorithmFamily::Fsync,
            Algorithm::PtBoundChirality { .. }
            | Algorithm::PtLandmarkChirality
            | Algorithm::PtBoundNoChirality { .. }
            | Algorithm::PtLandmarkNoChirality => AlgorithmFamily::SsyncPt,
            Algorithm::EtBoundNoChirality { .. } | Algorithm::EtUnconscious => {
                AlgorithmFamily::SsyncEt
            }
            Algorithm::LoneWalker { .. } => AlgorithmFamily::SingleAgent,
        }
    }

    /// Number of agents the algorithm is designed for.
    #[must_use]
    pub fn required_agents(&self) -> usize {
        match self {
            Algorithm::LoneWalker { .. } => 1,
            Algorithm::PtBoundNoChirality { .. }
            | Algorithm::PtLandmarkNoChirality
            | Algorithm::EtBoundNoChirality { .. } => 3,
            _ => 2,
        }
    }

    /// Whether the algorithm needs a landmark node.
    #[must_use]
    pub fn needs_landmark(&self) -> bool {
        matches!(
            self,
            Algorithm::LandmarkChirality
                | Algorithm::LandmarkNoChirality
                | Algorithm::StartFromLandmarkNoChirality
                | Algorithm::PtLandmarkChirality
                | Algorithm::PtLandmarkNoChirality
        )
    }

    /// Whether the algorithm assumes common chirality.
    #[must_use]
    pub fn needs_chirality(&self) -> bool {
        matches!(
            self,
            Algorithm::LandmarkChirality
                | Algorithm::PtBoundChirality { .. }
                | Algorithm::PtLandmarkChirality
                | Algorithm::EtUnconscious
        )
    }

    /// The termination discipline the algorithm promises.
    #[must_use]
    pub fn termination_kind(&self) -> TerminationKind {
        self.instantiate().termination_kind()
    }

    /// The synchrony / transport model under which the algorithm's guarantee
    /// holds.
    #[must_use]
    pub fn synchrony(&self) -> SynchronyModel {
        match self.family() {
            AlgorithmFamily::Fsync | AlgorithmFamily::SingleAgent => SynchronyModel::Fsync,
            AlgorithmFamily::SsyncPt => SynchronyModel::Ssync(TransportModel::PassiveTransport),
            AlgorithmFamily::SsyncEt => SynchronyModel::Ssync(TransportModel::EventualTransport),
        }
    }

    /// The scenario assumptions under which the paper proves the algorithm
    /// correct, used to label feasibility-map rows.
    #[must_use]
    pub fn assumptions(&self) -> ScenarioAssumptions {
        let knows_exact = matches!(self, Algorithm::EtBoundNoChirality { .. });
        let knows_bound = matches!(
            self,
            Algorithm::KnownBound { .. }
                | Algorithm::PtBoundChirality { .. }
                | Algorithm::PtBoundNoChirality { .. }
        );
        ScenarioAssumptions {
            synchrony: self.synchrony(),
            agents: self.required_agents(),
            chirality: self.needs_chirality(),
            landmark: self.needs_landmark(),
            knows_exact_size: knows_exact,
            knows_upper_bound: knows_bound,
            anonymous_agents: true,
        }
    }

    /// Every algorithm of the paper, instantiated with the given ring size
    /// (used by sweeps that iterate over the full catalogue).
    #[must_use]
    pub fn full_catalog(ring_size: usize) -> Vec<Algorithm> {
        vec![
            Algorithm::KnownBound { upper_bound: ring_size },
            Algorithm::Unconscious,
            Algorithm::LandmarkChirality,
            Algorithm::LandmarkNoChirality,
            Algorithm::StartFromLandmarkNoChirality,
            Algorithm::PtBoundChirality { upper_bound: ring_size },
            Algorithm::PtLandmarkChirality,
            Algorithm::PtBoundNoChirality { upper_bound: ring_size },
            Algorithm::PtLandmarkNoChirality,
            Algorithm::EtBoundNoChirality { ring_size },
            Algorithm::EtUnconscious,
            Algorithm::LoneWalker { patience: 0 },
        ]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.instantiate().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_instantiates_every_algorithm() {
        for alg in Algorithm::full_catalog(8) {
            let agent = alg.instantiate();
            assert!(!agent.name().is_empty());
            assert!(!agent.has_terminated());
        }
    }

    #[test]
    fn agent_counts_match_the_paper() {
        assert_eq!(Algorithm::LoneWalker { patience: 0 }.required_agents(), 1);
        assert_eq!(Algorithm::KnownBound { upper_bound: 8 }.required_agents(), 2);
        assert_eq!(Algorithm::PtBoundNoChirality { upper_bound: 8 }.required_agents(), 3);
        assert_eq!(Algorithm::EtBoundNoChirality { ring_size: 8 }.required_agents(), 3);
    }

    #[test]
    fn landmark_and_chirality_requirements() {
        assert!(Algorithm::LandmarkChirality.needs_landmark());
        assert!(Algorithm::LandmarkChirality.needs_chirality());
        assert!(Algorithm::LandmarkNoChirality.needs_landmark());
        assert!(!Algorithm::LandmarkNoChirality.needs_chirality());
        assert!(!Algorithm::KnownBound { upper_bound: 5 }.needs_landmark());
        assert!(Algorithm::PtLandmarkChirality.needs_chirality());
        assert!(!Algorithm::PtBoundNoChirality { upper_bound: 5 }.needs_chirality());
    }

    #[test]
    fn synchrony_families() {
        assert_eq!(Algorithm::Unconscious.family(), AlgorithmFamily::Fsync);
        assert_eq!(
            Algorithm::PtLandmarkChirality.synchrony(),
            SynchronyModel::Ssync(TransportModel::PassiveTransport)
        );
        assert_eq!(
            Algorithm::EtUnconscious.synchrony(),
            SynchronyModel::Ssync(TransportModel::EventualTransport)
        );
        assert_eq!(Algorithm::KnownBound { upper_bound: 4 }.synchrony(), SynchronyModel::Fsync);
    }

    #[test]
    fn termination_kinds() {
        assert_eq!(
            Algorithm::KnownBound { upper_bound: 4 }.termination_kind(),
            TerminationKind::Explicit
        );
        assert_eq!(Algorithm::Unconscious.termination_kind(), TerminationKind::Unconscious);
        assert_eq!(
            Algorithm::PtBoundChirality { upper_bound: 4 }.termination_kind(),
            TerminationKind::Partial
        );
    }

    #[test]
    fn display_uses_protocol_names() {
        assert_eq!(Algorithm::LandmarkChirality.to_string(), "LandmarkWithChirality");
        assert_eq!(
            Algorithm::StartFromLandmarkNoChirality.to_string(),
            "StartFromLandmarkNoChirality"
        );
    }

    #[test]
    fn assumptions_are_consistent() {
        let a = Algorithm::PtBoundNoChirality { upper_bound: 10 }.assumptions();
        assert_eq!(a.agents, 3);
        assert!(a.knows_upper_bound);
        assert!(!a.knows_exact_size);
        assert!(!a.chirality);
        let b = Algorithm::EtBoundNoChirality { ring_size: 10 }.assumptions();
        assert!(b.knows_exact_size);
    }
}
