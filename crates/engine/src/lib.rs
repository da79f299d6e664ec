//! Round engine for live exploration of dynamic rings.
//!
//! This crate executes the Look–Compute–Move model of Section 2 of
//! *Live Exploration of Dynamic Rings* against pluggable adversaries:
//!
//! * [`world`] — the "god view": where each agent stands, which ports are
//!   held, which nodes have been visited, and each agent's program — a
//!   `Box<dyn Protocol>` for catalogue and user-defined protocols alike
//!   (see `docs/ARCHITECTURE.md`, "Agent programs");
//! * [`scheduler`] — activation policies: the FSYNC scheduler, fair and
//!   adversarial SSYNC schedulers, and the ET-fairness wrapper;
//! * [`adversary`] — edge-removal policies: benign, random, scripted
//!   (fixed [`EdgeSchedule`](dynring_graph::EdgeSchedule)s such as the
//!   worst-case schedule of Figure 2) and the proof adversaries
//!   (Observations 1–2, Theorems 9, 10, 13, 15, 19);
//! * [`sim`] — the round loop itself, with port mutual exclusion, passive
//!   transport, metrics and invariant checking;
//! * [`checkpoint`] — branchable run state: checkpoint/restore of a live
//!   simulation plus canonicalised configuration keys, the engine half of
//!   the analysis-side model checker;
//! * [`trace`] — per-round records of everything that happened, for replay,
//!   rendering and assertions in tests.
//!
//! # Quick example
//!
//! ```
//! use dynring_core::Algorithm;
//! use dynring_engine::adversary::NoRemoval;
//! use dynring_engine::scheduler::FullActivation;
//! use dynring_engine::sim::{Simulation, StopCondition};
//! use dynring_graph::{Handedness, NodeId, RingTopology};
//! use dynring_model::SynchronyModel;
//!
//! let alg = Algorithm::KnownBound { upper_bound: 8 };
//! let ring = RingTopology::new(8).unwrap();
//! let mut sim = Simulation::builder(ring)
//!     .synchrony(SynchronyModel::Fsync)
//!     .agent(NodeId::new(0), Handedness::LeftIsCcw, alg.instantiate())
//!     .agent(NodeId::new(3), Handedness::LeftIsCcw, alg.instantiate())
//!     .activation(Box::new(FullActivation))
//!     .edges(Box::new(NoRemoval))
//!     .build()
//!     .unwrap();
//! let report = sim.run(100, StopCondition::AllTerminated);
//! assert!(report.explored());
//! assert!(report.all_terminated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checkpoint;
pub mod error;
pub mod render;
pub mod scheduler;
pub mod sim;
pub mod trace;
pub mod world;

pub use adversary::EdgePolicy;
pub use checkpoint::{KeyScratch, SimCheckpoint};
pub use error::EngineError;
pub use scheduler::ActivationPolicy;
pub use sim::{
    AgentSpec, CruiseStats, RunReport, RunSpec, Simulation, SimulationBuilder, StopCondition,
};
pub use trace::{RoundRecord, Trace};
pub use world::{AgentView, PredictedAction, RoundView};
