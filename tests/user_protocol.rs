//! User-defined protocols on every state-copy path.
//!
//! Every agent program is a `Box<dyn Protocol>`. Catalogue protocols copy
//! their state in place (`as_any` + `clone_from_box`) and supply a packed
//! state key; a user-defined protocol that overrides neither — the shape of
//! the `RightWalker` in the `Algorithm::instantiate` doctest — takes the
//! `clone_box` fallback on every copy and the `Debug` fallback of the
//! canonical key. These tests drive such a protocol, next to a catalogue
//! agent, through checkpoint/restore replay, a recycled trace-on rerun, a
//! predicting scheduler's probe pool and the canonical key, and require each
//! to reproduce a fresh run.

use dynring_core::Algorithm;
use dynring_engine::adversary::{NoRemoval, PreventMeeting};
use dynring_engine::scheduler::{FirstMoverOnly, RoundRobinSingle};
use dynring_engine::sim::{AgentSpec, RunReport, RunSpec, Simulation, StopCondition, StopReason};
use dynring_engine::{ActivationPolicy, EdgePolicy};
use dynring_graph::{EdgeId, Handedness, NodeId, RingTopology};
use dynring_model::{
    clone_state_from, Decision, LocalDirection, Protocol, Snapshot, SynchronyModel,
    TerminationKind, TransportModel,
};
use std::fmt;

const N: usize = 9;
const PT: SynchronyModel = SynchronyModel::Ssync(TransportModel::PassiveTransport);

/// A stateful walker that overrides neither `as_any` nor `write_state_key`:
/// it walks right for `period` activations, then left for `period`, and so
/// on. Any stale or lost state copy changes where it goes.
#[derive(Debug, Clone)]
struct Zigzag {
    steps: u64,
    period: u64,
}

impl Protocol for Zigzag {
    fn name(&self) -> &'static str {
        "zigzag"
    }
    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Unconscious
    }
    fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
        self.steps += 1;
        if (self.steps / self.period).is_multiple_of(2) {
            Decision::Move(LocalDirection::Right)
        } else {
            Decision::Move(LocalDirection::Left)
        }
    }
    fn has_terminated(&self) -> bool {
        false
    }
    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

/// The same walker with in-place state copies, rendering the same `Debug`
/// form, so traces of the two are comparable byte for byte.
#[derive(Clone)]
struct InPlaceZigzag(Zigzag);

impl fmt::Debug for InPlaceZigzag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Protocol for InPlaceZigzag {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn termination_kind(&self) -> TerminationKind {
        self.0.termination_kind()
    }
    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.0.decide(snapshot)
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
        clone_state_from(self, src)
    }
}

fn zigzag() -> Box<dyn Protocol> {
    Box::new(Zigzag { steps: 0, period: 3 })
}

fn in_place_zigzag() -> Box<dyn Protocol> {
    Box::new(InPlaceZigzag(Zigzag { steps: 0, period: 3 }))
}

/// A catalogue agent plus two user-defined walkers on an SSYNC/PT ring.
fn spec(user: fn() -> Box<dyn Protocol>, record_trace: bool) -> RunSpec {
    let agents = vec![
        AgentSpec::new(
            NodeId::new(0),
            Handedness::LeftIsCcw,
            Algorithm::PtBoundChirality { upper_bound: N }.instantiate(),
        ),
        AgentSpec::new(NodeId::new(3), Handedness::LeftIsCw, user()),
        AgentSpec::new(NodeId::new(6), Handedness::LeftIsCcw, user()),
    ];
    RunSpec::new(RingTopology::new(N).unwrap(), PT, agents, record_trace).unwrap()
}

/// The missing edge of round `round` on the main schedule.
fn main_edge(round: u64) -> Option<EdgeId> {
    (!round.is_multiple_of(4)).then(|| EdgeId::new((round as usize * 5) % N))
}

/// FNV-1a over the debug rendering of the report and the full trace.
fn digest(report: &RunReport, sim: &Simulation) -> u64 {
    format!("{report:?}|{:?}", sim.trace()).bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn canonical_key(sim: &Simulation) -> Vec<u8> {
    let mut key = Vec::new();
    sim.checkpoint().canonical_key(sim.ring(), &mut key);
    key
}

#[test]
fn checkpoint_restore_replays_a_user_protocol_and_keys_it_by_debug() {
    let rounds = 40;
    let spec = spec(zigzag, false);
    let policies = || -> (Box<dyn ActivationPolicy>, Box<dyn EdgePolicy>) {
        (Box::new(RoundRobinSingle::new()), Box::new(NoRemoval))
    };

    let (activation, edges) = policies();
    let mut fresh = spec.instantiate(activation, edges);
    for round in 1..=rounds {
        fresh.step_with_edge(main_edge(round));
    }

    let (activation, edges) = policies();
    let mut branched = spec.instantiate(activation, edges);
    for round in 1..=15 {
        branched.step_with_edge(main_edge(round));
    }
    let cp = branched.checkpoint();
    // A divergent branch mutates every program before the rewind.
    for round in 16..=30 {
        branched.step_with_edge(Some(EdgeId::new(round as usize % N)));
    }
    branched.restore(&cp);
    for round in 16..=rounds {
        branched.step_with_edge(main_edge(round));
    }

    let budget = StopReason::BudgetExhausted;
    assert_eq!(branched.report(budget), fresh.report(budget));
    let key = canonical_key(&fresh);
    assert_eq!(canonical_key(&branched), key);
    // The user protocol has no packed encoding: its `Debug` form is in the key.
    let needle = b"Zigzag { steps: ";
    assert!(key.windows(needle.len()).any(|w| w == needle), "no Debug fallback in the key");
    // The key tells program states apart: one more round changes it.
    branched.step_with_edge(main_edge(rounds + 1));
    assert_ne!(canonical_key(&branched), key);
}

#[test]
fn recycled_trace_on_reruns_of_a_user_protocol_match_a_fresh_run() {
    let spec = spec(zigzag, true);
    let run = |sim: &mut Simulation| {
        let report = sim.run(300, StopCondition::RoundBudget);
        digest(&report, sim)
    };
    let policies = || -> (Box<dyn ActivationPolicy>, Box<dyn EdgePolicy>) {
        (Box::new(RoundRobinSingle::new()), Box::new(PreventMeeting::new()))
    };
    let (activation, edges) = policies();
    let mut sim = spec.instantiate(activation, edges);
    let fresh = run(&mut sim);
    sim.recycle(&spec);
    assert_eq!(run(&mut sim), fresh, "recycled rerun diverged");
    // Recycling from a team of other program types swaps every slot's type.
    let other = self::spec(in_place_zigzag, true);
    let (activation, edges) = policies();
    let mut sim = other.instantiate(activation, edges);
    let _ = run(&mut sim);
    sim.recycle(&spec);
    assert_eq!(run(&mut sim), fresh, "rerun recycled across program types diverged");
}

#[test]
fn a_predicting_scheduler_probes_a_user_protocol_like_an_in_place_one() {
    // `FirstMoverOnly` dry-runs every live agent through the probe pool each
    // round and fuses the active agents' probes back in: with `Zigzag` every
    // refresh is a fresh `clone_box`, with `InPlaceZigzag` an in-place copy.
    let run = |user: fn() -> Box<dyn Protocol>| {
        let spec = spec(user, true);
        let mut sim = spec.instantiate(Box::new(FirstMoverOnly), Box::new(PreventMeeting::new()));
        let first = sim.run(300, StopCondition::RoundBudget);
        let first = digest(&first, &sim);
        sim.recycle(&spec);
        let again = sim.run(300, StopCondition::RoundBudget);
        assert_eq!(digest(&again, &sim), first, "recycled probe pool diverged");
        first
    };
    assert_eq!(run(zigzag), run(in_place_zigzag));
}
