//! Property tests for the protocol state-copy API backing the engine's
//! probe pool.
//!
//! The omniscient-adversary path refreshes a per-agent *probe* through
//! [`Protocol::clone_from_box`] (an in-place state copy) instead of boxing a
//! fresh [`Protocol::clone_box`] every round. That is only sound if the copy
//! is indistinguishable from a fresh clone for every protocol in the
//! catalogue, whatever states the live instance and the stale probe are in —
//! which is exactly what these properties pin down.

use dynring_core::Algorithm;
use dynring_model::{
    LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Protocol, Snapshot,
};
use proptest::prelude::*;

/// Deterministically derives a plausible Look snapshot from `bits` (a
/// SplitMix-style scramble keeps consecutive rounds diverse).
fn snapshot_from(bits: u64, round: u64) -> Snapshot {
    let mut z = bits ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let prior = match z % 5 {
        0 => PriorOutcome::Idle,
        1 => PriorOutcome::Moved,
        2 => PriorOutcome::BlockedOnPort,
        3 => PriorOutcome::PortAcquisitionFailed,
        _ => PriorOutcome::Transported,
    };
    let position = match (z >> 3) % 3 {
        0 => LocalPosition::InNode,
        1 => LocalPosition::OnPort(LocalDirection::Left),
        _ => LocalPosition::OnPort(LocalDirection::Right),
    };
    Snapshot {
        position,
        is_landmark: (z >> 5).is_multiple_of(4),
        occupancy: NodeOccupancy {
            in_node: ((z >> 7) % 3) as usize,
            on_left_port: ((z >> 9) % 2) as usize,
            on_right_port: ((z >> 11) % 2) as usize,
        },
        prior,
        round_hint: if (z >> 13).is_multiple_of(2) { Some(round) } else { None },
    }
}

/// Drives `protocol` through `rounds` scrambled snapshots (skipping once it
/// terminates, as the engine would).
fn drive(protocol: &mut dyn Protocol, seed: u64, rounds: u64) {
    for round in 1..=rounds {
        if protocol.has_terminated() {
            break;
        }
        let _ = protocol.decide(&snapshot_from(seed, round));
    }
}

/// The full catalogue instantiated for a small ring.
fn catalog() -> Vec<Box<dyn Protocol>> {
    Algorithm::full_catalog(8).iter().map(Algorithm::instantiate).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every catalogue protocol: copying a live instance's state into a
    /// stale probe (driven through an unrelated history) leaves the probe
    /// indistinguishable from a fresh `clone_box` — same labels, same debug
    /// state, and identical behaviour on every subsequent activation.
    #[test]
    fn clone_from_box_matches_a_fresh_clone_box(
        live_seed in 0u64..1 << 48,
        probe_seed in 0u64..1 << 48,
        live_rounds in 0u64..60,
        probe_rounds in 0u64..60,
        future_seed in 0u64..1 << 48,
    ) {
        for mut live in catalog() {
            drive(live.as_mut(), live_seed, live_rounds);
            // A stale probe of the same concrete type, in a different state.
            let mut probe = live.clone_box();
            drive(probe.as_mut(), probe_seed, probe_rounds);

            prop_assert!(
                probe.clone_from_box(live.as_ref()),
                "{}: same-type state copy must succeed",
                live.name()
            );
            let mut fresh = live.clone_box();

            prop_assert_eq!(probe.state_label(), fresh.state_label());
            prop_assert_eq!(format!("{probe:?}"), format!("{fresh:?}"));
            prop_assert_eq!(probe.has_terminated(), fresh.has_terminated());

            // The copy and the fresh clone stay in lock-step forever after.
            for round in 1..=40u64 {
                if fresh.has_terminated() {
                    break;
                }
                let snapshot = snapshot_from(future_seed, round);
                prop_assert_eq!(
                    probe.decide(&snapshot),
                    fresh.decide(&snapshot),
                    "{} diverged at round {round}",
                    probe.name()
                );
                prop_assert_eq!(probe.state_label(), fresh.state_label());
                prop_assert_eq!(probe.has_terminated(), fresh.has_terminated());
            }
        }
    }

    /// Copying across different concrete protocol types is refused and
    /// leaves the destination untouched (the pool then falls back to
    /// `clone_box`).
    #[test]
    fn clone_from_box_refuses_type_mismatches(
        seed in 0u64..1 << 48,
        rounds in 0u64..40,
    ) {
        let protocols = catalog();
        for (i, a) in protocols.iter().enumerate() {
            for (j, b) in protocols.iter().enumerate() {
                // `Algorithm::full_catalog` contains distinct parameterisations
                // of shared concrete types (e.g. the three `PtNoChirality`
                // flavours), and same-type copies rightly succeed — only
                // genuinely different types must be refused.
                let same_type = match (a.as_any(), b.as_any()) {
                    (Some(x), Some(y)) => x.type_id() == y.type_id(),
                    _ => false,
                };
                if i == j || same_type {
                    continue;
                }
                let mut dst = a.clone_box();
                drive(dst.as_mut(), seed, rounds);
                let before = format!("{dst:?}");
                prop_assert!(
                    !dst.clone_from_box(b.as_ref()),
                    "{} must refuse state from {}",
                    a.name(),
                    b.name()
                );
                prop_assert_eq!(before, format!("{dst:?}"));
            }
        }
    }
}

/// Every catalogue protocol opts into the state-copy API (`as_any` returns
/// `Some`), so the engine's probe pool never has to fall back to per-round
/// boxing for the paper's algorithms.
#[test]
fn every_catalog_protocol_supports_in_place_copies() {
    for protocol in catalog() {
        assert!(
            protocol.as_any().is_some(),
            "{} does not expose as_any; probe reuse would allocate",
            protocol.name()
        );
        let mut probe = protocol.clone_box();
        assert!(probe.clone_from_box(protocol.as_ref()), "{}", protocol.name());
    }
}
