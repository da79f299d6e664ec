//! Exhaustive model checking of the Table 1/3 impossibility rows on small
//! rings, plus the soundness properties the search rests on: every adversary
//! play is explored, every discovered witness schedule replays through a
//! scripted adversary to the same defeat, and the canonical configuration key
//! is invariant under the ring's rotation/reflection symmetries.

use dynring_analysis::model_check::{self, ModelCheck, Objective, Verdict};
use dynring_analysis::scenario::{AdversaryKind, Scenario};
use dynring_core::Algorithm;
use dynring_engine::StopCondition;
use dynring_graph::{EdgeId, Handedness};
use dynring_model::SynchronyModel;
use proptest::prelude::*;

/// The machine-checked acceptance matrix: every exhaustively checkable
/// Table 1/3 cell for `4 ≤ n ≤ max_check_n` (default 9, `DYNRING_MC_MAX_N`
/// raises it) resolves to the verdict the paper predicts, and every
/// impossibility witness replays through [`AdversaryKind::Scripted`] to the
/// same non-achievement outcome.
#[test]
fn every_table1_and_table3_row_is_proven_for_small_n() {
    for n in 4..=model_check::max_check_n(9) {
        for cell in model_check::infeasibility_cells(n) {
            let verdict = cell.check.run();
            if cell.expect_infeasible {
                let proof = verdict.infeasible().unwrap_or_else(|| {
                    panic!("{} ({}) must be infeasible", cell.id, cell.claim)
                });
                let replay = cell.check.replay(&proof.witness);
                assert!(
                    cell.check.objective.defeated_in(&replay),
                    "{}: the discovered witness (horizon {}) does not reproduce the \
                     {} defeat when replayed through a scripted adversary: {replay:?}",
                    cell.id,
                    proof.witness.horizon(),
                    cell.check.objective.label(),
                );
            } else {
                assert!(
                    verdict.is_feasible(),
                    "{} ({}) must be feasible, got {verdict:?}",
                    cell.id,
                    cell.claim
                );
            }
        }
    }
}

/// Satellite: the hand-scripted schedules of `lower_bounds` must be no
/// stronger than the exhaustively discovered worst case — the script is a
/// regression pin, the search is the source of truth. On every checkable size
/// the discovered worst case is exactly the paper's `3n − 6`.
#[test]
fn figure2_script_is_pinned_by_the_discovered_worst_case() {
    for n in 5..=7 {
        let (discovered, scripted) = model_check::cross_validate_figure2(n);
        assert_eq!(
            discovered,
            3 * n as u64 - 6,
            "n={n}: the exhaustive worst case should equal the paper's 3n-6"
        );
        assert_eq!(
            scripted,
            3 * n as u64 - 6,
            "n={n}: the Figure 2 script should force exactly 3n-6"
        );
    }
}

/// Tentpole: the level-synchronous parallel search is bit-equivalent to the
/// sequential reference over **every** packaged Table 1/3 cell plus the
/// Theorem 4 lower-bound cell — identical [`SearchStats`], verdicts, and
/// witness/worst schedules. The parallel merge replays chunk records in
/// sequential order, so nothing weaker than equality is acceptable.
#[test]
fn parallel_search_is_bit_identical_to_sequential() {
    for n in 4..=7 {
        let mut checks: Vec<(String, ModelCheck)> = model_check::infeasibility_cells(n)
            .into_iter()
            .map(|cell| (cell.id.clone(), cell.check))
            .collect();
        if n >= 5 {
            checks.push((format!("theorem4(n={n})"), model_check::theorem4_cell(n)));
        }
        for (id, check) in checks {
            let sequential = check.run_with_threads(1);
            let parallel = check.run_with_threads(4);
            assert_eq!(
                sequential.stats(),
                parallel.stats(),
                "{id}: parallel search stats diverged from sequential"
            );
            match (&sequential, &parallel) {
                (Verdict::Infeasible(s), Verdict::Infeasible(p)) => {
                    assert_eq!(s.witness, p.witness, "{id}: witness schedules diverged");
                    assert_eq!(s.defeat_round, p.defeat_round, "{id}: defeat rounds diverged");
                    assert_eq!(s.proof_depth, p.proof_depth, "{id}: proof depths diverged");
                }
                (Verdict::Feasible(s), Verdict::Feasible(p)) => {
                    assert_eq!(
                        s.worst_schedule, p.worst_schedule,
                        "{id}: worst schedules diverged"
                    );
                    assert_eq!(s.worst_round, p.worst_round, "{id}: worst rounds diverged");
                }
                (s, p) => panic!("{id}: verdicts diverged: sequential {s:?} vs parallel {p:?}"),
            }
        }
    }
}

/// Dedup on the legacy `Debug`-string key and on the packed binary key must
/// agree on every verdict and every witness — both encodings are injective
/// per candidate mapping and both minimise over an orbit-invariant map family
/// (all `2n` symmetries for the Debug key, the two maps carrying agent 0 to
/// node 0 for the packed key), so the searches prune identically. n = 5 and
/// 6 include the co-located three-agent `MC-T3-R4` team.
#[test]
fn debug_key_search_agrees_with_packed_key_search() {
    for n in 4..=6 {
        for cell in model_check::infeasibility_cells(n) {
            let packed = cell.check.run_with_threads(1);
            let mut debug_check = cell.check.clone();
            debug_check.use_debug_key = true;
            let debug = debug_check.run_with_threads(1);
            assert_eq!(
                packed.stats(),
                debug.stats(),
                "{}: packed-key search stats diverged from Debug-key search",
                cell.id
            );
            assert_eq!(
                packed.is_feasible(),
                debug.is_feasible(),
                "{}: verdicts diverged between key encodings",
                cell.id
            );
            if let (Some(p), Some(d)) = (packed.infeasible(), debug.infeasible()) {
                assert_eq!(p.witness, d.witness, "{}: witnesses diverged", cell.id);
            }
        }
    }
}

/// The search counters `(expanded, visited, peak_frontier, depth_reached)` of
/// every packaged cell for n = 4..=7, then of the Theorem 4 cell for n = 5..=7,
/// pinned exactly: a change to the canonical key or the frontier that alters
/// which states are deduplicated shows up here as a counter diff, even when
/// every verdict survives.
#[test]
fn search_stats_are_pinned_for_every_small_cell() {
    const PINNED: [(&str, u64, u64, usize, u64); 38] = [
        ("MC-T1-R1(n=4)", 46, 13, 5, 4),
        ("MC-T1-R2(n=4)", 16, 3, 1, 4),
        ("MC-T1-R3(n=4)", 22270, 7908, 2092, 10),
        ("MC-T3-R1a(n=4)", 400, 80, 1, 80),
        ("MC-T3-R1b(n=4)", 400, 80, 1, 80),
        ("MC-T3-R1c(n=4)", 400, 80, 1, 80),
        ("MC-T3-R2(n=4)", 1205, 248, 10, 32),
        ("MC-T3-R3(n=4)", 2335, 742, 176, 8),
        ("MC-T1-R1(n=5)", 79, 29, 17, 4),
        ("MC-T1-R2(n=5)", 67, 18, 8, 4),
        ("MC-T1-R3(n=5)", 49848, 14052, 3675, 11),
        ("MC-T3-R1a(n=5)", 600, 100, 1, 100),
        ("MC-T3-R1b(n=5)", 600, 100, 1, 100),
        ("MC-T3-R1c(n=5)", 600, 100, 1, 100),
        ("MC-T3-R2(n=5)", 4182, 715, 23, 40),
        ("MC-T3-R3(n=5)", 7356, 1925, 471, 9),
        ("MC-T3-R4(n=5)", 568, 191, 91, 7),
        ("MC-T1-R1(n=6)", 92, 38, 26, 4),
        ("MC-T1-R2(n=6)", 141, 45, 26, 4),
        ("MC-T1-R3(n=6)", 102158, 23619, 6035, 12),
        ("MC-T3-R1a(n=6)", 840, 120, 1, 120),
        ("MC-T3-R1b(n=6)", 840, 120, 1, 120),
        ("MC-T3-R1c(n=6)", 840, 120, 1, 120),
        ("MC-T3-R2(n=6)", 11291, 1649, 45, 48),
        ("MC-T3-R3(n=6)", 17626, 3967, 1010, 10),
        ("MC-T3-R4(n=6)", 7054, 1805, 798, 10),
        ("MC-T1-R1(n=7)", 105, 39, 27, 4),
        ("MC-T1-R2(n=7)", 161, 71, 52, 4),
        ("MC-T1-R3(n=7)", 191736, 33627, 9183, 13),
        ("MC-T3-R1a(n=7)", 1120, 140, 1, 140),
        ("MC-T3-R1b(n=7)", 1120, 140, 1, 140),
        ("MC-T3-R1c(n=7)", 1120, 140, 1, 140),
        ("MC-T3-R2(n=7)", 26640, 3395, 78, 56),
        ("MC-T3-R3(n=7)", 39344, 7828, 1988, 11),
        ("MC-T3-R4(n=7)", 71918, 14645, 5818, 13),
        ("theorem4(n=5)", 480, 79, 20, 9),
        ("theorem4(n=6)", 2170, 309, 66, 12),
        ("theorem4(n=7)", 7664, 957, 170, 15),
    ];
    let mut actual = Vec::new();
    for n in 4..=7 {
        for cell in model_check::infeasibility_cells(n) {
            actual.push((cell.id.clone(), *cell.check.run_with_threads(1).stats()));
        }
    }
    for n in 5..=7 {
        actual.push((format!("theorem4(n={n})"), *model_check::theorem4_cell(n).run_with_threads(1).stats()));
    }
    let actual: Vec<(&str, u64, u64, usize, u64)> = actual
        .iter()
        .map(|(id, s)| (id.as_str(), s.expanded, s.visited, s.peak_frontier, s.depth_reached))
        .collect();
    assert_eq!(actual, PINNED);
}

/// The scenario cell a catalogue algorithm is checked in: the algorithm's
/// natural synchrony/scheduler with deterministic parameters.
fn catalog_cell(n: usize, algorithm: Algorithm, seed: u64) -> Scenario {
    match algorithm.synchrony() {
        SynchronyModel::Fsync => Scenario::fsync(n, algorithm),
        SynchronyModel::Ssync(_) => Scenario::ssync(n, algorithm, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: soundness of `Verdict::Feasible` — if the exhaustive search
    /// says the objective is achieved on **every** play within the depth
    /// bound, then a sampled (randomised-adversary) run of the same cell must
    /// also achieve it within the bound.
    #[test]
    fn feasible_verdicts_imply_sampled_sweeps_succeed(
        n in 4usize..7,
        pick in 0usize..64,
        seed in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let depth = 4 * n as u64;
        let check = ModelCheck::new(catalog_cell(n, algorithm, 1), Objective::Explore, depth);
        if let Some(proof) = check.run().feasible() {
            // Any play explores by `depth`; a sampled sticky-random play is
            // one such play.
            let mut scenario = check.scenario.clone();
            scenario.adversary = AdversaryKind::Sticky {
                min_hold: 1,
                max_hold: n as u64,
                present: 0.3,
                seed,
            };
            scenario.stop = StopCondition::Explored;
            scenario.max_rounds = depth;
            let report = scenario.run();
            prop_assert!(
                report.explored(),
                "{algorithm} n={n}: exhaustive search proved exploration by round {depth} \
                 on every play (worst {}), but the sampled play explored only {}/{n} nodes",
                proof.worst_round,
                report.visited_count,
            );
        }
    }

    /// Satellite: the canonical configuration key quotients exactly the ring
    /// symmetries — rotating a whole cell (starts, landmark, forced edges)
    /// yields bit-identical keys at every round.
    #[test]
    fn canonical_keys_are_rotation_invariant(
        n in 4usize..9,
        pick in 0usize..64,
        start_a in 0usize..8,
        start_b in 0usize..8,
        shift in 1usize..8,
        schedule_bits in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let shift = shift % n;
        let agents = algorithm.required_agents();
        let starts: Vec<usize> =
            [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
        if starts.is_empty() { return Ok(()); }

        let base = catalog_cell(n, algorithm, 1).with_starts(starts.clone());
        let mut rotated = catalog_cell(n, algorithm, 1)
            .with_starts(starts.iter().map(|&s| (s + shift) % n).collect());
        rotated.landmark = base.landmark.map(|l| (l + shift) % n);

        let check_a = ModelCheck::new(base, Objective::Explore, 1);
        let check_b = ModelCheck::new(rotated, Objective::Explore, 1);
        let mut sim_a = check_a.branchable_simulation();
        let mut sim_b = check_b.branchable_simulation();
        let ring_a = check_a.scenario.ring();
        let ring_b = check_b.scenario.ring();
        let (mut key_a, mut key_b) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            // Pseudo-random forced choice, mapped through the rotation.
            let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
            let (edge_a, edge_b) = if choice < n {
                (Some(EdgeId::new(choice)), Some(EdgeId::new((choice + shift) % n)))
            } else {
                (None, None)
            };
            sim_a.step_with_edge(edge_a);
            sim_b.step_with_edge(edge_b);
            sim_a.checkpoint().canonical_key(&ring_a, &mut key_a);
            sim_b.checkpoint().canonical_key(&ring_b, &mut key_b);
            prop_assert_eq!(
                &key_a, &key_b,
                "{} n={} shift={} diverged at round {}", algorithm, n, shift, round
            );
        }
    }

    /// Tentpole: the packed binary key induces **exactly** the same
    /// equivalence classes as the legacy `Debug`-string key. Two
    /// configurations — one a random rotation/reflection of the other, or a
    /// genuinely different cell (perturbed start) — have equal packed keys if
    /// and only if they have equal `Debug` keys, at every round of a random
    /// forced-edge play.
    #[test]
    fn packed_key_classes_match_debug_key_classes(
        n in 4usize..9,
        pick in 0usize..64,
        start_a in 0usize..8,
        start_b in 0usize..8,
        shift in 0usize..8,
        reflect in any::<bool>(),
        perturb in any::<bool>(),
        schedule_bits in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let shift = shift % n;
        let agents = algorithm.required_agents();
        let starts: Vec<usize> =
            [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
        if starts.is_empty() { return Ok(()); }

        // The comparison cell: a symmetry image of the base (equal classes
        // expected) or a perturbed sibling (usually distinct classes) —
        // either way both encodings must agree on equality.
        let map = |v: usize| {
            let rotated = (v + shift) % n;
            if reflect { (n - rotated) % n } else { rotated }
        };
        let base = catalog_cell(n, algorithm, 1).with_starts(starts.clone());
        let mut other = catalog_cell(n, algorithm, 1).with_starts(
            starts
                .iter()
                .map(|&s| if perturb { (s + 1) % n } else { map(s) })
                .collect(),
        );
        if !perturb {
            other.landmark = base.landmark.map(map);
            if reflect {
                other.orientations = base
                    .orientations
                    .iter()
                    .map(|&h| match h {
                        Handedness::LeftIsCcw => Handedness::LeftIsCw,
                        Handedness::LeftIsCw => Handedness::LeftIsCcw,
                    })
                    .collect();
            }
        }

        let check_a = ModelCheck::new(base, Objective::Explore, 1);
        let check_b = ModelCheck::new(other, Objective::Explore, 1);
        let mut sim_a = check_a.branchable_simulation();
        let mut sim_b = check_b.branchable_simulation();
        let ring = check_a.scenario.ring();
        let (mut packed_a, mut packed_b) = (Vec::new(), Vec::new());
        let (mut debug_a, mut debug_b) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
            let edge_a = (choice < n).then(|| EdgeId::new(choice));
            let edge_b = if perturb {
                edge_a
            } else {
                // Map the forced edge through the same symmetry: edge
                // e = (e, e+1) rotates to e + shift and reflects to
                // (n - 1) - e.
                (choice < n).then(|| {
                    let rotated = (choice + shift) % n;
                    EdgeId::new(if reflect { (n + n - 1 - rotated) % n } else { rotated })
                })
            };
            sim_a.step_with_edge(edge_a);
            sim_b.step_with_edge(edge_b);
            let cp_a = sim_a.checkpoint();
            let cp_b = sim_b.checkpoint();
            cp_a.canonical_key(&ring, &mut packed_a);
            cp_b.canonical_key(&ring, &mut packed_b);
            cp_a.canonical_key_debug(&ring, &mut debug_a);
            cp_b.canonical_key_debug(&ring, &mut debug_b);
            prop_assert_eq!(
                packed_a == packed_b,
                debug_a == debug_b,
                "{} n={} shift={} reflect={} perturb={}: encodings disagree at round {} \
                 (packed equal: {}, debug equal: {})",
                algorithm, n, shift, reflect, perturb, round,
                packed_a == packed_b, debug_a == debug_b
            );
        }
    }

    /// Satellite: reflecting a whole cell through node 0 (mirrored starts and
    /// forced edges, flipped orientations) also yields bit-identical keys.
    #[test]
    fn canonical_keys_are_reflection_invariant(
        n in 4usize..9,
        pick in 0usize..64,
        start_a in 0usize..8,
        start_b in 0usize..8,
        schedule_bits in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let agents = algorithm.required_agents();
        let starts: Vec<usize> =
            [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
        if starts.is_empty() { return Ok(()); }
        let orientations: Vec<Handedness> = (0..agents)
            .map(|i| if (schedule_bits >> i) & 1 == 0 {
                Handedness::LeftIsCcw
            } else {
                Handedness::LeftIsCw
            })
            .collect();
        let flip = |h: Handedness| match h {
            Handedness::LeftIsCcw => Handedness::LeftIsCw,
            Handedness::LeftIsCw => Handedness::LeftIsCcw,
        };

        let base = catalog_cell(n, algorithm, 1)
            .with_starts(starts.clone())
            .with_orientations(orientations.clone());
        // Reflection through node 0: node v -> (n - v) % n fixes the default
        // landmark 0; edge e = (e, e+1) -> (n - 1 - e).
        let mirrored = catalog_cell(n, algorithm, 1)
            .with_starts(starts.iter().map(|&s| (n - s) % n).collect())
            .with_orientations(orientations.iter().map(|&h| flip(h)).collect());

        let check_a = ModelCheck::new(base, Objective::Explore, 1);
        let check_b = ModelCheck::new(mirrored, Objective::Explore, 1);
        let mut sim_a = check_a.branchable_simulation();
        let mut sim_b = check_b.branchable_simulation();
        let ring = check_a.scenario.ring();
        let (mut key_a, mut key_b) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
            let (edge_a, edge_b) = if choice < n {
                (Some(EdgeId::new(choice)), Some(EdgeId::new(n - 1 - choice)))
            } else {
                (None, None)
            };
            sim_a.step_with_edge(edge_a);
            sim_b.step_with_edge(edge_b);
            sim_a.checkpoint().canonical_key(&ring, &mut key_a);
            sim_b.checkpoint().canonical_key(&ring, &mut key_b);
            prop_assert_eq!(
                &key_a, &key_b,
                "{} n={} diverged at round {}", algorithm, n, round
            );
        }
    }
}
