//! Exhaustive model checking of small scenario cells.
//!
//! The paper's impossibility rows (Tables 1 and 3) are proved by exhibiting an
//! adversary strategy; the sibling [`tables`](crate::tables) module *samples*
//! those strategies as hand-scripted schedules. This module closes the loop
//! for small rings: it explores **every** adversary edge-removal choice at
//! every round by breadth-first expansion over simulation states and returns
//!
//! * [`Verdict::Infeasible`] with a concrete witness [`EdgeSchedule`] that
//!   defeats the protocol (replayable through
//!   [`AdversaryKind::Scripted`](crate::scenario::AdversaryKind)), or
//! * [`Verdict::Feasible`] with the *worst* schedule the search could find —
//!   the discovered lower-bound schedule the `lower_bounds` rows consume.
//!
//! # Search structure
//!
//! One recycled [`Simulation`] serves the whole search: each expansion
//! restores a parent [`SimCheckpoint`], forces one of the `n + 1` admissible
//! edge choices (remove edge `e`, or remove nothing) with
//! [`Simulation::step_with_edge`] and classifies the successor. Successors are
//! deduplicated **per level** on the canonicalised configuration key of
//! [`SimCheckpoint::canonical_key`] (lexicographic minimum over the
//! rotation and reflection carrying agent 0 to node 0, an invariant of each
//! orbit of the ring's automorphisms), which quotients away the agents'
//! anonymity. Keys are only compared within a level because the FSYNC round
//! hint makes configurations at different depths genuinely different states.
//!
//! Witness schedules are reconstructed from a parent-pointer arena: the
//! frontier holds heavy checkpoints, interior nodes only `(parent, choice)`
//! links.
//!
//! # Depth bounds
//!
//! The depth bound of each packaged cell is derived from the paper's round
//! bounds (e.g. the `3N − 6` termination bound of Theorem 3 for the deceived
//! `KnownBound` strategy of Theorems 1/2); for pure survival rows (Theorems 9,
//! 10, 11) the bound is a multiple of `n` matching the scripted rows of
//! [`tables::table3`](crate::tables::table3). A liveness objective that is
//! still undecided at the bound is reported `Infeasible` (the adversary
//! exhibited a play surviving the whole horizon); an undecided safety
//! objective is reported `Feasible` (no play violated it within the horizon).

use crate::batch::{parse_thread_count, BatchRunner};
use crate::figures;
use crate::report::RowResult;
use crate::scenario::{AdversaryKind, Scenario, SchedulerKind};
use dynring_core::Algorithm;
use dynring_engine::{KeyScratch, RunReport, SimCheckpoint, Simulation, StopCondition};
use dynring_graph::{EdgeId, EdgeSchedule, Handedness, RingTopology};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads of the exhaustive search, from `DYNRING_MC_THREADS`.
///
/// Unset means sequential (`1` — the reference path every equivalence test
/// pins). Set, the value must parse as a positive integer exactly like
/// `DYNRING_THREADS` (see [`parse_thread_count`]); anything else hard-fails
/// rather than silently running at an unintended width.
///
/// # Panics
///
/// Panics on a malformed or non-unicode value.
#[must_use]
pub fn mc_threads_from_env() -> usize {
    match std::env::var("DYNRING_MC_THREADS") {
        Ok(raw) => match parse_thread_count(&raw) {
            Ok(threads) => threads,
            Err(message) => panic!("invalid DYNRING_MC_THREADS: {message}"),
        },
        Err(std::env::VarError::NotPresent) => 1,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid DYNRING_MC_THREADS: value is not valid unicode")
        }
    }
}

/// Strict parser for `DYNRING_MC_MAX_N`: the largest ring size the full
/// `infeasibility_cells` matrix is exhaustively proven at in the test suite.
///
/// # Errors
///
/// Returns a human-readable message when `raw` is not a positive integer or
/// is below the smallest exhaustively checkable ring (`n = 4`).
pub fn parse_max_check_n(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 4 => Ok(n),
        Ok(n) => Err(format!(
            "`{n}` is below the smallest exhaustively checkable ring (n = 4)"
        )),
        Err(_) => Err(format!(
            "`{trimmed}` is not a positive integer ring size (examples: 8, 10)"
        )),
    }
}

/// The largest ring size the exhaustive test matrix covers: the
/// `DYNRING_MC_MAX_N` override when set (strictly parsed via
/// [`parse_max_check_n`]), else `default`.
///
/// # Panics
///
/// Panics on a malformed or non-unicode value.
#[must_use]
pub fn max_check_n(default: usize) -> usize {
    match std::env::var("DYNRING_MC_MAX_N") {
        Ok(raw) => match parse_max_check_n(&raw) {
            Ok(n) => n,
            Err(message) => panic!("invalid DYNRING_MC_MAX_N: {message}"),
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid DYNRING_MC_MAX_N: value is not valid unicode")
        }
    }
}

/// 64-bit FNV-1a digest of a canonical key.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Per-level dedup set over canonical keys: an open-addressed table of
/// 64-bit FNV-1a digests, with the full keys retained in a side arena so
/// that digest matches fall back to exact byte comparison. Hash collisions
/// therefore cost one memcmp but can never merge distinct configurations —
/// the proofs stay proofs.
///
/// `clear` keeps every buffer's capacity, so a recycled table performs no
/// steady-state allocations once the hot level has been seen.
#[derive(Debug, Default)]
struct KeyTable {
    /// Open-addressed probe table storing `entry index + 1` (`0` = empty).
    /// Length is a power of two.
    slots: Vec<u32>,
    /// Digest of each inserted key, in insertion order.
    digests: Vec<u64>,
    /// End offset of each inserted key within `arena` (entry `i` spans
    /// `ends[i - 1]..ends[i]`).
    ends: Vec<u32>,
    /// Concatenated full keys, for the exact-comparison fallback.
    arena: Vec<u8>,
}

impl KeyTable {
    const INITIAL_SLOTS: usize = 1024;

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = 0);
        self.digests.clear();
        self.ends.clear();
        self.arena.clear();
    }

    fn len(&self) -> usize {
        self.digests.len()
    }

    fn entry_key(&self, entry: usize) -> &[u8] {
        let start = if entry == 0 { 0 } else { self.ends[entry - 1] as usize };
        &self.arena[start..self.ends[entry] as usize]
    }

    /// Inserts `key`, returning whether it was new (`false` = already
    /// present, byte-compared exactly).
    fn insert(&mut self, key: &[u8]) -> bool {
        if self.slots.is_empty() {
            self.slots.resize(Self::INITIAL_SLOTS, 0);
        }
        // Grow at 7/8 load, before probing, so the probe below always finds
        // an empty slot.
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let digest = fnv1a(key);
        let mask = self.slots.len() - 1;
        let mut pos = (digest as usize) & mask;
        loop {
            match self.slots[pos] {
                0 => {
                    let entry = self.len();
                    self.slots[pos] =
                        u32::try_from(entry + 1).expect("key table exceeds u32 entries");
                    self.digests.push(digest);
                    self.arena.extend_from_slice(key);
                    self.ends
                        .push(u32::try_from(self.arena.len()).expect("key arena exceeds u32"));
                    return true;
                }
                slot => {
                    let entry = slot as usize - 1;
                    if self.digests[entry] == digest && self.entry_key(entry) == key {
                        return false;
                    }
                    pos = (pos + 1) & mask;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        let mask = new_len - 1;
        for (entry, &digest) in self.digests.iter().enumerate() {
            let mut pos = (digest as usize) & mask;
            while self.slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = u32::try_from(entry + 1).expect("key table exceeds u32 entries");
        }
    }
}

/// Sentinel parent of the BFS root in the packed link arena.
const ROOT_LINK: u32 = u32::MAX;

/// One node of the parent-pointer witness arena: a `u32` parent index with
/// the forced-edge choice packed alongside (`choice == ring size` encodes
/// "remove nothing"). Eight bytes per expanded decision instead of the 24 of
/// the old `(usize, Option<EdgeId>)` pairs.
#[derive(Debug, Clone, Copy)]
struct Link {
    parent: u32,
    choice: u16,
}

/// Reusable buffers of one exhaustive search: the link arena, the hashed
/// dedup set, both frontiers, a checkpoint pool and the canonicalisation
/// scratch. Holding a `SearchContext` across [`ModelCheck::run_in`] calls
/// makes the sequential search allocation-free in the steady state (the
/// bench's counting allocator pins this).
#[derive(Debug)]
pub struct SearchContext {
    threads: usize,
    links: Vec<Link>,
    seen: KeyTable,
    frontier: Vec<(SimCheckpoint, u32)>,
    next: Vec<(SimCheckpoint, u32)>,
    key: Vec<u8>,
    key_scratch: KeyScratch,
    scratch: SimCheckpoint,
    pool: Vec<SimCheckpoint>,
}

impl SearchContext {
    /// A context whose searches expand levels on `threads` workers
    /// (`1` = the sequential reference path).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        SearchContext {
            threads: threads.max(1),
            links: Vec::new(),
            seen: KeyTable::default(),
            frontier: Vec::new(),
            next: Vec::new(),
            key: Vec::new(),
            key_scratch: KeyScratch::new(),
            scratch: SimCheckpoint::default(),
            pool: Vec::new(),
        }
    }

    /// A context at the `DYNRING_MC_THREADS` width (default sequential).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(mc_threads_from_env())
    }

    /// The configured worker width.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns leftover checkpoints of a previous run to the pool.
    fn recycle(&mut self) {
        self.pool.extend(self.frontier.drain(..).map(|(cp, _)| cp));
        self.pool.extend(self.next.drain(..).map(|(cp, _)| cp));
        self.links.clear();
    }
}

/// What the protocol is trying to achieve (liveness) or preserve (safety).
///
/// The model checker plays the protocol against an omniscient adversary: the
/// protocol **wins** a play when the objective is achieved, the **adversary
/// wins** when it becomes unachievable (liveness) or is violated (safety).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Liveness: every node is eventually visited.
    Explore,
    /// Liveness: the ring is explored *and* at least one agent explicitly
    /// terminates.
    ExploreAndPartialTermination,
    /// Liveness: the ring is explored *and* every agent explicitly
    /// terminates.
    ExploreAndFullTermination,
    /// Liveness: some agent completes at least one traversal (Theorem 9's
    /// "no protocol ever moves" NS impossibility).
    AnyMove,
    /// Safety: no agent terminates before the ring is explored (violated by
    /// the deceived strategies of Theorems 1, 2 and 19).
    NoPrematureTermination,
    /// Safety: no agent ever terminates (the knowledge-free `Unconscious`
    /// strategy of Theorem 5 must not terminate).
    NoTermination,
}

/// How a single reached configuration scores against an [`Objective`].
enum Outcome {
    ProtocolWins,
    AdversaryWins,
    Undecided,
}

impl Objective {
    /// Whether an undecided play at the depth bound counts for the adversary
    /// (liveness) or the protocol (safety).
    #[must_use]
    pub fn is_safety(self) -> bool {
        matches!(self, Objective::NoPrematureTermination | Objective::NoTermination)
    }

    /// Short human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Objective::Explore => "explore",
            Objective::ExploreAndPartialTermination => "explore+partial-termination",
            Objective::ExploreAndFullTermination => "explore+full-termination",
            Objective::AnyMove => "any-move",
            Objective::NoPrematureTermination => "no-premature-termination",
            Objective::NoTermination => "no-termination",
        }
    }

    /// Scores a live configuration. `Undecided` implies at least one agent is
    /// still alive, so every undecided configuration can be expanded further.
    fn classify(self, sim: &Simulation) -> Outcome {
        let explored = sim.explored();
        let alive = sim.alive_count();
        let partial = alive < sim.agent_count();
        match self {
            Objective::Explore => {
                if explored {
                    Outcome::ProtocolWins
                } else if alive == 0 {
                    Outcome::AdversaryWins
                } else {
                    Outcome::Undecided
                }
            }
            Objective::ExploreAndPartialTermination => {
                if explored && partial {
                    Outcome::ProtocolWins
                } else if alive == 0 {
                    Outcome::AdversaryWins
                } else {
                    Outcome::Undecided
                }
            }
            Objective::ExploreAndFullTermination => {
                if alive > 0 {
                    Outcome::Undecided
                } else if explored {
                    Outcome::ProtocolWins
                } else {
                    Outcome::AdversaryWins
                }
            }
            Objective::AnyMove => {
                if sim.total_moves() > 0 {
                    Outcome::ProtocolWins
                } else if alive == 0 {
                    Outcome::AdversaryWins
                } else {
                    Outcome::Undecided
                }
            }
            Objective::NoPrematureTermination => {
                if partial && !explored {
                    Outcome::AdversaryWins
                } else if explored {
                    Outcome::ProtocolWins
                } else {
                    Outcome::Undecided
                }
            }
            Objective::NoTermination => {
                if partial {
                    Outcome::AdversaryWins
                } else {
                    Outcome::Undecided
                }
            }
        }
    }

    /// Whether a replayed [`RunReport`] exhibits the adversary's win — the
    /// predicate a discovered witness schedule must reproduce when replayed
    /// through [`AdversaryKind::Scripted`](crate::scenario::AdversaryKind).
    #[must_use]
    pub fn defeated_in(self, report: &RunReport) -> bool {
        let partial = report.termination_rounds.iter().flatten().count() > 0;
        match self {
            Objective::Explore => !report.explored(),
            Objective::ExploreAndPartialTermination => !(report.explored() && partial),
            Objective::ExploreAndFullTermination => {
                !(report.explored() && report.all_terminated)
            }
            Objective::AnyMove => report.total_moves == 0,
            Objective::NoPrematureTermination => partial && !report.explored(),
            Objective::NoTermination => partial,
        }
    }
}

/// Search statistics of one [`ModelCheck::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Successor configurations generated (restore + forced step).
    pub expanded: u64,
    /// Distinct (canonical) undecided configurations kept across all levels.
    pub visited: u64,
    /// Largest frontier encountered.
    pub peak_frontier: usize,
    /// Deepest level fully expanded.
    pub depth_reached: u64,
}

/// Proof object of a [`Verdict::Feasible`]: the objective was achieved on
/// **every** play within the depth bound (liveness), or never violated within
/// it (safety).
#[derive(Debug, Clone)]
pub struct FeasibleProof {
    /// The worst schedule the exhaustive search found: the play achieving the
    /// objective *latest* (liveness) or a deepest surviving play (safety).
    /// This is the discovered lower-bound schedule.
    pub worst_schedule: EdgeSchedule,
    /// Round in which the worst play was decided (or reached the bound).
    pub worst_round: u64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Proof object of a [`Verdict::Infeasible`]: a concrete adversary win.
#[derive(Debug, Clone)]
pub struct InfeasibleProof {
    /// The witness schedule: replaying it through a scripted adversary
    /// reproduces the non-achievement outcome (see [`Objective::defeated_in`]).
    pub witness: EdgeSchedule,
    /// Round of the defeat: the earliest violation (safety / dead liveness
    /// play), or the depth bound a play survived without achieving a liveness
    /// objective.
    pub defeat_round: u64,
    /// The exhaustively explored depth.
    pub proof_depth: u64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Result of an exhaustive search over all adversary plays of one cell.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The protocol meets the objective against **every** adversary play
    /// within the depth bound.
    Feasible(FeasibleProof),
    /// Some adversary play defeats the objective; the proof carries a
    /// replayable witness schedule.
    Infeasible(InfeasibleProof),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Feasible`].
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible(_))
    }

    /// The feasible proof, if any.
    #[must_use]
    pub fn feasible(&self) -> Option<&FeasibleProof> {
        match self {
            Verdict::Feasible(p) => Some(p),
            Verdict::Infeasible(_) => None,
        }
    }

    /// The infeasible proof, if any.
    #[must_use]
    pub fn infeasible(&self) -> Option<&InfeasibleProof> {
        match self {
            Verdict::Infeasible(p) => Some(p),
            Verdict::Feasible(_) => None,
        }
    }

    /// The search statistics of either proof.
    #[must_use]
    pub fn stats(&self) -> &SearchStats {
        match self {
            Verdict::Feasible(p) => &p.stats,
            Verdict::Infeasible(p) => &p.stats,
        }
    }
}

/// An exhaustive bounded search over every adversary play of one scenario
/// cell.
///
/// The scenario's own `adversary` field is ignored (the search *is* the
/// adversary); its scheduler must be checkpointable (see
/// [`Simulation::supports_checkpoint`] — deterministic schedulers are, the
/// seeded `Random` scheduler is not).
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// The cell: ring, agents, knowledge, synchrony, scheduler.
    pub scenario: Scenario,
    /// What the protocol must achieve or preserve.
    pub objective: Objective,
    /// Depth bound (rounds) of the exhaustive expansion.
    pub depth: u64,
    /// Hard cap on distinct kept configurations; exceeding it panics rather
    /// than silently truncating the proof.
    pub max_states: u64,
    /// Dedup on the legacy `Debug`-string canonical key instead of the packed
    /// binary key. Both encodings induce exactly the same equivalence classes
    /// (the equivalence proptests pin this), so verdicts are identical; this
    /// switch exists so the `model_check_throughput` bench can measure the
    /// pre-packing baseline in-tree.
    pub use_debug_key: bool,
}

/// Frontier size below which a parallel context still expands sequentially —
/// thread fan-out costs more than it saves on tiny levels, and the sequential
/// path is the allocation-free one.
const PARALLEL_FRONTIER_MIN: usize = 32;

impl ModelCheck {
    /// Packages a cell for exhaustive checking.
    ///
    /// The default `max_states` runaway guard scales with the ring: 2 M
    /// distinct configurations for `n ≤ 9`, 10 M for larger rings (the
    /// widest packaged cell legitimately keeps ~2.6 M distinct states at
    /// `n = 10`, which would trip the small-ring guard).
    #[must_use]
    pub fn new(scenario: Scenario, objective: Objective, depth: u64) -> Self {
        let max_states = if scenario.ring_size >= 10 { 10_000_000 } else { 2_000_000 };
        ModelCheck { scenario, objective, depth, max_states, use_debug_key: false }
    }

    /// The branchable simulation the search recycles: the cell's compiled
    /// spec with its own (deterministic) scheduler, a benign edge policy (the
    /// search forces edges explicitly) and tracing off.
    ///
    /// Public so tests can drive forced executions of the same cell.
    #[must_use]
    pub fn branchable_simulation(&self) -> Simulation {
        let mut scenario = self.scenario.clone();
        scenario.record_trace = false;
        let spec = scenario.compile();
        spec.instantiate(scenario.scheduler.instantiate(), AdversaryKind::Static.instantiate())
    }

    /// Replays a discovered schedule through the ordinary scenario path with
    /// a scripted adversary, running exactly the schedule's horizon.
    #[must_use]
    pub fn replay(&self, schedule: &EdgeSchedule) -> RunReport {
        let mut scenario = self.scenario.clone();
        scenario.record_trace = false;
        scenario.adversary = AdversaryKind::scripted(schedule.clone());
        scenario.stop = StopCondition::RoundBudget;
        scenario.max_rounds = schedule.horizon().max(1);
        scenario.run()
    }

    /// Runs the exhaustive search at the `DYNRING_MC_THREADS` width with a
    /// fresh [`SearchContext`].
    ///
    /// # Panics
    ///
    /// Panics if the cell's scheduler is not checkpointable (seeded `Random`)
    /// or if the search exceeds [`ModelCheck::max_states`] distinct
    /// configurations.
    #[must_use]
    pub fn run(&self) -> Verdict {
        self.run_in(&mut SearchContext::from_env())
    }

    /// Runs the exhaustive search on exactly `threads` workers (see
    /// [`ModelCheck::run_in`]; `1` is the sequential reference path).
    ///
    /// # Panics
    ///
    /// As [`ModelCheck::run`].
    #[must_use]
    pub fn run_with_threads(&self, threads: usize) -> Verdict {
        self.run_in(&mut SearchContext::new(threads))
    }

    /// Runs the exhaustive search inside `ctx`, recycling its buffers.
    ///
    /// The parallel path (`ctx.threads() > 1`) shards each BFS level into
    /// contiguous chunks, expands them on a [`BatchRunner`] pool, and merges
    /// the per-chunk records back **in sequential order** — the returned
    /// verdict, its witness schedule and its [`SearchStats`] are byte-for-byte
    /// identical to the sequential search (the parallel-equivalence tests pin
    /// this over every packaged cell).
    ///
    /// # Panics
    ///
    /// As [`ModelCheck::run`].
    #[must_use]
    pub fn run_in(&self, ctx: &mut SearchContext) -> Verdict {
        let mut sim = self.branchable_simulation();
        assert!(
            sim.supports_checkpoint(),
            "scheduler {:?} is not checkpointable and cannot be model checked",
            self.scenario.scheduler
        );
        let ring = self.scenario.ring();
        let n = ring.size();
        assert!(n < usize::from(u16::MAX), "ring size exceeds the packed link arena's choice width");
        let mut stats = SearchStats::default();
        ctx.recycle();

        // Latest protocol win (round, link) — the worst feasible play.
        let mut best_win: Option<(u64, u32)> = None;

        if let Outcome::AdversaryWins | Outcome::ProtocolWins = self.objective.classify(&sim) {
            // Decided before the adversary ever moves (e.g. dense starts
            // covering the whole ring): the empty schedule is the proof.
            let empty = EdgeSchedule::always_present(&ring);
            return match self.objective.classify(&sim) {
                Outcome::ProtocolWins => Verdict::Feasible(FeasibleProof {
                    worst_schedule: empty,
                    worst_round: 0,
                    stats,
                }),
                _ => Verdict::Infeasible(InfeasibleProof {
                    witness: empty,
                    defeat_round: 0,
                    proof_depth: 0,
                    stats,
                }),
            };
        }

        let mut root = ctx.pool.pop().unwrap_or_default();
        sim.checkpoint_into(&mut root);
        ctx.frontier.push((root, ROOT_LINK));

        for _ in 0..self.depth {
            if ctx.frontier.is_empty() {
                break;
            }
            stats.peak_frontier = stats.peak_frontier.max(ctx.frontier.len());
            ctx.seen.clear();
            let parallel = ctx.threads > 1
                && ctx.frontier.len() >= (2 * ctx.threads).max(PARALLEL_FRONTIER_MIN);
            let verdict = if parallel {
                self.expand_level_parallel(ctx, &ring, n, &mut stats, &mut best_win)
            } else {
                self.expand_level_sequential(ctx, &mut sim, &ring, n, &mut stats, &mut best_win)
            };
            if let Some(verdict) = verdict {
                return verdict;
            }
            std::mem::swap(&mut ctx.frontier, &mut ctx.next);
            stats.depth_reached += 1;
        }

        if self.objective.is_safety() || ctx.frontier.is_empty() {
            // Safety: no play violated the objective within the bound.
            // Liveness with an empty frontier: every play achieved it.
            let (worst_round, link) = match (&*ctx.frontier, best_win) {
                // A surviving safety play is "worse" than any decided one.
                ([(cp, parent), ..], _) => (cp.round(), *parent),
                ([], Some((round, link))) => (round, link),
                ([], None) => {
                    // Decided-at-root cells returned above; a zero-depth
                    // search proves nothing but is vacuously feasible.
                    return Verdict::Feasible(FeasibleProof {
                        worst_schedule: EdgeSchedule::always_present(&ring),
                        worst_round: 0,
                        stats,
                    });
                }
            };
            let worst_schedule = schedule_from(&ctx.links, link, &ring);
            Verdict::Feasible(FeasibleProof { worst_schedule, worst_round, stats })
        } else {
            // Liveness undecided at the bound: the adversary exhibited a play
            // surviving the whole horizon without the objective.
            let (cp, parent) = &ctx.frontier[0];
            let witness = schedule_from(&ctx.links, *parent, &ring);
            Verdict::Infeasible(InfeasibleProof {
                witness,
                defeat_round: cp.round(),
                proof_depth: stats.depth_reached,
                stats,
            })
        }
    }

    /// Expands one BFS level in place on the caller's thread: the reference
    /// path, allocation-free in the steady state (every buffer it touches is
    /// recycled through `ctx`).
    fn expand_level_sequential(
        &self,
        ctx: &mut SearchContext,
        sim: &mut Simulation,
        ring: &RingTopology,
        n: usize,
        stats: &mut SearchStats,
        best_win: &mut Option<(u64, u32)>,
    ) -> Option<Verdict> {
        for (cp, parent) in ctx.frontier.drain(..) {
            // The n + 1 admissible adversary choices: remove edge e, or
            // remove nothing (encoded as choice index n).
            for choice_index in 0..=n {
                let choice = (choice_index < n).then(|| EdgeId::new(choice_index));
                sim.restore(&cp);
                sim.step_with_edge(choice);
                stats.expanded += 1;
                match self.objective.classify(sim) {
                    Outcome::AdversaryWins => {
                        let link = push_link(&mut ctx.links, parent, choice_index);
                        let witness = schedule_from(&ctx.links, link, ring);
                        stats.depth_reached = sim.round();
                        return Some(Verdict::Infeasible(InfeasibleProof {
                            witness,
                            defeat_round: sim.round(),
                            proof_depth: sim.round(),
                            stats: *stats,
                        }));
                    }
                    Outcome::ProtocolWins => {
                        let link = push_link(&mut ctx.links, parent, choice_index);
                        let round = sim.round();
                        if best_win.is_none_or(|(r, _)| round >= r) {
                            *best_win = Some((round, link));
                        }
                    }
                    Outcome::Undecided => {
                        sim.checkpoint_into(&mut ctx.scratch);
                        if self.use_debug_key {
                            ctx.scratch.canonical_key_debug(ring, &mut ctx.key);
                        } else {
                            ctx.scratch.canonical_key_into(
                                ring,
                                &mut ctx.key_scratch,
                                &mut ctx.key,
                            );
                        }
                        if ctx.seen.insert(&ctx.key) {
                            let link = push_link(&mut ctx.links, parent, choice_index);
                            stats.visited += 1;
                            assert!(
                                stats.visited <= self.max_states,
                                "model check exceeded {} states at depth {} (cell {})",
                                self.max_states,
                                sim.round(),
                                self.scenario.label()
                            );
                            let fresh = ctx.pool.pop().unwrap_or_default();
                            ctx.next.push((std::mem::replace(&mut ctx.scratch, fresh), link));
                        }
                    }
                }
            }
            ctx.pool.push(cp);
        }
        None
    }

    /// Expands one BFS level on the `BatchRunner` pool and merges the chunk
    /// records back in sequential order — see [`ModelCheck::run_in`].
    fn expand_level_parallel(
        &self,
        ctx: &mut SearchContext,
        ring: &RingTopology,
        n: usize,
        stats: &mut SearchStats,
        best_win: &mut Option<(u64, u32)>,
    ) -> Option<Verdict> {
        // Every successor of this level lands in the same round (BFS levels
        // are lockstep in depth), which the max-states panic message reports.
        let level_round = ctx.frontier[0].0.round() + 1;
        let chunk_len = ctx.frontier.len().div_ceil(ctx.threads);
        let chunks: Vec<(usize, &[(SimCheckpoint, u32)])> =
            ctx.frontier.chunks(chunk_len).enumerate().collect();
        // Lowest chunk index that hit an adversary win. The merge below never
        // reads records past that win, so chunks strictly after it may stop
        // expanding early; chunks before it must run to completion because
        // every one of their records is merged.
        let earliest_adv = AtomicUsize::new(usize::MAX);
        let use_debug_key = self.use_debug_key;
        let runner = BatchRunner::new(ctx.threads);
        let mut outs = runner.run_map_with(
            &chunks,
            || {
                (
                    self.branchable_simulation(),
                    SimCheckpoint::default(),
                    KeyScratch::new(),
                    KeyTable::default(),
                    Vec::new(),
                )
            },
            |state, &(chunk_index, items)| {
                let (sim, scratch, key_scratch, local_seen, key) = state;
                local_seen.clear();
                let mut out = ChunkOut::default();
                'items: for (cp, _parent) in items {
                    for choice_index in 0..=n {
                        if earliest_adv.load(Ordering::Relaxed) < chunk_index {
                            break 'items;
                        }
                        let choice = (choice_index < n).then(|| EdgeId::new(choice_index));
                        sim.restore(cp);
                        sim.step_with_edge(choice);
                        match self.objective.classify(sim) {
                            Outcome::AdversaryWins => {
                                out.recs.push(Rec::Adv { round: sim.round() });
                                earliest_adv.fetch_min(chunk_index, Ordering::Relaxed);
                                break 'items;
                            }
                            Outcome::ProtocolWins => {
                                out.recs.push(Rec::Proto { round: sim.round() });
                            }
                            Outcome::Undecided => {
                                sim.checkpoint_into(scratch);
                                if use_debug_key {
                                    scratch.canonical_key_debug(ring, key);
                                } else {
                                    scratch.canonical_key_into(ring, key_scratch, key);
                                }
                                if local_seen.insert(key) {
                                    // Chunk-locally new: ship key + checkpoint.
                                    // If the merge finds it globally old the
                                    // checkpoint is recycled, not kept.
                                    out.keys.extend_from_slice(key);
                                    out.key_ends.push(
                                        u32::try_from(out.keys.len())
                                            .expect("chunk key arena exceeds u32"),
                                    );
                                    out.cps.push(std::mem::take(scratch));
                                    out.recs.push(Rec::New);
                                } else {
                                    // A chunk-local duplicate is necessarily a
                                    // global duplicate: the earlier identical
                                    // key in this same chunk merges first.
                                    out.recs.push(Rec::Dup);
                                }
                            }
                        }
                    }
                }
                out
            },
        );

        // In-order merge: replay every chunk's records exactly as the
        // sequential loop would have visited them.
        let mut result = None;
        'merge: for (chunk_index, out) in outs.iter_mut().enumerate() {
            let chunk_start = chunk_index * chunk_len;
            let mut key_start = 0usize;
            let mut ordinal = 0usize;
            for (i, rec) in out.recs.iter().enumerate() {
                let item = chunk_start + i / (n + 1);
                let choice_index = i % (n + 1);
                let parent = ctx.frontier[item].1;
                stats.expanded += 1;
                match *rec {
                    Rec::Adv { round } => {
                        let link = push_link(&mut ctx.links, parent, choice_index);
                        let witness = schedule_from(&ctx.links, link, ring);
                        stats.depth_reached = round;
                        result = Some(Verdict::Infeasible(InfeasibleProof {
                            witness,
                            defeat_round: round,
                            proof_depth: round,
                            stats: *stats,
                        }));
                        break 'merge;
                    }
                    Rec::Proto { round } => {
                        let link = push_link(&mut ctx.links, parent, choice_index);
                        if best_win.is_none_or(|(r, _)| round >= r) {
                            *best_win = Some((round, link));
                        }
                    }
                    Rec::New => {
                        let end = out.key_ends[ordinal] as usize;
                        let key = &out.keys[key_start..end];
                        let cp = std::mem::take(&mut out.cps[ordinal]);
                        key_start = end;
                        ordinal += 1;
                        if ctx.seen.insert(key) {
                            let link = push_link(&mut ctx.links, parent, choice_index);
                            stats.visited += 1;
                            assert!(
                                stats.visited <= self.max_states,
                                "model check exceeded {} states at depth {} (cell {})",
                                self.max_states,
                                level_round,
                                self.scenario.label()
                            );
                            ctx.next.push((cp, link));
                        } else {
                            ctx.pool.push(cp);
                        }
                    }
                    Rec::Dup => {}
                }
            }
        }
        drop(outs);
        drop(chunks);
        if result.is_none() {
            ctx.pool.extend(ctx.frontier.drain(..).map(|(cp, _)| cp));
        }
        result
    }
}

/// Appends a packed link, returning its index.
fn push_link(links: &mut Vec<Link>, parent: u32, choice_index: usize) -> u32 {
    let id = u32::try_from(links.len()).expect("link arena exceeds u32 entries");
    links.push(Link {
        parent,
        choice: u16::try_from(choice_index).expect("choice exceeds packed width"),
    });
    id
}

/// One expansion outcome recorded by a parallel chunk worker, in the exact
/// (item, choice) order the sequential loop visits.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// Adversary win at `round`; the worker stops after recording it.
    Adv { round: u64 },
    /// Protocol win at `round`.
    Proto { round: u64 },
    /// Chunk-locally new undecided configuration; its canonical key and
    /// checkpoint ride in the chunk's side arrays.
    New,
    /// Chunk-local (hence global) duplicate; nothing attached.
    Dup,
}

/// Everything one parallel chunk ships back to the in-order merge.
#[derive(Debug, Default)]
struct ChunkOut {
    recs: Vec<Rec>,
    /// Concatenated canonical keys of the `Rec::New` records.
    keys: Vec<u8>,
    /// End offset of each `Rec::New` key within `keys`.
    key_ends: Vec<u32>,
    /// Checkpoints of the `Rec::New` records.
    cps: Vec<SimCheckpoint>,
}

/// Walks the parent-pointer arena back to the root and materialises the
/// per-round forced choices as a replayable schedule.
fn schedule_from(links: &[Link], mut link: u32, ring: &RingTopology) -> EdgeSchedule {
    let n = ring.size();
    let mut choices = Vec::new();
    while link != ROOT_LINK {
        let Link { parent, choice } = links[link as usize];
        let choice = usize::from(choice);
        choices.push((choice < n).then(|| EdgeId::new(choice)));
        link = parent;
    }
    choices.reverse();
    EdgeSchedule::from_missing(ring, choices).expect("forced choices are in range")
}

/// One packaged table cell: a check plus the verdict the paper predicts.
#[derive(Debug, Clone)]
pub struct TableCell {
    /// Row id, e.g. `MC-T1-R1`.
    pub id: String,
    /// The theorem backing the row.
    pub claim: &'static str,
    /// The packaged exhaustive check.
    pub check: ModelCheck,
    /// Whether the paper predicts `Infeasible` (impossibility rows) or
    /// `Feasible` (the no-termination safety row).
    pub expect_infeasible: bool,
}

impl TableCell {
    fn new(
        id: String,
        claim: &'static str,
        check: ModelCheck,
        expect_infeasible: bool,
    ) -> Self {
        TableCell { id, claim, check, expect_infeasible }
    }

    /// Runs the cell and scores it as a report row: `holds` requires the
    /// predicted verdict **and**, for impossibility rows, that the discovered
    /// witness replays through a scripted adversary to the same defeat.
    #[must_use]
    pub fn row(&self) -> RowResult {
        let verdict = self.check.run();
        let stats = *verdict.stats();
        let (holds, observed) = match (&verdict, self.expect_infeasible) {
            (Verdict::Infeasible(proof), true) => {
                let replay = self.check.replay(&proof.witness);
                let confirmed = self.check.objective.defeated_in(&replay);
                (
                    confirmed,
                    format!(
                        "infeasible: defeat at round {} (exhaustive to depth {}, {} states); scripted replay {}",
                        proof.defeat_round,
                        proof.proof_depth,
                        stats.visited,
                        if confirmed { "confirms" } else { "DIVERGES" },
                    ),
                )
            }
            (Verdict::Feasible(proof), false) => (
                true,
                format!(
                    "feasible: worst play decided at round {} (exhaustive to depth {}, {} states)",
                    proof.worst_round, stats.depth_reached, stats.visited
                ),
            ),
            (Verdict::Feasible(proof), true) => (
                false,
                format!(
                    "UNEXPECTEDLY feasible (worst round {}, {} states)",
                    proof.worst_round, stats.visited
                ),
            ),
            (Verdict::Infeasible(proof), false) => (
                false,
                format!(
                    "UNEXPECTEDLY infeasible (defeat at round {}, {} states)",
                    proof.defeat_round, stats.visited
                ),
            ),
        };
        RowResult::new(
            self.id.clone(),
            self.claim,
            self.check.scenario.label(),
            if self.expect_infeasible { "infeasible (exhaustive)" } else { "feasible (exhaustive)" },
            observed,
            holds,
            1,
        )
    }
}

/// The deceived horizon guess the Table 1 witnesses commit to.
const GUESSED_BOUND: usize = 3;

/// Exhaustively checkable Table 1 rows on a ring of `4 ≤ n ≤ 12`.
///
/// Mirrors the scenario parameters of [`tables::table1`](crate::tables::table1)
/// exactly, minus the hand-picked adversaries — the search plays every
/// adversary.
#[must_use]
pub fn table1_cells(n: usize) -> Vec<TableCell> {
    assert!((4..=12).contains(&n), "exhaustive Table 1 cells cover 4 <= n <= 12");
    // The deceived strategy terminates by round 3·GUESSED − 6 + 1 on its
    // guessed ring; the depth adds slack for adversary-delayed defeats.
    let t1_depth = 3 * GUESSED_BOUND as u64 + 4;
    vec![
        TableCell::new(
            format!("MC-T1-R1(n={n})"),
            "Theorem 1",
            ModelCheck::new(
                Scenario::fsync(n, Algorithm::KnownBound { upper_bound: GUESSED_BOUND })
                    .with_starts(vec![0, 1]),
                Objective::NoPrematureTermination,
                t1_depth,
            ),
            true,
        ),
        TableCell::new(
            format!("MC-T1-R2(n={n})"),
            "Theorem 2",
            ModelCheck::new(
                Scenario::fsync(n, Algorithm::KnownBound { upper_bound: GUESSED_BOUND })
                    .with_starts(vec![0, 1, 2])
                    .with_orientations(vec![Handedness::LeftIsCcw; 3]),
                Objective::NoPrematureTermination,
                t1_depth,
            ),
            true,
        ),
        TableCell::new(
            format!("MC-T1-R3(n={n})"),
            "Theorem 2 / Theorem 5 (no termination)",
            // The knowledge-free strategy must never terminate; the frontier
            // of this safety cell never closes, so the horizon is kept just
            // past the deceived strategies' termination rounds.
            ModelCheck::new(
                Scenario::fsync(n, Algorithm::Unconscious),
                Objective::NoTermination,
                n as u64 + 6,
            ),
            false,
        ),
    ]
}

/// Exhaustively checkable Table 3 rows on a ring of `4 ≤ n ≤ 12` (the
/// Theorem 19 row needs `n ≥ 5` and is omitted below that).
///
/// Mirrors the scenario parameters of [`tables::table3`](crate::tables::table3).
#[must_use]
pub fn table3_cells(n: usize) -> Vec<TableCell> {
    assert!((4..=12).contains(&n), "exhaustive Table 3 cells cover 4 <= n <= 12");
    let mut cells = Vec::new();

    // Theorem 9 (NS): under the first-mover scheduler no protocol ever moves;
    // the search proves no adversary-surviving play contains a single move.
    let ns_algorithms = [
        Algorithm::PtBoundChirality { upper_bound: n },
        Algorithm::EtUnconscious,
        Algorithm::PtBoundNoChirality { upper_bound: n },
    ];
    for (i, &algorithm) in ns_algorithms.iter().enumerate() {
        let mut scenario = Scenario::fsync(n, algorithm);
        scenario.synchrony =
            dynring_model::SynchronyModel::Ssync(dynring_model::TransportModel::NoSimultaneity);
        let scenario = scenario.with_scheduler(SchedulerKind::FirstMoverOnly);
        cells.push(TableCell::new(
            format!("MC-T3-R1{}(n={n})", char::from(b'a' + i as u8)),
            "Theorem 9",
            ModelCheck::new(scenario, Objective::AnyMove, 20 * n as u64),
            true,
        ));
    }

    // Theorem 10 (PT, no common chirality): both agents can be kept on the
    // two ports of one missing edge forever.
    let mut scenario = Scenario::ssync(n, Algorithm::PtBoundChirality { upper_bound: n }, 5);
    scenario.orientations = vec![Handedness::LeftIsCw, Handedness::LeftIsCcw];
    scenario.starts = vec![1, 0];
    let scenario = scenario.with_scheduler(SchedulerKind::RoundRobin);
    cells.push(TableCell::new(
        format!("MC-T3-R2(n={n})"),
        "Theorem 10",
        ModelCheck::new(scenario, Objective::Explore, 8 * n as u64),
        true,
    ));

    // Theorem 11 (PT): explicit termination of both agents is impossible.
    let scenario = Scenario::ssync(n, Algorithm::PtBoundChirality { upper_bound: n }, 7)
        .with_scheduler(SchedulerKind::SleepBlocked { hold: 2 });
    cells.push(TableCell::new(
        format!("MC-T3-R3(n={n})"),
        "Theorem 11",
        // Against a benign schedule this cell fully terminates by round ~n
        // (measured: round n at n = 5..8), so surviving n + 4 rounds without
        // full termination is already a genuine impossibility certificate;
        // deeper horizons explode the PT state space.
        ModelCheck::new(scenario, Objective::ExploreAndFullTermination, n as u64 + 4),
        true,
    ));

    // Theorem 19 (ET, only a bound known): acting on a guessed size < n
    // terminates without exploring. Needs guess = n − 2 ≥ 3.
    if n >= 5 {
        let wrong_guess = n - 2;
        let mut scenario =
            Scenario::ssync(n, Algorithm::EtBoundNoChirality { ring_size: wrong_guess }, 3);
        scenario.starts = vec![0, 0, 0];
        let scenario =
            scenario.with_scheduler(SchedulerKind::EtFairRoundRobin { max_lag: 1 });
        cells.push(TableCell::new(
            format!("MC-T3-R4(n={n})"),
            "Theorem 19",
            ModelCheck::new(scenario, Objective::NoPrematureTermination, 12 * n as u64),
            true,
        ));
    }
    cells
}

/// Every exhaustively checkable Table 1 + Table 3 cell for one ring size.
#[must_use]
pub fn infeasibility_cells(n: usize) -> Vec<TableCell> {
    let mut cells = table1_cells(n);
    cells.extend(table3_cells(n));
    cells
}

/// The Theorem 4 lower-bound cell: the correctly-parameterised `KnownBound`
/// strategy *is* feasible, and the search's worst discovered schedule is the
/// true worst case — `lower_bounds` consumes it, with Figure 2's hand script
/// as the regression pin.
#[must_use]
pub fn theorem4_cell(n: usize) -> ModelCheck {
    assert!(n >= 5, "the Theorem 4 cell needs n >= 5");
    let scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
        .with_starts(vec![0, 1])
        .with_orientations(vec![Handedness::LeftIsCcw, Handedness::LeftIsCcw]);
    // Theorem 3 bounds exploration by 3n − 6; one extra round of slack keeps
    // the bound a strict over-approximation.
    ModelCheck::new(scenario, Objective::Explore, 3 * n as u64)
}

/// Runs every packaged cell for each ring size and returns the report rows
/// (the `model_check` example prints these).
#[must_use]
pub fn model_check_rows(sizes: &[usize]) -> Vec<RowResult> {
    let mut rows = Vec::new();
    for &n in sizes {
        for cell in infeasibility_cells(n) {
            rows.push(cell.row());
        }
    }
    rows
}

/// Cross-validation of the hand-scripted Figure 2 schedule against the
/// exhaustive search (satellite of the Theorem 4 rewiring): the discovered
/// worst schedule must be **at least as strong** as the hand script.
///
/// Returns `(discovered_worst_round, scripted_round)`.
///
/// # Panics
///
/// Panics (with a diff of the two schedules) if the hand script outlasts the
/// exhaustively discovered worst case — that would mean the script is not a
/// valid lower-bound pin.
#[must_use]
pub fn cross_validate_figure2(n: usize) -> (u64, u64) {
    let cell = theorem4_cell(n);
    let verdict = cell.run();
    let proof = verdict
        .feasible()
        .unwrap_or_else(|| panic!("Theorem 4 cell must be feasible at n={n}"));
    let scripted = figures::figure2(n);
    let scripted_round = scripted.explored_at.expect("Figure 2 explores");
    assert!(
        proof.worst_round >= scripted_round,
        "hand-scripted Figure 2 schedule is stronger than the exhaustive worst case at n={n}:\n  \
         scripted explores at round {scripted_round}, search worst round {}\n  \
         scripted schedule: {:?}\n  discovered schedule: {:?}",
        proof.worst_round,
        figures::figure2_schedule(&RingTopology::new(n).expect("valid ring")),
        proof.worst_schedule,
    );
    (proof.worst_round, scripted_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_check_n_parser_accepts_ring_sizes() {
        assert_eq!(parse_max_check_n("8"), Ok(8));
        assert_eq!(parse_max_check_n(" 10 "), Ok(10));
        assert_eq!(parse_max_check_n("4"), Ok(4));
    }

    #[test]
    fn max_check_n_parser_rejects_garbage() {
        for garbage in ["", "zero", "-3", "8.5", "0x10", "1e3"] {
            let err = parse_max_check_n(garbage).unwrap_err();
            assert!(
                err.contains("not a positive integer ring size"),
                "{garbage:?} should be rejected as non-integer, got: {err}"
            );
        }
        for too_small in ["0", "1", "3"] {
            let err = parse_max_check_n(too_small).unwrap_err();
            assert!(
                err.contains("smallest exhaustively checkable ring"),
                "{too_small:?} should be rejected as too small, got: {err}"
            );
        }
    }

    #[test]
    fn mc_threads_parser_rejects_garbage() {
        // `DYNRING_MC_THREADS` reuses the strict `DYNRING_THREADS` grammar.
        assert!(parse_thread_count("0").is_err());
        assert!(parse_thread_count("four").is_err());
        assert_eq!(parse_thread_count("4"), Ok(4));
    }

    #[test]
    fn key_table_dedups_and_survives_clear() {
        let mut table = KeyTable::default();
        assert!(table.insert(b"alpha"));
        assert!(table.insert(b"beta"));
        assert!(!table.insert(b"alpha"));
        assert_eq!(table.len(), 2);
        table.clear();
        assert_eq!(table.len(), 0);
        assert!(table.insert(b"alpha"), "cleared table must forget entries");
    }

    #[test]
    fn key_table_grows_without_losing_entries() {
        let mut table = KeyTable::default();
        // Insert enough distinct keys to force several grows past the 7/8
        // load factor, then verify every key is still found (byte-exactly).
        for i in 0u32..10_000 {
            assert!(table.insert(&i.to_le_bytes()), "key {i} should be new");
        }
        for i in 0u32..10_000 {
            assert!(!table.insert(&i.to_le_bytes()), "key {i} should be found");
        }
        assert_eq!(table.len(), 10_000);
    }

    #[test]
    fn key_table_distinguishes_equal_digest_prefixes() {
        // Keys sharing a long common prefix exercise the exact byte-compare
        // fallback path (and `entry_key`'s slicing of a shared arena).
        let mut table = KeyTable::default();
        assert!(table.insert(b"prefix-0"));
        assert!(table.insert(b"prefix-1"));
        assert!(table.insert(b"prefix"));
        assert!(!table.insert(b"prefix-0"));
        assert!(!table.insert(b"prefix"));
        assert_eq!(table.len(), 3);
    }
}
