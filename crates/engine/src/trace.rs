//! Per-round execution records, stored columnar.
//!
//! A [`Trace`] stores, for every simulated round, which agents were active,
//! which edge was missing, what each agent decided and what happened to it.
//! Traces feed the ASCII renderer, the invariant checker and the experiment
//! reports (e.g. "in which round was the ring explored?").
//!
//! # Columnar layout
//!
//! Recording used to dominate trace-on runs: one `RoundRecord` per round
//! owning two `Vec`s plus one eagerly formatted `state_label: String` per
//! agent. The trace now appends into flat, reusable columns instead:
//!
//! * **per-round columns** — round number, missing edge, visited count, and
//!   offsets into the flat active-set and agent-entry columns;
//! * **per-agent-entry columns** — the start node, a packed `u16` of
//!   flags/enums (active, terminated, held port, decision, outcome, move
//!   delta), and a state-label id;
//! * **delta-encoded movement** — the landing node is stored as a 2-bit code
//!   (stayed / one step ccw / one step cw) relative to the start node; only
//!   a landing that is none of those (hand-built records on an unknown ring)
//!   spills an explicit `NodeId` to a side table;
//! * **interned state labels** — the engine never calls
//!   [`state_label`](dynring_model::Protocol::state_label) while
//!   recording. Protocol state only changes inside `decide`, so a new label
//!   entry (a cheap in-place program snapshot through
//!   [`Protocol::clone_from_box`]) is taken only for agents that computed
//!   this round; every other entry reuses the agent's previous label id. A
//!   fresh trace takes its snapshot boxes from the ones dropped traces left
//!   on the thread, so recording does not allocate per label. Labels are
//!   rendered to `String`s lazily, at materialization time.
//!
//! The row-oriented [`RoundRecord`]/[`AgentRoundRecord`] structs survive as a
//! **lazily materialized view**: [`Trace::rounds`] iterates them,
//! [`Trace::round`] finds one by round number through a round-offset index,
//! and the `Debug` representation (which the golden digests of
//! `tests/determinism.rs` pin) is byte-identical to the old eager storage.
//! [`Trace::clear`] keeps every column's capacity (and the label table's
//! slots), so a recycled trace-on run appends without heap allocation.

use dynring_graph::{AgentId, EdgeId, GlobalDirection, NodeId};
use dynring_model::{copy_program, Decision, LocalDirection, PriorOutcome, Protocol};
use std::cell::RefCell;
use std::fmt;

/// What happened to one agent in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentRoundRecord {
    /// The agent.
    pub id: AgentId,
    /// Whether it was active this round.
    pub active: bool,
    /// Node at the beginning of the round.
    pub node_before: NodeId,
    /// Node at the end of the round.
    pub node_after: NodeId,
    /// Port held at the end of the round (global direction), if any.
    pub held_port_after: Option<GlobalDirection>,
    /// The decision taken (None if the agent was asleep or already terminated).
    pub decision: Option<Decision>,
    /// The outcome as it will be reported to the agent at its next activation.
    pub outcome: PriorOutcome,
    /// Whether the agent is terminated at the end of the round.
    pub terminated: bool,
    /// Protocol state label after the round.
    pub state_label: String,
}

/// Everything that happened in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// The (1-based) round number.
    pub round: u64,
    /// The edge the adversary removed, if any.
    pub missing_edge: Option<EdgeId>,
    /// The agents activated by the scheduler.
    pub active: Vec<AgentId>,
    /// Per-agent records, ordered by agent id.
    pub agents: Vec<AgentRoundRecord>,
    /// Number of distinct nodes visited by the union of all agents after this
    /// round.
    pub visited_count: usize,
}

impl RoundRecord {
    /// The record of a specific agent. Engine-recorded rounds hold one record
    /// per agent in id order, so the id doubles as the index and the common
    /// case is a direct lookup; hand-built records fall back to a scan.
    #[must_use]
    pub fn agent(&self, id: AgentId) -> Option<&AgentRoundRecord> {
        if let Some(record) = self.agents.get(id.index()) {
            if record.id == id {
                return Some(record);
            }
        }
        if let Ok(index) = self.agents.binary_search_by_key(&id, |a| a.id) {
            return Some(&self.agents[index]);
        }
        self.agents.iter().find(|a| a.id == id)
    }

    /// Number of successful traversals (moves or passive transports) in this
    /// round.
    #[must_use]
    pub fn traversals(&self) -> usize {
        self.agents
            .iter()
            .filter(|a| matches!(a.outcome, PriorOutcome::Moved | PriorOutcome::Transported))
            .count()
    }
}

// Bit layout of one packed per-agent entry (low to high).
const ACTIVE_BIT: u16 = 1;
const TERMINATED_BIT: u16 = 1 << 1;
const PORT_SHIFT: u16 = 2; // 2 bits: 0 none, 1 ccw, 2 cw
const DECISION_SHIFT: u16 = 4; // 3 bits: 0 none, 1 left, 2 right, 3 stay, 4 retreat, 5 terminate
const OUTCOME_SHIFT: u16 = 7; // 3 bits: PriorOutcome discriminant
const MOVE_SHIFT: u16 = 10; // 2 bits: 0 stayed, 1 +1 mod n, 2 -1 mod n, 3 spilled
const FIELD2: u16 = 0b11;
const FIELD3: u16 = 0b111;
const MOVE_STAY: u16 = 0;
const MOVE_CCW: u16 = 1;
const MOVE_CW: u16 = 2;
const MOVE_SPILL: u16 = 3;

/// Label id sentinel: the agent has no interned label yet (first recorded
/// round, or the cache was invalidated by a checkpoint restore).
const NO_LABEL: u32 = u32::MAX;

/// One slot of the state-label table: either a literal string (hand-built
/// records pushed through [`Trace::push`]) or a snapshot of the agent's
/// program, whose label is formatted only when a view materializes. A
/// reused slot is overwritten in place ([`copy_program`]), so
/// a recycled trace-on run records without heap allocation.
enum LabelEntry {
    Text(String),
    Program(Box<dyn Protocol>),
}

impl LabelEntry {
    fn render(&self) -> String {
        match self {
            LabelEntry::Text(text) => text.clone(),
            LabelEntry::Program(program) => program.state_label(),
        }
    }

    fn clone_entry(&self) -> LabelEntry {
        match self {
            LabelEntry::Text(text) => LabelEntry::Text(text.clone()),
            LabelEntry::Program(program) => LabelEntry::Program(program.clone()),
        }
    }
}

/// Most program snapshots [`SPARE_SNAPSHOTS`] keeps per thread.
const SPARE_SNAPSHOT_CAP: usize = 1 << 14;

thread_local! {
    /// Program snapshots released by dropped traces on this thread, taken by
    /// the next trace that grows its label table: a fresh trace-on run then
    /// copies program state into a warm box instead of allocating one per
    /// label (a malloc/free pair costs about as much as a whole round).
    static SPARE_SNAPSHOTS: RefCell<Vec<Box<dyn Protocol>>> = const { RefCell::new(Vec::new()) };
}

/// A full execution trace, stored columnar (see the module docs).
pub struct Trace {
    // Per-round columns.
    round_no: Vec<u64>,
    missing: Vec<Option<EdgeId>>,
    visited: Vec<usize>,
    /// Start of each round's slice of `active_ids`; the end is the next
    /// round's start (rounds only ever append).
    active_start: Vec<u32>,
    /// Start of each round's slice of the per-agent-entry columns.
    agent_start: Vec<u32>,
    /// Flat concatenation of every round's active set.
    active_ids: Vec<AgentId>,
    // Per-agent-entry columns (one entry per agent per recorded round).
    entry_id: Vec<AgentId>,
    entry_before: Vec<NodeId>,
    entry_packed: Vec<u16>,
    entry_label: Vec<u32>,
    /// Explicit landing nodes for entries whose move code is `MOVE_SPILL`,
    /// keyed by entry index (appended in order, so lookups binary-search).
    spill: Vec<(u32, NodeId)>,
    /// State-label table. Slots past `labels_len` are retained capacity from
    /// a cleared trace, reused in place on the next fill.
    labels: Vec<LabelEntry>,
    labels_len: usize,
    /// Per-agent id of the label recorded last (recorder state; `NO_LABEL`
    /// forces a fresh snapshot).
    last_label: Vec<u32>,
    /// Ring size the move codes are relative to (0 until an engine round is
    /// recorded: hand-built records spill every non-stay landing).
    ring_size: usize,
    /// Round numbers are exactly `1..=len` — lookup is an index.
    dense: bool,
    /// Round numbers are strictly increasing — lookup is a binary search.
    sorted: bool,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            round_no: Vec::new(),
            missing: Vec::new(),
            visited: Vec::new(),
            active_start: Vec::new(),
            agent_start: Vec::new(),
            active_ids: Vec::new(),
            entry_id: Vec::new(),
            entry_before: Vec::new(),
            entry_packed: Vec::new(),
            entry_label: Vec::new(),
            spill: Vec::new(),
            labels: Vec::new(),
            labels_len: 0,
            last_label: Vec::new(),
            ring_size: 0,
            dense: true,
            sorted: true,
        }
    }

    /// Appends a round record (the row-oriented entry point: tests and tools
    /// that build traces by hand; the engine records through the columnar
    /// fast path directly).
    pub fn push(&mut self, record: RoundRecord) {
        self.begin_round(record.round, record.missing_edge, record.visited_count, &record.active);
        for agent in &record.agents {
            let label = self.intern_text(agent.id.index(), &agent.state_label);
            self.push_entry(
                agent.id,
                agent.node_before,
                agent.node_after,
                agent.active,
                agent.terminated,
                agent.held_port_after,
                agent.decision,
                agent.outcome,
                label,
            );
        }
    }

    /// Forgets every recorded round, keeping every column's allocation (and
    /// the label table's slots) so a recycled simulation (see
    /// [`Simulation::recycle`](crate::sim::Simulation::recycle)) can refill
    /// the trace without reallocating.
    pub fn clear(&mut self) {
        self.round_no.clear();
        self.missing.clear();
        self.visited.clear();
        self.active_start.clear();
        self.agent_start.clear();
        self.active_ids.clear();
        self.entry_id.clear();
        self.entry_before.clear();
        self.entry_packed.clear();
        self.entry_label.clear();
        self.spill.clear();
        self.labels_len = 0;
        self.last_label.clear();
        self.ring_size = 0;
        self.dense = true;
        self.sorted = true;
    }

    /// All recorded rounds in order, as lazily materialized [`RoundRecord`]s.
    #[must_use]
    pub fn rounds(&self) -> Rounds<'_> {
        Rounds { trace: self, index: 0 }
    }

    /// The record at a given position (0-based), if recorded.
    #[must_use]
    pub fn round_at(&self, index: usize) -> Option<RoundRecord> {
        (index < self.len()).then(|| self.materialize(index))
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.round_no.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.round_no.is_empty()
    }

    /// The record of a given (1-based) round, if recorded. Engine traces are
    /// dense (`1..=len`) and resolve in O(1) through the offset index;
    /// sparse-but-increasing round numbers binary-search; only an
    /// out-of-order trace (e.g. one appended to across checkpoint restores)
    /// falls back to a first-match scan.
    #[must_use]
    pub fn round(&self, round: u64) -> Option<RoundRecord> {
        self.round_index(round).map(|index| self.materialize(index))
    }

    fn round_index(&self, round: u64) -> Option<usize> {
        if self.dense {
            return match round {
                0 => None,
                r if (r as usize) <= self.round_no.len() => Some(r as usize - 1),
                _ => None,
            };
        }
        if self.sorted {
            return self.round_no.binary_search(&round).ok();
        }
        self.round_no.iter().position(|&r| r == round)
    }

    /// The first round in which the union of visited nodes covered the whole
    /// ring of the given size.
    #[must_use]
    pub fn exploration_round(&self, ring_size: usize) -> Option<u64> {
        self.visited.iter().position(|&v| v >= ring_size).map(|index| self.round_no[index])
    }

    /// Total number of edge traversals across all agents and rounds.
    #[must_use]
    pub fn total_traversals(&self) -> usize {
        self.entry_packed
            .iter()
            .filter(|packed| {
                let outcome = (*packed >> OUTCOME_SHIFT) & FIELD3;
                outcome == PriorOutcome::Moved as u16 || outcome == PriorOutcome::Transported as u16
            })
            .count()
    }

    /// Checks the structural invariants of the model over the whole trace,
    /// returning a human-readable description of the first violation.
    ///
    /// The invariants checked are:
    /// 1. at most one edge is missing per round (by construction of the
    ///    record, always true — kept for completeness);
    /// 2. a terminated agent never moves again;
    /// 3. an agent moves by at most one edge per round, and only over a
    ///    present edge;
    /// 4. at most one agent holds any given port at the end of a round.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self, ring_size: usize) -> Result<(), String> {
        let mut terminated: std::collections::HashSet<AgentId> = std::collections::HashSet::new();
        let mut held: std::collections::HashSet<(NodeId, GlobalDirection)> =
            std::collections::HashSet::new();
        for record in self.rounds() {
            for agent in &record.agents {
                if terminated.contains(&agent.id) && agent.node_before != agent.node_after {
                    return Err(format!(
                        "terminated agent {} moved in round {}",
                        agent.id, record.round
                    ));
                }
                let before = agent.node_before.index() as i64;
                let after = agent.node_after.index() as i64;
                let diff = (after - before).rem_euclid(ring_size as i64);
                if diff != 0 && diff != 1 && diff != ring_size as i64 - 1 {
                    return Err(format!(
                        "agent {} jumped from {} to {} in round {}",
                        agent.id, agent.node_before, agent.node_after, record.round
                    ));
                }
                if agent.terminated {
                    terminated.insert(agent.id);
                }
            }
            held.clear();
            for agent in &record.agents {
                if let Some(port) = agent.held_port_after {
                    if !held.insert((agent.node_after, port)) {
                        return Err(format!(
                            "two agents hold the same port of {} in round {}",
                            agent.node_after, record.round
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Records one engine round straight from the round loop's slices — the
    /// columnar fast path: flat appends only, no per-round `Vec`s, no
    /// `state_label` formatting (agents that did not compute reuse their
    /// previous label id; agents that did snapshot their program in place).
    /// Steady-state allocation-free once every column has seen this shape.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_round(
        &mut self,
        round: u64,
        missing_edge: Option<EdgeId>,
        visited_count: usize,
        ring_size: usize,
        active: &[AgentId],
        active_mask: &[bool],
        nodes_before: &[NodeId],
        nodes_after: &[NodeId],
        held_port: &[Option<GlobalDirection>],
        decisions: &[Option<Decision>],
        outcomes: &[PriorOutcome],
        terminated: &[bool],
        programs: &[Box<dyn Protocol>],
    ) {
        self.ring_size = ring_size;
        self.begin_round(round, missing_edge, visited_count, active);
        let count = nodes_after.len();
        if self.last_label.len() < count {
            self.last_label.resize(count, NO_LABEL);
        }
        for index in 0..count {
            // Protocol state mutates only inside `decide`, so an agent that
            // did not compute this round is still in its last recorded state.
            let label = if decisions[index].is_some() || self.last_label[index] == NO_LABEL {
                self.intern_program(index, programs[index].as_ref())
            } else {
                self.last_label[index]
            };
            self.push_entry(
                AgentId::new(index),
                nodes_before[index],
                nodes_after[index],
                active_mask[index],
                terminated[index],
                held_port[index],
                decisions[index],
                outcomes[index],
                label,
            );
        }
    }

    /// Drops the per-agent label cache so the next recorded round snapshots
    /// every program afresh. Called on [`Simulation::restore`]
    /// (crate::sim::Simulation::restore): a restore rewrites program state
    /// outside `decide`, which is the one event the delta encoding cannot
    /// see.
    pub(crate) fn invalidate_label_cache(&mut self) {
        self.last_label.clear();
    }

    fn begin_round(
        &mut self,
        round: u64,
        missing_edge: Option<EdgeId>,
        visited_count: usize,
        active: &[AgentId],
    ) {
        self.dense = self.dense && round == self.round_no.len() as u64 + 1;
        if let Some(&last) = self.round_no.last() {
            self.sorted = self.sorted && round > last;
        }
        self.round_no.push(round);
        self.missing.push(missing_edge);
        self.visited.push(visited_count);
        self.active_start.push(self.active_ids.len() as u32);
        self.active_ids.extend_from_slice(active);
        self.agent_start.push(self.entry_id.len() as u32);
    }

    #[allow(clippy::too_many_arguments)]
    fn push_entry(
        &mut self,
        id: AgentId,
        node_before: NodeId,
        node_after: NodeId,
        active: bool,
        terminated: bool,
        held_port: Option<GlobalDirection>,
        decision: Option<Decision>,
        outcome: PriorOutcome,
        label: u32,
    ) {
        let n = self.ring_size;
        let move_code = if node_after == node_before {
            MOVE_STAY
        } else if n >= 2 && node_after.index() == (node_before.index() + 1) % n {
            MOVE_CCW
        } else if n >= 2 && node_after.index() == (node_before.index() + n - 1) % n {
            MOVE_CW
        } else {
            self.spill.push((self.entry_id.len() as u32, node_after));
            MOVE_SPILL
        };
        let mut packed = move_code << MOVE_SHIFT;
        packed |= (outcome as u16) << OUTCOME_SHIFT;
        packed |= match decision {
            None => 0,
            Some(Decision::Move(LocalDirection::Left)) => 1,
            Some(Decision::Move(LocalDirection::Right)) => 2,
            Some(Decision::Stay) => 3,
            Some(Decision::Retreat) => 4,
            Some(Decision::Terminate) => 5,
        } << DECISION_SHIFT;
        packed |= match held_port {
            None => 0,
            Some(GlobalDirection::Ccw) => 1,
            Some(GlobalDirection::Cw) => 2,
        } << PORT_SHIFT;
        if active {
            packed |= ACTIVE_BIT;
        }
        if terminated {
            packed |= TERMINATED_BIT;
        }
        self.entry_id.push(id);
        self.entry_before.push(node_before);
        self.entry_packed.push(packed);
        self.entry_label.push(label);
    }

    /// Interns a literal label for the push path, reusing the agent's
    /// previous entry when the text is unchanged.
    fn intern_text(&mut self, agent_index: usize, label: &str) -> u32 {
        if self.last_label.len() <= agent_index {
            self.last_label.resize(agent_index + 1, NO_LABEL);
        }
        let previous = self.last_label[agent_index];
        if previous != NO_LABEL {
            if let LabelEntry::Text(text) = &self.labels[previous as usize] {
                if text == label {
                    return previous;
                }
            }
        }
        let id = self.alloc_label();
        match &mut self.labels[id as usize] {
            LabelEntry::Text(text) => {
                text.clear();
                text.push_str(label);
            }
            slot => *slot = LabelEntry::Text(label.to_string()),
        }
        self.last_label[agent_index] = id;
        id
    }

    /// Interns a program snapshot: reuses a cleared table slot in place
    /// when it already holds a program of the same type, so a recycled
    /// rerun of the same scenario never allocates for labels.
    fn intern_program(&mut self, agent_index: usize, program: &dyn Protocol) -> u32 {
        let id = self.labels_len;
        if id == self.labels.len() {
            // Growing past every retained slot: snapshot straight into the
            // push (no placeholder that the slot write would immediately
            // overwrite).
            let spare = SPARE_SNAPSHOTS.with(|spare| spare.borrow_mut().pop());
            let snapshot = match spare {
                Some(mut snapshot) => {
                    copy_program(&mut snapshot, program);
                    snapshot
                }
                None => program.clone_box(),
            };
            self.labels.push(LabelEntry::Program(snapshot));
        } else {
            match &mut self.labels[id] {
                LabelEntry::Program(existing) => copy_program(existing, program),
                slot => *slot = LabelEntry::Program(program.clone_box()),
            }
        }
        self.labels_len += 1;
        self.last_label[agent_index] = id as u32;
        id as u32
    }

    fn alloc_label(&mut self) -> u32 {
        let id = self.labels_len;
        if id == self.labels.len() {
            self.labels.push(LabelEntry::Text(String::new()));
        }
        self.labels_len += 1;
        id as u32
    }

    /// Materializes the row view of the round at `index` (0-based).
    fn materialize(&self, index: usize) -> RoundRecord {
        let active_end =
            self.active_start.get(index + 1).map_or(self.active_ids.len(), |&end| end as usize);
        let entry_end =
            self.agent_start.get(index + 1).map_or(self.entry_id.len(), |&end| end as usize);
        let entries = self.agent_start[index] as usize..entry_end;
        RoundRecord {
            round: self.round_no[index],
            missing_edge: self.missing[index],
            active: self.active_ids[self.active_start[index] as usize..active_end].to_vec(),
            agents: entries.map(|entry| self.materialize_entry(entry)).collect(),
            visited_count: self.visited[index],
        }
    }

    fn materialize_entry(&self, entry: usize) -> AgentRoundRecord {
        let packed = self.entry_packed[entry];
        let node_before = self.entry_before[entry];
        let n = self.ring_size;
        let node_after = match (packed >> MOVE_SHIFT) & FIELD2 {
            MOVE_STAY => node_before,
            MOVE_CCW => NodeId::new((node_before.index() + 1) % n),
            MOVE_CW => NodeId::new((node_before.index() + n - 1) % n),
            _ => {
                let slot = self
                    .spill
                    .binary_search_by_key(&(entry as u32), |&(at, _)| at)
                    .expect("spilled landing node recorded for this entry");
                self.spill[slot].1
            }
        };
        AgentRoundRecord {
            id: self.entry_id[entry],
            active: packed & ACTIVE_BIT != 0,
            node_before,
            node_after,
            held_port_after: match (packed >> PORT_SHIFT) & FIELD2 {
                0 => None,
                1 => Some(GlobalDirection::Ccw),
                _ => Some(GlobalDirection::Cw),
            },
            decision: match (packed >> DECISION_SHIFT) & FIELD3 {
                0 => None,
                1 => Some(Decision::Move(LocalDirection::Left)),
                2 => Some(Decision::Move(LocalDirection::Right)),
                3 => Some(Decision::Stay),
                4 => Some(Decision::Retreat),
                _ => Some(Decision::Terminate),
            },
            outcome: match (packed >> OUTCOME_SHIFT) & FIELD3 {
                0 => PriorOutcome::Idle,
                1 => PriorOutcome::Moved,
                2 => PriorOutcome::BlockedOnPort,
                3 => PriorOutcome::PortAcquisitionFailed,
                _ => PriorOutcome::Transported,
            },
            terminated: packed & TERMINATED_BIT != 0,
            state_label: self.labels[self.entry_label[entry] as usize].render(),
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        // `try_with`: a trace dropped during thread teardown just frees.
        let _ = SPARE_SNAPSHOTS.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let room = SPARE_SNAPSHOT_CAP.saturating_sub(spare.len());
            spare.extend(
                self.labels
                    .drain(..)
                    .filter_map(|entry| match entry {
                        LabelEntry::Program(snapshot) => Some(snapshot),
                        LabelEntry::Text(_) => None,
                    })
                    .take(room),
            );
        });
    }
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            round_no: self.round_no.clone(),
            missing: self.missing.clone(),
            visited: self.visited.clone(),
            active_start: self.active_start.clone(),
            agent_start: self.agent_start.clone(),
            active_ids: self.active_ids.clone(),
            entry_id: self.entry_id.clone(),
            entry_before: self.entry_before.clone(),
            entry_packed: self.entry_packed.clone(),
            entry_label: self.entry_label.clone(),
            spill: self.spill.clone(),
            labels: self.labels[..self.labels_len].iter().map(LabelEntry::clone_entry).collect(),
            labels_len: self.labels_len,
            last_label: self.last_label.clone(),
            ring_size: self.ring_size,
            dense: self.dense,
            sorted: self.sorted,
        }
    }
}

/// Byte-identical to the derived `Debug` of the historical row-of-structs
/// storage (`Trace { rounds: [...] }`) — the golden digests in
/// `tests/determinism.rs` hash this representation.
impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rounds: Vec<RoundRecord> = self.rounds().collect();
        f.debug_struct("Trace").field("rounds", &rounds).finish()
    }
}

/// Two traces are equal when they materialize to the same round records —
/// the label representation (literal vs program snapshot) is unobservable.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rounds().eq(other.rounds())
    }
}

impl Eq for Trace {}

/// Iterator over a trace's rounds as materialized [`RoundRecord`]s (see
/// [`Trace::rounds`]).
pub struct Rounds<'a> {
    trace: &'a Trace,
    index: usize,
}

impl Iterator for Rounds<'_> {
    type Item = RoundRecord;

    fn next(&mut self) -> Option<RoundRecord> {
        let record = self.trace.round_at(self.index)?;
        self.index += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.trace.len() - self.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Rounds<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64, visited: usize) -> RoundRecord {
        RoundRecord {
            round,
            missing_edge: None,
            active: vec![AgentId::new(0)],
            agents: vec![AgentRoundRecord {
                id: AgentId::new(0),
                active: true,
                node_before: NodeId::new(0),
                node_after: NodeId::new(1),
                held_port_after: None,
                decision: Some(Decision::Move(LocalDirection::Right)),
                outcome: PriorOutcome::Moved,
                terminated: false,
                state_label: "Init".to_string(),
            }],
            visited_count: visited,
        }
    }

    #[test]
    fn trace_accumulates_rounds() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(record(1, 2));
        t.push(record(2, 3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.round(2).unwrap().visited_count, 3);
        assert_eq!(t.exploration_round(3), Some(2));
        assert_eq!(t.exploration_round(9), None);
        assert_eq!(t.total_traversals(), 2);
        assert_eq!(t.round_at(0).unwrap().traversals(), 1);
        assert!(t.round_at(0).unwrap().agent(AgentId::new(0)).is_some());
    }

    #[test]
    fn pushed_records_materialize_identically() {
        let mut t = Trace::new();
        let mut second = record(2, 3);
        second.missing_edge = Some(EdgeId::new(4));
        second.agents[0].held_port_after = Some(GlobalDirection::Cw);
        second.agents[0].decision = Some(Decision::Retreat);
        second.agents[0].outcome = PriorOutcome::BlockedOnPort;
        second.agents[0].state_label = "Blocked".to_string();
        t.push(record(1, 2));
        t.push(second.clone());
        assert_eq!(t.round_at(0).unwrap(), record(1, 2));
        assert_eq!(t.round_at(1).unwrap(), second);
        assert_eq!(t.rounds().len(), 2);
        let rounds: Vec<RoundRecord> = t.rounds().collect();
        assert_eq!(rounds, vec![record(1, 2), second]);
    }

    #[test]
    fn round_lookup_handles_sparse_numbering() {
        let mut t = Trace::new();
        t.push(record(2, 2));
        t.push(record(5, 3));
        t.push(record(9, 4));
        assert_eq!(t.round(5).unwrap().visited_count, 3);
        assert_eq!(t.round(9).unwrap().visited_count, 4);
        assert!(t.round(1).is_none());
        assert!(t.round(3).is_none());
        assert!(t.round(10).is_none());
    }

    #[test]
    fn round_lookup_handles_out_of_order_numbering() {
        // A restored trace-on simulation appends rounds from every branch,
        // so numbers may repeat or decrease; lookup is first-match.
        let mut t = Trace::new();
        t.push(record(1, 2));
        t.push(record(2, 3));
        t.push(record(2, 4));
        t.push(record(1, 5));
        assert_eq!(t.round(1).unwrap().visited_count, 2);
        assert_eq!(t.round(2).unwrap().visited_count, 3);
        assert!(t.round(3).is_none());
    }

    #[test]
    fn dense_lookup_rejects_round_zero_and_overflow() {
        let mut t = Trace::new();
        t.push(record(1, 2));
        t.push(record(2, 3));
        assert!(t.round(0).is_none());
        assert_eq!(t.round(1).unwrap().round, 1);
        assert!(t.round(3).is_none());
    }

    #[test]
    fn clear_resets_and_allows_refill() {
        let mut t = Trace::new();
        t.push(record(1, 2));
        t.push(record(2, 3));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.round(1).is_none());
        assert_eq!(t.total_traversals(), 0);
        t.push(record(1, 4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.round(1).unwrap().visited_count, 4);
        assert_eq!(t.round_at(0).unwrap().agents[0].state_label, "Init");
    }

    #[test]
    fn debug_matches_row_of_structs_form() {
        let mut t = Trace::new();
        t.push(record(1, 2));
        let rounds = vec![record(1, 2)];
        // The historical storage derived Debug over a single `rounds` field;
        // the golden digests pin this exact rendering.
        struct Old<'a> {
            rounds: &'a [RoundRecord],
        }
        impl fmt::Debug for Old<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("Trace").field("rounds", &self.rounds).finish()
            }
        }
        assert_eq!(format!("{t:?}"), format!("{:?}", Old { rounds: &rounds }));
        assert_eq!(format!("{t:#?}"), format!("{:#?}", Old { rounds: &rounds }));
    }

    #[test]
    fn equality_is_view_equality() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.push(record(1, 2));
        b.push(record(1, 2));
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        b.push(record(2, 3));
        assert_ne!(a, b);
        assert_eq!(Trace::new(), Trace::default());
    }

    #[test]
    fn invariants_accept_legal_traces() {
        let mut t = Trace::new();
        t.push(record(1, 2));
        assert!(t.check_invariants(6).is_ok());
    }

    #[test]
    fn invariants_reject_teleportation() {
        let mut t = Trace::new();
        let mut r = record(1, 2);
        r.agents[0].node_after = NodeId::new(3);
        t.push(r);
        let err = t.check_invariants(8).unwrap_err();
        assert!(err.contains("jumped"));
    }

    #[test]
    fn invariants_reject_moving_after_termination() {
        let mut t = Trace::new();
        let mut r1 = record(1, 2);
        r1.agents[0].terminated = true;
        r1.agents[0].node_after = r1.agents[0].node_before;
        t.push(r1);
        let mut r2 = record(2, 2);
        r2.agents[0].terminated = true;
        t.push(r2);
        let err = t.check_invariants(8).unwrap_err();
        assert!(err.contains("terminated"));
    }

    #[test]
    fn invariants_reject_shared_ports() {
        let mut t = Trace::new();
        let mut r = record(1, 2);
        let mut second = r.agents[0].clone();
        second.id = AgentId::new(1);
        second.node_after = r.agents[0].node_after;
        second.held_port_after = Some(GlobalDirection::Ccw);
        r.agents[0].held_port_after = Some(GlobalDirection::Ccw);
        r.agents.push(second);
        t.push(r);
        let err = t.check_invariants(8).unwrap_err();
        assert!(err.contains("same port"));
    }

    /// Minimal protocol so the engine-facing encoder tests can hand real
    /// programs to `record_round`.
    #[derive(Debug, Clone)]
    struct Probe;
    impl dynring_model::Protocol for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn termination_kind(&self) -> dynring_model::TerminationKind {
            dynring_model::TerminationKind::Unconscious
        }
        fn decide(&mut self, _snapshot: &dynring_model::Snapshot) -> Decision {
            Decision::Stay
        }
        fn has_terminated(&self) -> bool {
            false
        }
        fn clone_box(&self) -> Box<dyn dynring_model::Protocol> {
            Box::new(self.clone())
        }
    }

    /// Drives one round through the engine-facing delta encoder — the
    /// columnar fast path the simulation uses, not the `push` compatibility
    /// path — so the invariant checker is proven against entries that went
    /// through move-code packing, spill and label interning.
    fn record_engine_round(
        t: &mut Trace,
        round: u64,
        ring_size: usize,
        before: &[usize],
        after: &[usize],
        held: &[Option<GlobalDirection>],
        terminated: &[bool],
    ) {
        let count = before.len();
        let active: Vec<AgentId> =
            (0..count).filter(|&i| !terminated[i]).map(AgentId::new).collect();
        let active_mask: Vec<bool> = terminated.iter().map(|t| !t).collect();
        let nodes_before: Vec<NodeId> = before.iter().copied().map(NodeId::new).collect();
        let nodes_after: Vec<NodeId> = after.iter().copied().map(NodeId::new).collect();
        let decisions: Vec<Option<Decision>> = active_mask
            .iter()
            .map(|&live| if live { Some(Decision::Move(LocalDirection::Right)) } else { None })
            .collect();
        let outcomes: Vec<PriorOutcome> = before
            .iter()
            .zip(after)
            .map(|(b, a)| if b == a { PriorOutcome::Idle } else { PriorOutcome::Moved })
            .collect();
        let programs: Vec<Box<dyn Protocol>> =
            (0..count).map(|_| Box::new(Probe) as Box<dyn Protocol>).collect();
        t.record_round(
            round,
            None,
            2,
            ring_size,
            &active,
            &active_mask,
            &nodes_before,
            &nodes_after,
            held,
            &decisions,
            &outcomes,
            terminated,
            &programs,
        );
    }

    #[test]
    fn encoder_accepts_legal_unit_moves_in_both_directions() {
        // 0 → 1 is the +1 (ccw) move code, 1 → 0 the −1 (cw) code, and the
        // wrap 0 → 7 on an 8-ring exercises the modular delta.
        let mut t = Trace::new();
        record_engine_round(&mut t, 1, 8, &[0, 1], &[1, 0], &[None, None], &[false, false]);
        record_engine_round(&mut t, 2, 8, &[1, 0], &[0, 7], &[None, None], &[false, false]);
        assert!(t.check_invariants(8).is_ok());
        let rounds: Vec<RoundRecord> = t.rounds().collect();
        assert_eq!(rounds[0].agents[0].node_after, NodeId::new(1));
        assert_eq!(rounds[1].agents[1].node_after, NodeId::new(7));
    }

    #[test]
    fn encoder_preserves_teleports_for_the_checker() {
        // A two-edge jump does not fit the 2-bit move code: it must spill an
        // explicit landing node and still reach the checker intact.
        let mut t = Trace::new();
        record_engine_round(&mut t, 1, 8, &[0], &[3], &[None], &[false]);
        let err = t.check_invariants(8).unwrap_err();
        assert!(err.contains("jumped"), "{err}");
    }

    #[test]
    fn encoder_preserves_post_termination_moves_for_the_checker() {
        let mut t = Trace::new();
        record_engine_round(&mut t, 1, 8, &[2], &[2], &[None], &[true]);
        record_engine_round(&mut t, 2, 8, &[2], &[3], &[None], &[true]);
        let err = t.check_invariants(8).unwrap_err();
        assert!(err.contains("terminated"), "{err}");
    }

    #[test]
    fn encoder_preserves_shared_ports_for_the_checker() {
        let mut t = Trace::new();
        record_engine_round(
            &mut t,
            1,
            8,
            &[4, 4],
            &[4, 4],
            &[Some(GlobalDirection::Ccw), Some(GlobalDirection::Ccw)],
            &[false, false],
        );
        let err = t.check_invariants(8).unwrap_err();
        assert!(err.contains("same port"), "{err}");
    }

    #[test]
    fn agent_lookup_survives_gapped_ids() {
        let mut r = record(1, 2);
        let mut second = r.agents[0].clone();
        second.id = AgentId::new(7);
        r.agents.push(second);
        assert_eq!(r.agent(AgentId::new(0)).unwrap().id, AgentId::new(0));
        assert_eq!(r.agent(AgentId::new(7)).unwrap().id, AgentId::new(7));
        assert!(r.agent(AgentId::new(3)).is_none());
    }
}
