//! Edge-removal policies: which edge (if any) is missing in each round.
//!
//! The 1-interval-connectivity assumption allows the adversary to remove at
//! most one edge per round. Besides benign and random dynamics, this module
//! implements the adversaries used in the paper's proofs:
//!
//! | Policy | Paper | Purpose |
//! |---|---|---|
//! | [`NoRemoval`] | — | static ring (baseline) |
//! | [`FromSchedule`] | Fig. 2 etc. | replay a scripted schedule |
//! | [`BlockEdgeForever`] | — | a permanently missing edge |
//! | [`RandomEdge`] / [`StickyRandomEdge`] | — | randomised dynamics for sweeps |
//! | [`BlockAgent`] | Observation 1 | a single agent can never leave its node |
//! | [`PreventMeeting`] | Observation 2 | two agents never meet |
//! | [`BlockFirstMover`] | Theorem 9 | NS impossibility (with [`FirstMoverOnly`](crate::scheduler::FirstMoverOnly)) |
//! | [`ConfineWindow`] | Theorems 13 / 15 | confine the agents to a window, forcing `Ω(N·n)` traversals |
//! | [`AlternatingBlock`] | Theorem 19 | make two rings indistinguishable in ET |

use crate::world::{PredictedAction, RoundView};
use dynring_graph::{AgentId, EdgeId, EdgeSchedule, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Chooses the missing edge of the next round.
///
/// The engine validates the choice (the edge must exist); returning `None`
/// leaves every edge present.
pub trait EdgePolicy: Send {
    /// A short name for traces and reports.
    fn name(&self) -> &'static str;

    /// Selects the edge to remove, given the adversary-visible view and the
    /// set of agents that will be active this round.
    fn select(&mut self, view: &RoundView<'_>, active: &[AgentId]) -> Option<EdgeId>;

    /// Whether [`select`](EdgePolicy::select) ever reads
    /// [`AgentView::predicted`](crate::world::AgentView::predicted).
    ///
    /// Predicting a decision means dry-running every live protocol each
    /// round; policies that never look at the predictions should return
    /// `false` so the engine can skip that work (the `predicted` field then
    /// reports `Stay` for live agents). The answer must be constant over the
    /// policy's lifetime. Defaults to `true` (the conservative choice for
    /// omniscient proof adversaries).
    fn needs_predictions(&self) -> bool {
        true
    }

    /// Whether [`select`](EdgePolicy::select) reads the predictions of
    /// agents **outside the active set**. Policies that filter on the
    /// active set before touching
    /// [`AgentView::predicted`](crate::world::AgentView::predicted) (every
    /// "block-the-mover" adversary of the paper) should return `false`:
    /// under SSYNC the engine then skips the probe dry run for sleeping
    /// agents, whose `predicted` field reports [`PredictedAction::Stay`].
    /// Only consulted when [`needs_predictions`](EdgePolicy::needs_predictions)
    /// is `true`; the answer must be constant over the policy's lifetime.
    /// Defaults to `true` (sleepers are predicted too).
    fn needs_sleeper_predictions(&self) -> bool {
        true
    }

    /// Restores the policy to its as-constructed state, so a recycled
    /// simulation (see [`Simulation::recycle`](crate::sim::Simulation::recycle))
    /// replays exactly as a freshly built one. Stateful policies (episode
    /// counters, seeded RNGs) **must** implement this — a seeded policy
    /// restores the RNG from its original seed; the default no-op is only
    /// correct for stateless policies.
    fn reset(&mut self) {}

    /// How many rounds, starting with round `round`, the policy declares it
    /// removes nothing — a promise the engine may use to jump a cruise
    /// window (see `docs/ARCHITECTURE.md`, "Cruise windows") across those
    /// rounds in one step instead of calling
    /// [`select`](EdgePolicy::select) once per round. After a non-zero
    /// answer the engine either calls [`skip_quiet`](EdgePolicy::skip_quiet)
    /// with at most that many rounds or resumes calling `select` at `round`;
    /// both must leave the policy exactly where the same number of `select`
    /// calls returning `None` would.
    ///
    /// The engine only jumps rounds in which every live agent is alone at
    /// its node, is active and moves, and it never jumps over a round after
    /// which two agents would stand on one node. A policy whose `select`
    /// returns `None` under those conditions may declare them quiet even if
    /// it is not edge-free in general.
    ///
    /// The default (`0`) declares nothing quiet, so the engine calls
    /// `select` every round.
    fn quiet_rounds(&mut self, round: u64, ring_size: usize) -> u64 {
        let _ = (round, ring_size);
        0
    }

    /// Advances the policy over `rounds` rounds that a preceding
    /// [`quiet_rounds`](EdgePolicy::quiet_rounds) call declared quiet, as
    /// if [`select`](EdgePolicy::select) had been called (and had returned
    /// `None`) once per round. The default does nothing, which is right for
    /// policies whose `select` keeps no per-round state.
    fn skip_quiet(&mut self, rounds: u64) {
        let _ = rounds;
    }
}

/// Never removes an edge (static ring).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRemoval;

impl EdgePolicy for NoRemoval {
    fn name(&self) -> &'static str {
        "no-removal"
    }

    fn select(&mut self, _view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        None
    }

    fn needs_predictions(&self) -> bool {
        false
    }

    fn quiet_rounds(&mut self, _round: u64, _ring_size: usize) -> u64 {
        u64::MAX
    }
}

/// Replays a fixed [`EdgeSchedule`] (e.g. the hand-crafted worst cases of the
/// paper's figures).
///
/// The schedule is held behind an [`Arc`], so a battery that replays the same
/// scripted schedule in thousands of cells shares one allocation instead of
/// deep-copying the removal list per build (accepting a plain
/// [`EdgeSchedule`] by value still works through the `Into` bound).
#[derive(Debug, Clone)]
pub struct FromSchedule {
    schedule: Arc<EdgeSchedule>,
}

impl FromSchedule {
    /// Wraps a fixed schedule (owned or already shared).
    #[must_use]
    pub fn new(schedule: impl Into<Arc<EdgeSchedule>>) -> Self {
        FromSchedule { schedule: schedule.into() }
    }
}

impl EdgePolicy for FromSchedule {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn select(&mut self, view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        self.schedule.missing_at(view.round)
    }

    fn needs_predictions(&self) -> bool {
        false
    }
}

/// Removes the same edge in every round, forever.
#[derive(Debug, Clone, Copy)]
pub struct BlockEdgeForever {
    edge: EdgeId,
}

impl BlockEdgeForever {
    /// Blocks `edge` permanently.
    #[must_use]
    pub fn new(edge: EdgeId) -> Self {
        BlockEdgeForever { edge }
    }
}

impl EdgePolicy for BlockEdgeForever {
    fn name(&self) -> &'static str {
        "block-edge-forever"
    }

    fn select(&mut self, _view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        Some(self.edge)
    }

    fn needs_predictions(&self) -> bool {
        false
    }
}

/// Removes a uniformly random edge with probability `p` each round.
#[derive(Debug, Clone)]
pub struct RandomEdge {
    probability: f64,
    seed: u64,
    rng: StdRng,
}

impl RandomEdge {
    /// Creates the policy with removal probability `p` (clamped to `[0, 1]`)
    /// and RNG seed.
    #[must_use]
    pub fn new(probability: f64, seed: u64) -> Self {
        RandomEdge {
            probability: probability.clamp(0.0, 1.0),
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl EdgePolicy for RandomEdge {
    fn name(&self) -> &'static str {
        "random-edge"
    }

    fn select(&mut self, view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        if self.rng.gen_bool(self.probability) {
            Some(EdgeId::new(self.rng.gen_range(0..view.ring.size())))
        } else {
            None
        }
    }

    fn needs_predictions(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Removes a random edge and keeps it removed for a random number of rounds
/// before switching to another (or to none). Produces the "long blocks"
/// dynamics under which the bounce/reverse logic of the algorithms is
/// actually exercised.
#[derive(Debug, Clone)]
pub struct StickyRandomEdge {
    min_hold: u64,
    max_hold: u64,
    present_probability: f64,
    current: Option<EdgeId>,
    remaining: u64,
    seed: u64,
    rng: StdRng,
}

impl StickyRandomEdge {
    /// Creates the policy: each "episode" removes one random edge (or, with
    /// probability `present_probability`, no edge) for a number of rounds
    /// drawn uniformly from `[min_hold, max_hold]`.
    #[must_use]
    pub fn new(min_hold: u64, max_hold: u64, present_probability: f64, seed: u64) -> Self {
        StickyRandomEdge {
            min_hold: min_hold.max(1),
            max_hold: max_hold.max(min_hold.max(1)),
            present_probability: present_probability.clamp(0.0, 1.0),
            current: None,
            remaining: 0,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl StickyRandomEdge {
    /// Draws the next episode if the current one is used up — exactly the
    /// draws [`select`](EdgePolicy::select) makes at the start of a round.
    fn ensure_episode(&mut self, ring_size: usize) {
        if self.remaining == 0 {
            self.remaining = self.rng.gen_range(self.min_hold..=self.max_hold);
            self.current = if self.rng.gen_bool(self.present_probability) {
                None
            } else {
                Some(EdgeId::new(self.rng.gen_range(0..ring_size)))
            };
        }
    }
}

impl EdgePolicy for StickyRandomEdge {
    fn name(&self) -> &'static str {
        "sticky-random-edge"
    }

    fn select(&mut self, view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        self.ensure_episode(view.ring.size());
        self.remaining -= 1;
        self.current
    }

    fn needs_predictions(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.current = None;
        self.remaining = 0;
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    /// The rest of the current episode when it removes no edge. A used-up
    /// episode is replaced first, lazily, with the draws `select` would
    /// make at the start of `round`; a later `select` then plays that same
    /// episode.
    fn quiet_rounds(&mut self, _round: u64, ring_size: usize) -> u64 {
        self.ensure_episode(ring_size);
        if self.current.is_none() {
            self.remaining
        } else {
            0
        }
    }

    fn skip_quiet(&mut self, rounds: u64) {
        debug_assert!(self.current.is_none() && rounds <= self.remaining);
        self.remaining -= rounds;
    }
}

/// Observation 1: always remove the edge the target agent is about to cross,
/// so it can never leave its starting node.
#[derive(Debug, Clone, Copy)]
pub struct BlockAgent {
    agent: AgentId,
}

impl BlockAgent {
    /// Targets the given agent.
    #[must_use]
    pub fn new(agent: AgentId) -> Self {
        BlockAgent { agent }
    }
}

impl EdgePolicy for BlockAgent {
    fn name(&self) -> &'static str {
        "block-agent"
    }

    fn select(&mut self, view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        view.agent(self.agent).and_then(|a| a.predicted.target_edge())
    }
}

/// Theorem 9: remove the edge of the single activated would-be mover (to be
/// paired with [`FirstMoverOnly`](crate::scheduler::FirstMoverOnly)); more
/// generally, of the active mover that has been passive the longest.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockFirstMover;

impl EdgePolicy for BlockFirstMover {
    fn name(&self) -> &'static str {
        "block-first-mover"
    }

    fn select(&mut self, view: &RoundView<'_>, active: &[AgentId]) -> Option<EdgeId> {
        view.agents
            .iter()
            .filter(|a| !a.terminated && active.contains(&a.id) && a.predicted.is_move())
            .min_by_key(|a| (a.last_active_round, a.id))
            .and_then(|a| a.predicted.target_edge())
    }

    fn needs_sleeper_predictions(&self) -> bool {
        false
    }
}

/// Observation 2: prevent two agents from ever meeting (or catching each
/// other) by removing, when necessary, the edge over which a mover would
/// reach a node occupied by the other agent.
#[derive(Debug, Clone, Default)]
pub struct PreventMeeting {
    /// Scratch buffer of this round's movers `(id, destination, edge)`,
    /// reused across rounds so the steady-state round loop stays
    /// allocation-free even with this omniscient adversary installed.
    movers: Vec<(AgentId, NodeId, EdgeId)>,
}

impl PreventMeeting {
    /// Creates the adversary.
    #[must_use]
    pub fn new() -> Self {
        PreventMeeting::default()
    }
}

impl EdgePolicy for PreventMeeting {
    fn name(&self) -> &'static str {
        "prevent-meeting"
    }

    fn select(&mut self, view: &RoundView<'_>, active: &[AgentId]) -> Option<EdgeId> {
        let ring = view.ring;
        let agents = view.agents.as_ref();
        self.movers.clear();
        for agent in agents {
            if agent.terminated || !active.contains(&agent.id) {
                continue;
            }
            if let PredictedAction::Move { edge, direction } = agent.predicted {
                self.movers.push((agent.id, ring.neighbor(agent.node, direction), edge));
            }
        }

        // Case 2 of Observation 2: two movers converging on the same node
        // over different edges — removing either one suffices.
        for (i, &(_, dest_i, edge_i)) in self.movers.iter().enumerate() {
            for &(_, dest_j, edge_j) in self.movers.iter().skip(i + 1) {
                if dest_i == dest_j && edge_i != edge_j {
                    return Some(edge_i);
                }
            }
        }

        // Case 1: a mover heading into a node where another agent stays put.
        for &(mover, dest, edge) in &self.movers {
            for other in agents {
                if other.id != mover
                    && !other.terminated
                    && other.node == dest
                    && (!active.contains(&other.id) || !other.predicted.is_move())
                {
                    return Some(edge);
                }
            }
        }
        None
    }

    fn needs_sleeper_predictions(&self) -> bool {
        // Both cases filter on the active set before reading `predicted`
        // (the case-1 disjunction is already true for inactive agents), so
        // a sleeper's placeholder `Stay` can never change the selection.
        false
    }

    /// Every round the engine may jump is quiet here: it only jumps rounds
    /// in which every live agent moves (so case 1 has no agent staying put)
    /// and after which no two agents share a node (so case 2 has no two
    /// movers converging). The selection keeps no state across rounds.
    fn quiet_rounds(&mut self, _round: u64, _ring_size: usize) -> u64 {
        u64::MAX
    }
}

/// Alternates between removing two edges, one per round (used to build the
/// indistinguishability argument of Theorem 19 and general stress tests).
#[derive(Debug, Clone, Copy)]
pub struct AlternatingBlock {
    first: EdgeId,
    second: EdgeId,
}

impl AlternatingBlock {
    /// Alternates between `first` (odd rounds) and `second` (even rounds).
    #[must_use]
    pub fn new(first: EdgeId, second: EdgeId) -> Self {
        AlternatingBlock { first, second }
    }
}

impl EdgePolicy for AlternatingBlock {
    fn name(&self) -> &'static str {
        "alternating-block"
    }

    fn select(&mut self, view: &RoundView<'_>, _active: &[AgentId]) -> Option<EdgeId> {
        if view.round % 2 == 1 {
            Some(self.first)
        } else {
            Some(self.second)
        }
    }

    fn needs_predictions(&self) -> bool {
        false
    }
}

/// Confines the agents to the arc of nodes `[lo, hi]` (walking
/// counter-clockwise from `lo` to `hi`): any attempted move that would leave
/// the window is blocked. This is the core mechanism of the Ω(N·n) / Ω(n²)
/// lower-bound adversaries of Theorems 13 and 15 — inside the window the
/// agents are forced to shuttle back and forth, accumulating edge traversals
/// while the explored region grows by at most one node per "phase".
#[derive(Debug, Clone, Copy)]
pub struct ConfineWindow {
    lo: NodeId,
    hi: NodeId,
}

impl ConfineWindow {
    /// Confines agents to the counter-clockwise arc from `lo` to `hi`
    /// (inclusive).
    #[must_use]
    pub fn new(lo: NodeId, hi: NodeId) -> Self {
        ConfineWindow { lo, hi }
    }

    fn contains(&self, ring_size: usize, node: NodeId) -> bool {
        // Walk CCW from lo to hi; the node is inside if it appears on that arc.
        let span = (self.hi.index() + ring_size - self.lo.index()) % ring_size;
        let offset = (node.index() + ring_size - self.lo.index()) % ring_size;
        offset <= span
    }
}

impl EdgePolicy for ConfineWindow {
    fn name(&self) -> &'static str {
        "confine-window"
    }

    fn select(&mut self, view: &RoundView<'_>, active: &[AgentId]) -> Option<EdgeId> {
        let n = view.ring.size();
        view.agents
            .iter()
            .filter(|a| !a.terminated && active.contains(&a.id))
            .filter_map(|a| match a.predicted {
                PredictedAction::Move { edge, direction } => {
                    let dest = view.ring.neighbor(a.node, direction);
                    if self.contains(n, a.node) && !self.contains(n, dest) {
                        Some(edge)
                    } else {
                        None
                    }
                }
                _ => None,
            })
            .next()
    }

    fn needs_sleeper_predictions(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::AgentView;
    use dynring_graph::{GlobalDirection, Handedness, RingTopology, ScheduleBuilder};

    fn mover(id: usize, node: usize, direction: GlobalDirection, ring: &RingTopology) -> AgentView {
        AgentView {
            id: AgentId::new(id),
            node: NodeId::new(node),
            held_port: None,
            terminated: false,
            handedness: Handedness::LeftIsCcw,
            predicted: PredictedAction::Move {
                edge: ring.edge_towards(NodeId::new(node), direction),
                direction,
            },
            last_active_round: 0,
            asleep_on_port: 0,
            moves: 0,
        }
    }

    fn idler(id: usize, node: usize) -> AgentView {
        AgentView {
            id: AgentId::new(id),
            node: NodeId::new(node),
            held_port: None,
            terminated: false,
            handedness: Handedness::LeftIsCcw,
            predicted: PredictedAction::Stay,
            last_active_round: 0,
            asleep_on_port: 0,
            moves: 0,
        }
    }

    fn all_ids(view: &RoundView<'_>) -> Vec<AgentId> {
        view.agents.iter().map(|a| a.id).collect()
    }

    #[test]
    fn no_removal_and_block_forever() {
        let ring = RingTopology::new(5).unwrap();
        let visited = vec![false; 5];
        let view = RoundView { round: 1, ring: &ring, agents: vec![].into(), visited: &visited };
        assert_eq!(NoRemoval.select(&view, &[]), None);
        assert_eq!(
            BlockEdgeForever::new(EdgeId::new(3)).select(&view, &[]),
            Some(EdgeId::new(3))
        );
    }

    #[test]
    fn scripted_schedule_is_replayed() {
        let ring = RingTopology::new(5).unwrap();
        let schedule =
            ScheduleBuilder::new(&ring).remove_for(EdgeId::new(1), 2).all_present_for(1).build();
        let mut policy = FromSchedule::new(schedule);
        let visited = vec![false; 5];
        for (round, expected) in [(1, Some(EdgeId::new(1))), (2, Some(EdgeId::new(1))), (3, None)] {
            let view = RoundView { round, ring: &ring, agents: vec![].into(), visited: &visited };
            assert_eq!(policy.select(&view, &[]), expected);
        }
    }

    #[test]
    fn block_agent_targets_its_victims_edge() {
        let ring = RingTopology::new(6).unwrap();
        let visited = vec![false; 6];
        let agents = vec![mover(0, 2, GlobalDirection::Ccw, &ring), idler(1, 4)];
        let view = RoundView { round: 1, ring: &ring, agents: agents.into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(BlockAgent::new(AgentId::new(0)).select(&view, &active), Some(EdgeId::new(2)));
        assert_eq!(BlockAgent::new(AgentId::new(1)).select(&view, &active), None);
    }

    #[test]
    fn block_first_mover_prefers_longest_passive() {
        let ring = RingTopology::new(6).unwrap();
        let visited = vec![false; 6];
        let mut a0 = mover(0, 2, GlobalDirection::Ccw, &ring);
        a0.last_active_round = 9;
        let mut a1 = mover(1, 4, GlobalDirection::Cw, &ring);
        a1.last_active_round = 3;
        let view = RoundView { round: 1, ring: &ring, agents: vec![a0, a1].into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(BlockFirstMover.select(&view, &active), Some(EdgeId::new(3)));
    }

    #[test]
    fn prevent_meeting_blocks_convergence_on_a_waiting_agent() {
        let ring = RingTopology::new(6).unwrap();
        let visited = vec![false; 6];
        // Agent 0 at node 2 moves CCW towards node 3 where agent 1 idles.
        let agents = vec![mover(0, 2, GlobalDirection::Ccw, &ring), idler(1, 3)];
        let view = RoundView { round: 1, ring: &ring, agents: agents.into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(PreventMeeting::new().select(&view, &active), Some(EdgeId::new(2)));
    }

    #[test]
    fn prevent_meeting_blocks_two_movers_converging() {
        let ring = RingTopology::new(6).unwrap();
        let visited = vec![false; 6];
        // Agents at nodes 2 and 4 both move towards node 3.
        let agents =
            vec![mover(0, 2, GlobalDirection::Ccw, &ring), mover(1, 4, GlobalDirection::Cw, &ring)];
        let view = RoundView { round: 1, ring: &ring, agents: agents.into(), visited: &visited };
        let active = all_ids(&view);
        let removed = PreventMeeting::new().select(&view, &active);
        assert!(removed == Some(EdgeId::new(2)) || removed == Some(EdgeId::new(3)));
    }

    #[test]
    fn prevent_meeting_lets_harmless_moves_through() {
        let ring = RingTopology::new(6).unwrap();
        let visited = vec![false; 6];
        let agents = vec![mover(0, 2, GlobalDirection::Ccw, &ring), idler(1, 5)];
        let view = RoundView { round: 1, ring: &ring, agents: agents.into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(PreventMeeting::new().select(&view, &active), None);
    }

    #[test]
    fn alternating_block_switches_each_round() {
        let ring = RingTopology::new(5).unwrap();
        let visited = vec![false; 5];
        let mut policy = AlternatingBlock::new(EdgeId::new(0), EdgeId::new(2));
        for round in 1..=4 {
            let view = RoundView { round, ring: &ring, agents: vec![].into(), visited: &visited };
            let expected = if round % 2 == 1 { EdgeId::new(0) } else { EdgeId::new(2) };
            assert_eq!(policy.select(&view, &[]), Some(expected));
        }
    }

    #[test]
    fn confine_window_blocks_escapes_only() {
        let ring = RingTopology::new(8).unwrap();
        let visited = vec![false; 8];
        // Window = nodes 2..5 (CCW arc).
        let mut policy = ConfineWindow::new(NodeId::new(2), NodeId::new(5));
        // Moving within the window is allowed.
        let inside = vec![mover(0, 3, GlobalDirection::Ccw, &ring)];
        let view = RoundView { round: 1, ring: &ring, agents: inside.into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(policy.select(&view, &active), None);
        // Trying to leave over the boundary is blocked.
        let escaping = vec![mover(0, 5, GlobalDirection::Ccw, &ring)];
        let view = RoundView { round: 1, ring: &ring, agents: escaping.into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(policy.select(&view, &active), Some(EdgeId::new(5)));
        // Leaving at the other boundary (CW from node 2) is blocked as well.
        let escaping = vec![mover(0, 2, GlobalDirection::Cw, &ring)];
        let view = RoundView { round: 1, ring: &ring, agents: escaping.into(), visited: &visited };
        let active = all_ids(&view);
        assert_eq!(policy.select(&view, &active), Some(EdgeId::new(1)));
    }

    #[test]
    fn sticky_random_edge_holds_choices() {
        let ring = RingTopology::new(10).unwrap();
        let visited = vec![false; 10];
        let mut policy = StickyRandomEdge::new(3, 3, 0.0, 7);
        let mut last = None;
        let mut switches = 0;
        for round in 1..=12 {
            let view = RoundView { round, ring: &ring, agents: vec![].into(), visited: &visited };
            let choice = policy.select(&view, &[]);
            assert!(choice.is_some());
            if choice != last {
                switches += 1;
                last = choice;
            }
        }
        // With a hold of exactly 3 rounds, at most ceil(12/3) = 4 distinct episodes.
        assert!(switches <= 4, "too many switches: {switches}");
    }

    /// Plays `rounds` rounds of `policy` on `view`'s agents, jumping
    /// declared-quiet stretches whenever `jump(round)` says so (by at most
    /// `jump(round)` rounds), and returns the edge of every round.
    fn edges_with_quiet_jumps(
        policy: &mut dyn EdgePolicy,
        agents: &[AgentView],
        ring: &RingTopology,
        rounds: u64,
        jump: impl Fn(u64) -> u64,
    ) -> Vec<Option<EdgeId>> {
        let visited = vec![true; ring.size()];
        let ids: Vec<AgentId> = agents.iter().map(|a| a.id).collect();
        let mut out = Vec::new();
        let mut round = 1;
        while round <= rounds {
            let wanted = jump(round).min(rounds - round + 1);
            if wanted > 0 {
                let quiet = policy.quiet_rounds(round, ring.size());
                if quiet > 0 {
                    let skipped = quiet.min(wanted);
                    policy.skip_quiet(skipped);
                    out.extend((0..skipped).map(|_| None));
                    round += skipped;
                    continue;
                }
            }
            let view =
                RoundView { round, ring, agents: agents.to_vec().into(), visited: &visited };
            out.push(policy.select(&view, &ids));
            round += 1;
        }
        out
    }

    #[test]
    fn quiet_skips_replay_the_plain_edge_sequence() {
        let ring = RingTopology::new(12).unwrap();
        // Two movers heading the same way never converge, so every round is
        // quiet for the meeting preventer too.
        let agents =
            vec![mover(0, 2, GlobalDirection::Ccw, &ring), mover(1, 7, GlobalDirection::Ccw, &ring)];
        type Make = fn() -> Box<dyn EdgePolicy>;
        let policies: [(&str, Make); 4] = [
            ("no-removal", || Box::new(NoRemoval)),
            ("prevent-meeting", || Box::new(PreventMeeting::new())),
            ("sticky", || Box::new(StickyRandomEdge::new(1, 9, 0.5, 41))),
            ("sticky-long", || Box::new(StickyRandomEdge::new(3, 40, 0.6, 7))),
        ];
        for (name, make) in &policies {
            let plain = edges_with_quiet_jumps(make().as_mut(), &agents, &ring, 600, |_| 0);
            for stride in [1, 2, 3, 5, 64] {
                // Jump on some rounds only, by a varying amount.
                let jump =
                    |round: u64| if round.is_multiple_of(stride) { round % 11 + 1 } else { 0 };
                let mut policy = make();
                let jumped = edges_with_quiet_jumps(policy.as_mut(), &agents, &ring, 600, jump);
                assert_eq!(jumped, plain, "{name}, stride {stride}");
            }
        }
        // Quiet answers only where `select` would remove nothing.
        assert_eq!(NoRemoval.quiet_rounds(1, 12), u64::MAX);
        assert_eq!(PreventMeeting::new().quiet_rounds(1, 12), u64::MAX);
        assert_eq!(RandomEdge::new(0.0, 1).quiet_rounds(1, 12), 0);
    }

    #[test]
    fn sticky_reset_mid_lazy_episode_replays_from_the_seed() {
        let ring = RingTopology::new(10).unwrap();
        let plain = edges_with_quiet_jumps(
            &mut StickyRandomEdge::new(2, 6, 0.5, 3),
            &[],
            &ring,
            80,
            |_| 0,
        );
        let mut policy = StickyRandomEdge::new(2, 6, 0.5, 3);
        let _ = edges_with_quiet_jumps(&mut policy, &[], &ring, 7, |_| 0);
        // Ask for quiet rounds until an episode has been drawn lazily (a
        // used-up episode is replaced by the query itself), then reset.
        while policy.remaining != 0 {
            let view = RoundView { round: 1, ring: &ring, agents: vec![].into(), visited: &[] };
            let _ = policy.select(&view, &[]);
        }
        let _ = policy.quiet_rounds(8, ring.size());
        assert!(policy.remaining > 0, "the query drew the next episode");
        policy.reset();
        assert_eq!(edges_with_quiet_jumps(&mut policy, &[], &ring, 80, |_| 0), plain);
    }

    #[test]
    fn random_edge_probability_bounds() {
        let ring = RingTopology::new(10).unwrap();
        let visited = vec![false; 10];
        let mut never = RandomEdge::new(0.0, 3);
        let mut always = RandomEdge::new(1.0, 3);
        let view = RoundView { round: 1, ring: &ring, agents: vec![].into(), visited: &visited };
        assert_eq!(never.select(&view, &[]), None);
        assert!(always.select(&view, &[]).is_some());
    }
}
