//! Conflict-aware scheduling of speculative batch windows.
//!
//! Speculating on the next `K` demands in processing order and aborting
//! the tail of the window at the first conflict collapses under
//! contention: at `K = 64` nearly every window dies that way. The
//! scheduler in this module attacks the problem *before* routing: it
//! predicts each pending
//! demand's [`RouteFootprint`](wdm_core::disjoint::RouteFootprint) with a
//! [`FootprintOracle`] and greedily colors the lookahead into a
//! **link-disjoint conflict group** — the subset that gets speculated —
//! leaving the predicted-conflicting demands to be routed inline at their
//! exact serial position. Groups are scheduled one per round as
//! independent speculative sub-windows; see `speculative.rs` for how the
//! commit loop preserves bit-exact serial equivalence.
//!
//! ## The plan
//!
//! [`ConflictPartitioner::plan`] scans up to `2 × window` pending demands
//! in processing order, maintaining a running union `U` of the predicted
//! footprints of *every* scanned demand (selected or not):
//!
//! * the **head** demand is always selected — it commits unconditionally
//!   under the engine's rule 1, so every round makes progress;
//! * a later demand is selected iff its predicted footprint is disjoint
//!   from `U` and the group is not yet full. Checking against `U` rather
//!   than against the selected members only is deliberate: a *skipped*
//!   demand will be routed inline somewhere inside the round's range, so
//!   speculating a later demand into the region the skipped one is
//!   predicted to occupy would invite exactly the conflict the scheduler
//!   exists to avoid.
//!
//! The returned [`GroupPlan`] covers the contiguous range up to the last
//! selected member; the engine consumes the whole range each round
//! (members speculatively, the rest inline), so processing order is never
//! reordered — a precondition of serial equivalence.
//!
//! Predictions only shape the plan. A missed conflict costs the engine
//! one bounded retry at commit time; a spurious one costs a slot of
//! parallelism. Neither can change the outcome.

use wdm_core::predict::FootprintOracle;
use wdm_graph::{EdgeId, NodeId};

/// Default shard count for [`ScheduleMode::Sharded`] when the CLI
/// spelling carries no explicit `--shards`.
pub const DEFAULT_SHARDS: usize = 4;

/// How the speculative engine picks which pending demands to route
/// concurrently each round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScheduleMode {
    /// Predict footprints, speculate only on a link-disjoint conflict
    /// group, route the predicted-conflicting remainder inline at its
    /// serial position, and recover mispredictions with a bounded
    /// per-demand retry instead of aborting the window.
    #[default]
    ConflictGroups,
    /// Statically partition the topology into `shards` regions
    /// (`wdm_core::partition`); per-shard workers route their intra-shard
    /// demands concurrently on long-lived mirrors with no inter-shard
    /// synchronisation, while cross-shard demands route inline at their
    /// exact serial slot (see `crate::sharded`).
    Sharded {
        /// Requested shard count (clamped to the node count at run time).
        shards: usize,
    },
}

impl ScheduleMode {
    /// Parses the CLI spelling (`conflict-groups` / `sharded`); `sharded`
    /// carries [`DEFAULT_SHARDS`] until the CLI's `--shards` overrides it.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "conflict-groups" => Some(Self::ConflictGroups),
            "sharded" => Some(Self::Sharded {
                shards: DEFAULT_SHARDS,
            }),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::ConflictGroups => "conflict-groups",
            Self::Sharded { .. } => "sharded",
        }
    }
}

/// One round's schedule: which of the pending demands to speculate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// Offsets (from the window start, ascending) of the demands selected
    /// into the conflict group. Never empty; `members[0] == 0`.
    pub members: Vec<usize>,
    /// Contiguous span of processing order the round consumes:
    /// `members.last() + 1`. Offsets in `0..range` that are not members
    /// are routed inline at their serial position.
    pub range: usize,
}

/// Greedy link-disjoint group coloring over predicted footprints.
///
/// Holds a stamp array sized to the network's link count so each
/// [`plan`](Self::plan) call runs in `O(Σ |predicted footprint|)` without
/// clearing — one partitioner instance serves a whole batch.
#[derive(Debug, Clone)]
pub struct ConflictPartitioner {
    /// `stamp[link] == round` ⇔ the link is in the current scan's union.
    stamp: Vec<u32>,
    round: u32,
    scratch: Vec<EdgeId>,
}

impl ConflictPartitioner {
    /// A partitioner for a network with `link_count` directed links.
    pub fn new(link_count: usize) -> Self {
        Self {
            stamp: vec![0; link_count],
            round: 0,
            scratch: Vec::new(),
        }
    }

    /// Plans one round over `pending` — the `(src, dst)` pairs of the
    /// not-yet-committed demands in processing order — selecting at most
    /// `window` members from a lookahead of `2 × window` pairs.
    pub fn plan<O: FootprintOracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        pending: &[(NodeId, NodeId)],
        window: usize,
    ) -> GroupPlan {
        debug_assert!(!pending.is_empty(), "plan() needs at least one demand");
        let window = window.max(1);
        let lookahead = pending.len().min(window * 2);
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // u32 stamp wraparound: old stamps could alias the new round.
            self.stamp.fill(0);
            self.round = 1;
        }
        let mut members = Vec::with_capacity(window.min(lookahead));
        for (k, &(s, t)) in pending[..lookahead].iter().enumerate() {
            self.scratch.clear();
            oracle.predict(s, t, &mut self.scratch);
            let disjoint = self
                .scratch
                .iter()
                .all(|e| self.stamp[e.index()] != self.round);
            if k == 0 || disjoint {
                members.push(k);
            }
            for &e in &self.scratch {
                self.stamp[e.index()] = self.round;
            }
            if members.len() >= window {
                break;
            }
        }
        let range = members.last().map_or(0, |&m| m + 1);
        GroupPlan { members, range }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::predict::{AllConflictOracle, NoConflictOracle};

    /// An oracle scripted with one footprint per pending position.
    struct Scripted(Vec<Vec<EdgeId>>);
    impl Scripted {
        fn advance(&mut self) -> Vec<EdgeId> {
            self.0.remove(0)
        }
    }
    impl FootprintOracle for Scripted {
        fn predict(&mut self, _s: NodeId, _t: NodeId, out: &mut Vec<EdgeId>) {
            out.extend(self.advance());
        }
    }

    fn pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        (0..n as u32).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    #[test]
    fn all_disjoint_fills_the_window() {
        let mut p = ConflictPartitioner::new(64);
        let mut oracle = NoConflictOracle;
        let plan = p.plan(&mut oracle, &pairs(16), 8);
        assert_eq!(plan.members, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(plan.range, 8);
    }

    #[test]
    fn all_conflicting_degenerates_to_the_head() {
        let mut p = ConflictPartitioner::new(4);
        let mut oracle = AllConflictOracle { links: 4 };
        let plan = p.plan(&mut oracle, &pairs(16), 8);
        assert_eq!(plan.members, vec![0]);
        assert_eq!(plan.range, 1);
    }

    #[test]
    fn single_demand_is_a_singleton_group() {
        let mut p = ConflictPartitioner::new(4);
        let mut oracle = NoConflictOracle;
        let plan = p.plan(&mut oracle, &pairs(1), 8);
        assert_eq!(plan.members, vec![0]);
        assert_eq!(plan.range, 1);
    }

    #[test]
    fn skipped_demands_block_their_region_for_later_members() {
        // Position 1 conflicts with the head on link 0 and also covers
        // link 5; position 2 touches only link 5. Selecting 2 would
        // speculate into the region the skipped demand 1 will occupy
        // inline, so it must be skipped too; position 3 is clean.
        let mut p = ConflictPartitioner::new(8);
        let mut oracle = Scripted(vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(0), EdgeId(5)],
            vec![EdgeId(5)],
            vec![EdgeId(7)],
        ]);
        let plan = p.plan(&mut oracle, &pairs(4), 8);
        assert_eq!(plan.members, vec![0, 3]);
        assert_eq!(plan.range, 4);
    }

    #[test]
    fn lookahead_and_window_are_both_bounded() {
        let mut p = ConflictPartitioner::new(64);
        let mut oracle = NoConflictOracle;
        // Window caps the group size...
        let plan = p.plan(&mut oracle, &pairs(64), 4);
        assert_eq!(plan.members.len(), 4);
        // ...and with everything conflicting after the head, the scan
        // stops at the 2×window lookahead.
        let mut all = AllConflictOracle { links: 64 };
        let plan = p.plan(&mut all, &pairs(64), 4);
        assert_eq!(
            plan,
            GroupPlan {
                members: vec![0],
                range: 1
            }
        );
    }

    #[test]
    fn reuse_across_rounds_resets_the_union() {
        let mut p = ConflictPartitioner::new(4);
        let mut oracle = Scripted(vec![
            vec![EdgeId(0)],
            // Next round: same link must not be considered occupied.
            vec![EdgeId(0)],
            vec![EdgeId(1)],
        ]);
        let plan = p.plan(&mut oracle, &pairs(1), 8);
        assert_eq!(plan.members, vec![0]);
        let plan = p.plan(&mut oracle, &pairs(2), 8);
        assert_eq!(plan.members, vec![0, 1]);
    }

    #[test]
    fn mode_parse_round_trips() {
        for mode in [
            ScheduleMode::ConflictGroups,
            ScheduleMode::Sharded {
                shards: DEFAULT_SHARDS,
            },
        ] {
            assert_eq!(ScheduleMode::parse(mode.name()), Some(mode));
        }
        // A non-default shard count keeps the spelling.
        assert_eq!(ScheduleMode::Sharded { shards: 7 }.name(), "sharded");
        assert_eq!(ScheduleMode::parse("bogus"), None);
        assert_eq!(ScheduleMode::parse("windowed"), None);
        assert_eq!(ScheduleMode::default(), ScheduleMode::ConflictGroups);
    }
}
