//! Seeded request scripts whose holds and repairs are counted in arrivals.
//!
//! A script is a fixed sequence of operations. Each arrival is either a
//! provision between a uniform random node pair or the failure of a
//! random healthy link. Every provision is torn down a random number of
//! *arrivals* later, every failure repaired likewise, and a `GET /state`
//! sample is taken every fixed number of operations. Because time is
//! counted in arrivals rather than seconds, the offered occupancy, the
//! blocking mix and the length of the daemon's WAL are properties of the
//! script alone and do not change with how fast the server answers.
//!
//! The script ends with a drain: every departure still pending is emitted,
//! so a server that executed the whole script holds no connection and no
//! failed link.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One scripted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /provision` between two distinct nodes.
    Provision {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// `POST /teardown` of the connection an earlier provision created
    /// (skipped when that provision was blocked).
    Teardown {
        /// Index of the provision op in the script.
        provision: usize,
    },
    /// `POST /fail-link` of a healthy link.
    FailLink {
        /// Directed link id.
        link: u32,
        /// Index of this link's previous repair, if it failed before.
        after: Option<usize>,
    },
    /// `POST /repair-link` of a link an earlier op failed.
    RepairLink {
        /// Directed link id.
        link: u32,
        /// Index of the fail op being repaired.
        fail: usize,
    },
    /// `GET /state`: a sample of the network load ρ.
    State,
}

impl Op {
    /// The earlier op this one must wait for, if any.
    pub fn dependency(&self) -> Option<usize> {
        match *self {
            Op::Teardown { provision } => Some(provision),
            Op::FailLink { after, .. } => after,
            Op::RepairLink { fail, .. } => Some(fail),
            Op::Provision { .. } | Op::State => None,
        }
    }
}

/// The shape of a script; the seed picks the concrete operations.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Arrivals (provisions + failures) before the drain.
    pub arrivals: usize,
    /// Mean connection hold, in arrivals (exponential, at least 1).
    pub mean_hold: f64,
    /// Share of arrivals that fail a link instead of provisioning.
    pub fail_fraction: f64,
    /// Mean repair delay, in arrivals (exponential, at least 1).
    pub mean_repair: f64,
    /// A `GET /state` sample after every this many other ops.
    pub state_every: usize,
}

/// A departure waiting for its arrival index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Departure {
    Teardown { provision: usize },
    Repair { link: u32, fail: usize },
}

/// Exponential sample with mean `mean`, rounded up to a whole number of
/// arrivals (at least one).
fn arrivals_after(rng: &mut ChaCha8Rng, mean: f64) -> usize {
    let u: f64 = rng.gen();
    ((-(1.0 - u).ln() * mean).ceil() as usize).max(1)
}

/// The script under construction, with the link-health bookkeeping the
/// generator needs to fail only healthy links.
struct Draft {
    ops: Vec<Op>,
    state_every: usize,
    since_state: usize,
    failed: Vec<bool>,
    last_repair: Vec<Option<usize>>,
    down: usize,
}

impl Draft {
    /// Appends `op` (and a state sample when one is due); returns the
    /// index of `op`.
    fn push(&mut self, op: Op) -> usize {
        let at = self.ops.len();
        self.ops.push(op);
        self.since_state += 1;
        if self.state_every > 0 && self.since_state == self.state_every {
            self.ops.push(Op::State);
            self.since_state = 0;
        }
        at
    }

    fn depart(&mut self, d: Departure) {
        match d {
            Departure::Teardown { provision } => {
                self.push(Op::Teardown { provision });
            }
            Departure::Repair { link, fail } => {
                let at = self.push(Op::RepairLink { link, fail });
                self.failed[link as usize] = false;
                self.last_repair[link as usize] = Some(at);
                self.down -= 1;
            }
        }
    }
}

/// Generates the script for `seed` over a network of `nodes` nodes and
/// `links` directed links.
pub fn generate(seed: u64, shape: &Shape, nodes: u32, links: u32) -> Vec<Op> {
    assert!(
        nodes >= 2 && links >= 1,
        "script needs two nodes and a link"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Draft {
        ops: Vec::new(),
        state_every: shape.state_every,
        since_state: 0,
        failed: vec![false; links as usize],
        last_repair: vec![None; links as usize],
        down: 0,
    };
    // (due arrival, tie-break sequence, departure), earliest first.
    let mut due: BinaryHeap<Reverse<(usize, usize, Departure)>> = BinaryHeap::new();
    for arrival in 0..shape.arrivals {
        while let Some(&Reverse((when, _, d))) = due.peek() {
            if when > arrival {
                break;
            }
            due.pop();
            b.depart(d);
        }
        if rng.gen_bool(shape.fail_fraction) && b.down < links as usize {
            let link = loop {
                let l = rng.gen_range(0..links);
                if !b.failed[l as usize] {
                    break l;
                }
            };
            let after = b.last_repair[link as usize];
            let at = b.push(Op::FailLink { link, after });
            b.failed[link as usize] = true;
            b.down += 1;
            let when = arrival + arrivals_after(&mut rng, shape.mean_repair);
            due.push(Reverse((
                when,
                arrival,
                Departure::Repair { link, fail: at },
            )));
        } else {
            let src = rng.gen_range(0..nodes);
            let dst = loop {
                let d = rng.gen_range(0..nodes);
                if d != src {
                    break d;
                }
            };
            let at = b.push(Op::Provision { src, dst });
            let when = arrival + arrivals_after(&mut rng, shape.mean_hold);
            due.push(Reverse((
                when,
                arrival,
                Departure::Teardown { provision: at },
            )));
        }
    }
    while let Some(Reverse((_, _, d))) = due.pop() {
        b.depart(d);
    }
    b.ops
}

/// A static demand set as a script: every demand provisioned in order,
/// a state sample every `state_every` ops, then a drain that tears every
/// connection down again.
pub fn from_demands(demands: &[(u32, u32)], state_every: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut provisions = Vec::with_capacity(demands.len());
    for (i, &(src, dst)) in demands.iter().enumerate() {
        provisions.push(ops.len());
        ops.push(Op::Provision { src, dst });
        if state_every > 0 && (i + 1) % state_every == 0 {
            ops.push(Op::State);
        }
    }
    ops.extend(
        provisions
            .into_iter()
            .map(|provision| Op::Teardown { provision }),
    );
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        arrivals: 2000,
        mean_hold: 30.0,
        fail_fraction: 0.03,
        mean_repair: 20.0,
        state_every: 25,
    };

    #[test]
    fn same_seed_gives_the_same_script() {
        let a = generate(7, &SHAPE, 14, 42);
        let b = generate(7, &SHAPE, 14, 42);
        assert_eq!(a, b);
        let c = generate(8, &SHAPE, 14, 42);
        assert_ne!(a, c, "another seed gives another script");
    }

    #[test]
    fn every_departure_refers_to_an_earlier_op_of_the_right_kind() {
        for seed in 0..5 {
            let ops = generate(seed, &SHAPE, 14, 42);
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Teardown { provision } => {
                        assert!(provision < i);
                        assert!(matches!(ops[provision], Op::Provision { .. }));
                    }
                    Op::RepairLink { link, fail } => {
                        assert!(fail < i);
                        assert!(matches!(ops[fail], Op::FailLink { link: l, .. } if l == link));
                    }
                    Op::FailLink {
                        link,
                        after: Some(r),
                    } => {
                        assert!(r < i);
                        assert!(matches!(ops[r], Op::RepairLink { link: l, .. } if l == link));
                    }
                    Op::Provision { src, dst } => assert_ne!(src, dst),
                    Op::FailLink { after: None, .. } | Op::State => {}
                }
                if let Some(d) = op.dependency() {
                    assert!(d < i, "op {i} waits on a later op {d}");
                }
            }
        }
    }

    #[test]
    fn the_drain_closes_everything_exactly_once() {
        let ops = generate(3, &SHAPE, 14, 42);
        let provisions = ops
            .iter()
            .filter(|o| matches!(o, Op::Provision { .. }))
            .count();
        let teardowns = ops
            .iter()
            .filter(|o| matches!(o, Op::Teardown { .. }))
            .count();
        let fails = ops
            .iter()
            .filter(|o| matches!(o, Op::FailLink { .. }))
            .count();
        let repairs = ops
            .iter()
            .filter(|o| matches!(o, Op::RepairLink { .. }))
            .count();
        assert_eq!(provisions + fails, SHAPE.arrivals);
        assert_eq!(provisions, teardowns);
        assert_eq!(fails, repairs);
        assert!(fails > 0, "the mix includes failures");
        // No link is failed twice without a repair in between.
        let mut down = [false; 42];
        for op in &ops {
            match *op {
                Op::FailLink { link, .. } => {
                    assert!(!down[link as usize]);
                    down[link as usize] = true;
                }
                Op::RepairLink { link, .. } => {
                    assert!(down[link as usize]);
                    down[link as usize] = false;
                }
                _ => {}
            }
        }
        assert!(down.iter().all(|d| !d));
    }

    #[test]
    fn state_samples_come_at_a_fixed_cadence() {
        let ops = generate(1, &SHAPE, 14, 42);
        let mut run = 0;
        for op in &ops {
            if *op == Op::State {
                assert_eq!(run, SHAPE.state_every);
                run = 0;
            } else {
                run += 1;
            }
        }
    }

    #[test]
    fn demand_scripts_provision_in_order_then_drain() {
        let ops = from_demands(&[(0, 1), (1, 2), (2, 0)], 2);
        assert_eq!(
            ops,
            vec![
                Op::Provision { src: 0, dst: 1 },
                Op::Provision { src: 1, dst: 2 },
                Op::State,
                Op::Provision { src: 2, dst: 0 },
                Op::Teardown { provision: 0 },
                Op::Teardown { provision: 1 },
                Op::Teardown { provision: 3 },
            ]
        );
    }
}
