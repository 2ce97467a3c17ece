//! Property-based tests: every heap engine must behave identically to a
//! simple reference model under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wdm_heap::{BucketQueue, DaryHeap, MinQueue};

const CAP: usize = 24;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: usize, key: u64 },
    Decrease { id: usize, key: u64 },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CAP, 0u64..1000).prop_map(|(id, key)| Op::Insert { id, key }),
        (0..CAP, 0u64..1000).prop_map(|(id, key)| Op::Decrease { id, key }),
        Just(Op::Pop),
    ]
}

/// Runs an op sequence against the heap and a BTreeMap reference, checking
/// every observable output. Returns early instead of applying ops that the
/// trait declares as panicking (double insert, absent decrease).
fn check_against_model<Q: MinQueue<u64>>(mut q: Q, ops: &[Op]) {
    let mut model: BTreeMap<usize, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert { id, key } => {
                if model.contains_key(&id) {
                    continue;
                }
                q.insert(id, key);
                model.insert(id, key);
            }
            Op::Decrease { id, key } => {
                let Some(cur) = model.get_mut(&id) else {
                    continue;
                };
                let expect = key < *cur;
                assert_eq!(q.decrease_key(id, key), expect);
                if expect {
                    *cur = key;
                }
            }
            Op::Pop => {
                let min_key = model.values().min().copied();
                match (q.pop_min(), min_key) {
                    (None, None) => {}
                    (Some((id, k)), Some(mk)) => {
                        assert_eq!(k, mk, "popped key is not the minimum");
                        assert_eq!(model.remove(&id), Some(k), "popped id/key pair unknown");
                    }
                    other => panic!("pop mismatch: {other:?}"),
                }
            }
        }
        assert_eq!(q.len(), model.len());
        for id in 0..CAP {
            assert_eq!(q.contains(id), model.contains_key(&id));
            assert_eq!(q.key(id), model.get(&id).copied());
        }
    }
    // Drain: remaining elements must come out in non-decreasing key order.
    let mut last = 0u64;
    while let Some((id, k)) = q.pop_min() {
        assert!(k >= last);
        last = k;
        assert_eq!(model.remove(&id), Some(k));
    }
    assert!(model.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dary4_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        check_against_model(DaryHeap::<u64, 4>::with_capacity(CAP), &ops);
    }

    #[test]
    fn dary2_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        check_against_model(DaryHeap::<u64, 2>::with_capacity(CAP), &ops);
    }

    #[test]
    fn dary8_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        check_against_model(DaryHeap::<u64, 8>::with_capacity(CAP), &ops);
    }

    /// The bucket queue is monotone, so we only feed it non-decreasing pop
    /// fronts: a Dijkstra-shaped workload where inserted keys are >= the last
    /// popped key and within the span window. The window floor only moves on
    /// pops, and restarts on an empty-queue insert that lands outside it —
    /// the test mirrors that rule to generate only legal keys.
    #[test]
    fn bucket_matches_model_on_monotone_workload(
        seed_key in 0u64..100,
        steps in proptest::collection::vec((0usize..CAP, 0u64..64, any::<bool>()), 0..200),
    ) {
        const SPAN: u64 = 65;
        let mut q = BucketQueue::new(CAP, SPAN);
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        // Mirror of the queue's window floor (starts at 0; moves on pops;
        // an insert into an empty queue outside the window restarts it).
        let mut floor = 0u64;
        let mut frontier = seed_key;
        if seed_key < floor || seed_key >= floor + SPAN {
            floor = seed_key;
        }
        q.insert(0, seed_key);
        model.insert(0, seed_key);
        for (id, delta, pop) in steps {
            if pop {
                let min_key = model.values().min().copied();
                match (q.pop_min(), min_key) {
                    (None, None) => {}
                    (Some((pid, k)), Some(mk)) => {
                        assert_eq!(k, mk);
                        assert_eq!(model.remove(&pid), Some(k));
                        frontier = k;
                        floor = k;
                    }
                    other => panic!("pop mismatch: {other:?}"),
                }
            } else {
                // Keep generated keys inside the active window.
                let key = (frontier + delta).min(floor + SPAN - 1);
                if model.is_empty() {
                    if key < floor || key >= floor + SPAN {
                        floor = key;
                    }
                    q.insert(id, key);
                    model.insert(id, key);
                    frontier = key;
                } else if let Some(cur) = model.get_mut(&id) {
                    // Legal decrease targets stay >= floor.
                    let key = key.max(floor);
                    let expect = key < *cur;
                    assert_eq!(q.decrease_key(id, key), expect);
                    if expect { *cur = key; }
                } else {
                    q.insert(id, key);
                    model.insert(id, key);
                }
            }
            assert_eq!(q.len(), model.len());
        }
    }
}
