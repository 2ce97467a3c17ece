//! Property-based invariants of the event journal: replay reconstructs
//! live state bit-identically (clocks included) under arbitrary
//! interleavings of provision / teardown / failure / repair.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::conversion::ConversionTable;
use wdm_core::journal::{EventSink, NetEvent, StateJournal};
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::semilightpath::Hop;
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::{EdgeId, NodeId};

/// A random strongly-worked network plus a state with random pre-occupancy
/// (the journal checkpoint need not be fresh).
fn random_net(seed: u64) -> (WdmNetwork, ResidualState) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(4..9usize);
    let w = rng.gen_range(2..6usize);
    let mut b = NetworkBuilder::new(w);
    for _ in 0..n {
        b.add_node(ConversionTable::Full {
            cost: rng.gen_range(0.1..1.0),
        });
    }
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && (v == (u + 1) % n as u32 || rng.gen_bool(0.3)) {
                let mut set = WavelengthSet::empty();
                for l in 0..w {
                    if rng.gen_bool(0.8) {
                        set.insert(Wavelength(l as u8));
                    }
                }
                if set.is_empty() {
                    set.insert(Wavelength(0));
                }
                b.add_link_with(NodeId(u), NodeId(v), rng.gen_range(1.0..10.0), set);
            }
        }
    }
    let net = b.build();
    let mut st = ResidualState::fresh(&net);
    for ei in 0..net.link_count() {
        let e = EdgeId::from(ei);
        for l in net.lambda(e).iter() {
            if rng.gen_bool(0.2) {
                let _ = st.occupy(&net, e, l);
            }
        }
    }
    (net, st)
}

/// Payload equality plus global and per-link change clocks.
fn assert_bit_identical(a: &ResidualState, b: &ResidualState, net: &WdmNetwork) {
    assert_eq!(a, b, "payload (used + failed) diverged");
    assert_eq!(a.change_clock(), b.change_clock(), "global clock diverged");
    for ei in 0..net.link_count() {
        let e = EdgeId::from(ei);
        assert_eq!(
            a.link_change_clock(e),
            b.link_change_clock(e),
            "link clock diverged on {e:?}"
        );
    }
}

/// A small random hop set (channels may collide or be invalid — the
/// occupy path's strictness is part of what's under test).
fn random_hops(rng: &mut ChaCha8Rng, net: &WdmNetwork) -> Vec<Hop> {
    let k = rng.gen_range(1..4usize);
    (0..k)
        .map(|_| {
            let e = EdgeId::from(rng.gen_range(0..net.link_count()));
            let l = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
            Hop {
                edge: e,
                wavelength: l,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of the full event vocabulary: replaying the
    /// journal over its checkpoint reproduces the live state bit-identically,
    /// clocks included. A provision occupies its hops on a clone, which
    /// replaces the live state only if every occupy succeeded, so a failed
    /// provision (strict occupy) leaves no trace on either lineage.
    #[test]
    fn journal_replay_matches_direct_mutation(seed in 0u64..25_000) {
        let (net, st0) = random_net(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
        let mut journal = StateJournal::new(st0.clone());
        let mut live = st0;
        let mut routes: Vec<(u64, Vec<Hop>)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..60 {
            match rng.gen_range(0..6) {
                0..=2 => {
                    let hops = random_hops(&mut rng, &net);
                    let mut probe = live.clone();
                    if hops.iter().all(|h| probe.occupy(&net, h.edge, h.wavelength).is_ok()) {
                        live = probe;
                        journal.record(NetEvent::Provision {
                            id: next_id,
                            channels: hops.clone(),
                        });
                        routes.push((next_id, hops));
                        next_id += 1;
                    }
                }
                3 => {
                    if !routes.is_empty() {
                        let i = rng.gen_range(0..routes.len());
                        let (id, hops) = routes.swap_remove(i);
                        for h in &hops {
                            let _ = live.release(h.edge, h.wavelength);
                        }
                        journal.record(NetEvent::Teardown { id, channels: hops });
                    }
                }
                4 => {
                    let e = EdgeId::from(rng.gen_range(0..net.link_count()));
                    live.fail_link(e);
                    journal.record(NetEvent::FailLink { link: e });
                }
                _ => {
                    let e = EdgeId::from(rng.gen_range(0..net.link_count()));
                    live.repair_link(e);
                    journal.record(NetEvent::RepairLink { link: e });
                }
            }
        }
        let replayed = journal.replay(&net).expect("recorded events must replay");
        assert_bit_identical(&replayed, &live, &net);
        prop_assert_eq!(replayed.semantic_hash(), live.semantic_hash());
    }
}
