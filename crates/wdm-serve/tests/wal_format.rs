//! The WAL's on-disk format is a compatibility contract: a log an earlier
//! build wrote must still recover, and today's writer must still write it
//! byte for byte. `data/lifecycle.wal.jsonl` was recorded by the
//! serde-tree writer that preceded the line codec, from the lifecycle
//! [`record`] drives.

use std::path::Path;

use wdm_core::journal::{apply_event, EventSink, NetEvent};
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::semilightpath::Hop;
use wdm_core::wavelength::Wavelength;
use wdm_graph::NodeId;
use wdm_serve::wal::{self, WalSink};
use wdm_sim::policy::Policy;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/lifecycle.wal.jsonl"
);
/// The fixture's event count and the hash its close line records.
const FIXTURE_EVENTS: u64 = 9;
const FIXTURE_HASH: u64 = 0x9fa1_a7b6_5074_f24d;

/// The channels of wavelength `l` along the node walk `path`.
fn walk(net: &WdmNetwork, path: &[u32], l: u8) -> Vec<Hop> {
    path.windows(2)
        .map(|w| Hop {
            edge: net
                .graph()
                .find_edge(NodeId(w[0]), NodeId(w[1]))
                .expect("NSFNET link"),
            wavelength: Wavelength(l),
        })
        .collect()
}

/// Records a fixed NSFNET (W = 8) lifecycle through [`WalSink`]: every
/// event kind, a `Reconfigure` with an empty occupied list, the top
/// wavelength, a mid-stream anchor, and the closing anchor plus
/// graceful-close line the daemon writes at shutdown. The events are
/// written out rather than routed, so the file does not move when routing
/// ties do. Returns (events written, live hash).
fn record(path: &Path) -> (u64, u64) {
    let net = NetworkBuilder::nsfnet(8).build();
    let mut state = ResidualState::fresh(&net);
    let mut wal = WalSink::create(path, &net, Policy::CostOnly, &state).expect("create");
    let log = |wal: &mut WalSink, state: &mut ResidualState, event: NetEvent| {
        apply_event(state, &net, &event).expect("the event applies");
        wal.record(event);
    };
    let primary0 = walk(&net, &[0, 1, 3, 4], 0);
    let backup0 = walk(&net, &[0, 2, 5, 4], 3);
    let reprotect0 = walk(&net, &[0, 7, 6, 4], 1);
    let conn1 = [walk(&net, &[8, 11, 12], 7), walk(&net, &[8, 13, 12], 7)].concat();
    let conn2 = [walk(&net, &[12, 13], 0), walk(&net, &[12, 11, 10, 13], 2)].concat();
    let cut = primary0[1].edge;

    let events = [
        NetEvent::Provision {
            id: 0,
            channels: [primary0.clone(), backup0.clone()].concat(),
        },
        NetEvent::Provision {
            id: 1,
            channels: conn1.clone(),
        },
    ];
    for event in events {
        log(&mut wal, &mut state, event);
    }
    wal.checkpoint(&state);
    let events = [
        NetEvent::FailLink { link: cut },
        // Switch connection 0 to its backup and protect it again.
        NetEvent::Reconfigure {
            id: 0,
            released: primary0,
            occupied: reprotect0.clone(),
        },
        NetEvent::Teardown {
            id: 1,
            channels: conn1,
        },
        NetEvent::RepairLink { link: cut },
        NetEvent::Provision {
            id: 2,
            channels: conn2.clone(),
        },
        // A dropped connection: everything released, nothing occupied.
        NetEvent::Reconfigure {
            id: 2,
            released: conn2,
            occupied: Vec::new(),
        },
        NetEvent::Teardown {
            id: 0,
            channels: [backup0, reprotect0].concat(),
        },
    ];
    for event in events {
        log(&mut wal, &mut state, event);
    }
    wal.checkpoint(&state);
    wal.finalize(&state).expect("finalize");
    (wal.seq(), state.semantic_hash())
}

#[test]
fn committed_fixture_recovers_to_its_recorded_lineage() {
    let rec = wal::recover(Path::new(FIXTURE)).expect("the fixture recovers");
    assert_eq!(rec.seq, FIXTURE_EVENTS);
    assert_eq!(rec.semantic_hash(), FIXTURE_HASH);
    assert_eq!(rec.final_hash, Some(FIXTURE_HASH));
    assert!(rec.clean_shutdown());
    assert!(!rec.torn_tail);
    assert_eq!(rec.anchors_verified, 2);
    assert_eq!(rec.policy, Policy::CostOnly);
}

#[test]
fn writer_reproduces_the_committed_fixture_byte_for_byte() {
    let path = std::env::temp_dir().join(format!(
        "wdm-wal-format-{}-rerecord.jsonl",
        std::process::id()
    ));
    assert_eq!(record(&path), (FIXTURE_EVENTS, FIXTURE_HASH));
    let written = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    let committed = std::fs::read(FIXTURE).expect("read fixture");
    assert!(
        written == committed,
        "the writer's bytes differ from the committed fixture"
    );
}

/// A header whose checkpoint was edited but whose recorded hash was kept
/// is refused. With no anchor before the cut, nothing else would notice:
/// replay would start from the forged state and end on another hash.
#[test]
fn a_header_whose_checkpoint_disagrees_with_its_hash_is_refused() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("read fixture");
    let mut lines = fixture.lines();
    let header = lines.next().expect("a header");
    // Flip the checkpoint's last `used` mask between 0 and 1.
    let end = header
        .find("],\"failed\":[")
        .expect("the checkpoint's used list");
    let mask = header[..end].rfind([',', '[']).expect("the last used mask") + 1;
    let flipped = if &header[mask..end] == "0" { "1" } else { "0" };
    let forged = format!("{}{flipped}{}", &header[..mask], &header[end..]);
    // A crash after two events, before the first anchor.
    let events: Vec<&str> = lines.take(2).collect();
    assert!(events.iter().all(|l| l.starts_with("{\"seq\":")));
    let path = std::env::temp_dir().join(format!(
        "wdm-wal-format-{}-forged.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, format!("{forged}\n{}\n", events.join("\n"))).expect("write");
    let recovered = wal::recover(&path);
    std::fs::remove_file(&path).ok();
    match recovered {
        Err(wal::WalError::BadHeader(detail)) => assert!(detail.contains("hash"), "{detail}"),
        other => panic!(
            "expected BadHeader, got {:?}",
            other.map(|r| r.semantic_hash())
        ),
    }
}

/// Recovers the fixture's header followed by one event line, `event` at
/// seq 1.
fn recover_header_and(tag: &str, event: &str) -> Result<wal::WalRecovery, wal::WalError> {
    let fixture = std::fs::read_to_string(FIXTURE).expect("read fixture");
    let header = fixture.lines().next().expect("a header");
    let path =
        std::env::temp_dir().join(format!("wdm-wal-format-{}-{tag}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        format!("{header}\n{{\"seq\":1,\"event\":{event}}}\n"),
    )
    .expect("write");
    let recovered = wal::recover(&path);
    std::fs::remove_file(&path).ok();
    recovered
}

fn assert_replay_refused(recovered: Result<wal::WalRecovery, wal::WalError>, why: &str) {
    match recovered {
        Err(wal::WalError::Replay { seq: 1, detail }) => assert!(detail.contains(why), "{detail}"),
        other => panic!(
            "expected a refused replay at seq 1, got {:?}",
            other.map(|r| r.semantic_hash())
        ),
    }
}

/// The fixture's network has 42 links, and the state's mutators index
/// their per-link flags by the id unchecked.
#[test]
fn an_event_on_a_link_outside_the_network_is_refused() {
    let recovered = recover_header_and("link", "{\"FailLink\":{\"link\":99999}}");
    assert_replay_refused(recovered, "link outside the network");
}

/// The fixture's network has W = 8, and the channel masks are shifted by
/// the wavelength: in a release build wavelength 65 would alias channel 1.
#[test]
fn a_hop_on_a_wavelength_beyond_w_is_refused() {
    let recovered = recover_header_and(
        "wavelength",
        "{\"Provision\":{\"id\":0,\"channels\":[{\"edge\":0,\"wavelength\":65}]}}",
    );
    assert_replay_refused(recovered, "wavelength outside");
}
