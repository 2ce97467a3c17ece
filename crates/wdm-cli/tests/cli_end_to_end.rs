//! End-to-end tests of the `wdm` binary (invoked as a process).

use std::path::PathBuf;
use std::process::Command;

fn wdm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdm"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wdm-cli-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = wdm().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("topology"));
    assert!(text.contains("simulate"));

    // The serve section lists every option `commands::serve` reads and
    // every path the daemon answers.
    let start = text.find("\n  serve ").expect("a serve section");
    let end = start + text[start..].find("\n  loadgen ").expect("a next section");
    let serve = &text[start..end];
    let source = include_str!("../src/commands.rs");
    let body = &source[source.find("pub fn serve(").expect("commands::serve")..];
    let body = &body[..body.find("\npub fn ").expect("a next command")];
    let readers = [
        "args.get(\"",
        "args.get_or(\"",
        "args.require(\"",
        "args.flag(\"",
    ];
    let options: Vec<&str> = readers
        .iter()
        .flat_map(|reader| body.match_indices(reader).map(|(at, _)| at + reader.len()))
        .map(|at| &body[at..at + body[at..].find('"').expect("a closing quote")])
        .collect();
    assert!(options.len() >= 12, "found only {options:?}");
    for option in options {
        assert!(
            serve.contains(&format!("--{option} ")),
            "--{option} is missing from the serve help"
        );
    }
    for path in [
        "/provision",
        "/teardown",
        "/fail-link",
        "/repair-link",
        "/state",
        "/status",
        "/metrics",
        "/healthz",
        "/debug/flight",
        "/debug/trace",
    ] {
        assert!(
            serve.contains(path),
            "{path} is missing from the serve help"
        );
    }
    assert!(!serve.contains("flushed"), "the WAL is written, not synced");
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let out = wdm().output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = wdm().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn topology_info_route_pipeline() {
    let net_path = tmp("pipeline.wdm");
    let out = wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(net_path.exists());

    let out = wdm()
        .args(["info", "--net", net_path.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes            14"));
    assert!(text.contains("robust routing feasible everywhere"));
    // The all-pairs statistics over the cheapest wavelength per link.
    assert!(text.contains("cost diameter    45.0"), "{text}");
    assert!(text.contains("mean pair cost   23.1"), "{text}");
    assert!(text.contains("min edge-conn.   2 (pair 0 -> 6)"), "{text}");

    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "13",
            "--policy",
            "joint",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("primary:"));
    assert!(text.contains("backup"));
    assert!(text.contains("total cost"));
}

#[test]
fn batch_full_mesh_is_deterministic() {
    let net_path = tmp("batch.wdm");
    let out = wdm()
        .args([
            "topology",
            "nsfnet",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = || {
        let out = wdm()
            .args([
                "batch",
                "--net",
                net_path.to_str().expect("utf8"),
                "--mesh",
                "1",
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = |prefix: &str| {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no '{prefix}' line in:\n{text}"))
                .to_string()
        };
        (line("accepted"), line("total cost"))
    };
    let first = run();
    assert!(first.0.contains("/182 "), "14 x 13 demands: {}", first.0);
    assert_eq!(first, run());
}

#[test]
fn route_json_output_is_parseable() {
    let net_path = tmp("json_route.wdm");
    assert!(wdm()
        .args([
            "topology",
            "ring:6",
            "--wavelengths",
            "4",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "3",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("route --json must emit valid JSON");
    assert!(v.get("Protected").is_some(), "{v}");
}

#[test]
fn simulate_runs_and_reports() {
    let net_path = tmp("sim.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "10",
            "--duration",
            "50",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("blocking"));
    assert!(text.contains("mean route cost"));
}

#[test]
fn routing_failure_maps_to_error_exit() {
    // A 3-node chain has no protected route.
    let net_path = tmp("chain.wdm");
    std::fs::write(
        &net_path,
        "wavelengths 2\nnode 0 conv=none\nnode 1 conv=none\nnode 2 conv=none\n\
         link 0 1 cost=1\nlink 1 2 cost=1\n",
    )
    .expect("write");
    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("routing failed"));
}

#[test]
fn out_of_range_node_is_a_clean_error() {
    let net_path = tmp("range.wdm");
    assert!(wdm()
        .args([
            "topology",
            "ring:5",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "99",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("node ids must be in 0..5"), "{err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn out_of_range_topology_sizes_are_clean_errors() {
    for (args, named) in [
        (&["nsfnet", "--wavelengths", "0"][..], "got 0"),
        (&["nsfnet", "--wavelengths", "65"][..], "got 65"),
        (&["ring:2"][..], "ring:2"),
        (&["grid:1x3"][..], "grid:1x3"),
        // Waxman draws no links at all for these sizes at the default seed.
        (&["waxman:0"][..], "waxman:0"),
        (&["waxman:1"][..], "waxman:1"),
        (&["waxman:6"][..], "waxman:6"),
    ] {
        let out = wdm().arg("topology").args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}

#[test]
fn info_on_a_single_node_prints_no_pair_minimum() {
    let net_path = tmp("one-node.wdm");
    std::fs::write(&net_path, "wavelengths 2\nnode 0 conv=full:1\n").expect("write net");
    let out = wdm()
        .args(["info", "--net", net_path.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes            1"), "{text}");
    assert!(!text.contains("18446744073709551615"), "{text}");
    assert!(!text.contains("min edge-conn."), "{text}");
}

#[test]
fn non_positive_simulate_params_are_clean_errors() {
    let net_path = tmp("params.wdm");
    assert!(wdm()
        .args([
            "topology",
            "ring:5",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    for bad in [
        ["--erlangs", "-5", "--duration", "10"],
        ["--erlangs", "0", "--duration", "10"],
        ["--erlangs", "5", "--duration", "0"],
    ] {
        let out = wdm()
            .args(["simulate", "--net", net_path.to_str().expect("utf8")])
            .args(bad)
            .output()
            .expect("spawn");
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("must all be positive"), "{err}");
        assert!(!err.contains("panicked"), "must not panic: {err}");
    }
}

#[test]
fn journal_record_and_replay_verify() {
    let net_path = tmp("journal.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let journal_path = tmp("journal.json");
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "40",
            "--duration",
            "100",
            "--seed",
            "3",
            "--failure-rate",
            "0.02",
            "--reconfig",
            "0.7",
            "--journal",
            journal_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = wdm()
        .args(["replay", journal_path.to_str().expect("utf8"), "--verify"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "replay --verify must pass on an untampered journal: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("provision"), "{text}");
    assert!(text.contains("matches the recorded hash"), "{text}");

    // Tampering with the recorded hash must flip --verify to a failure.
    let doc = std::fs::read_to_string(&journal_path).expect("read journal");
    let mut v: serde_json::Value = serde_json::from_str(&doc).expect("journal is JSON");
    if let serde_json::Value::Object(fields) = &mut v {
        for (k, val) in fields.iter_mut() {
            if k == "final_hash" {
                *val = serde_json::to_value(&1234567u64);
            }
        }
    }
    let bad_path = tmp("journal_bad.json");
    std::fs::write(&bad_path, serde_json::to_string(&v).expect("render")).expect("write");
    let out = wdm()
        .args(["replay", bad_path.to_str().expect("utf8"), "--verify"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "tampered hash must fail --verify");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hash mismatch"), "{err}");

    // --journal is a single-run recording: multi-rep invocations refuse.
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "10",
            "--duration",
            "20",
            "--reps",
            "2",
            "--journal",
            journal_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--reps 1"));
}

#[test]
fn dot_format_renders() {
    let out = wdm()
        .args(["topology", "grid:3x3", "--format", "dot"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

/// Drops `*_ns` timing histograms (wall-clock, machine-dependent) from a
/// telemetry snapshot value; counters and event-shape histograms are pure
/// functions of (config, seed) and must reproduce exactly.
fn comparable_telemetry(telemetry: &serde_json::Value) -> serde_json::Value {
    let counters = telemetry.get("counters").expect("counters").clone();
    let hists: Vec<(String, serde_json::Value)> = telemetry
        .get("histograms")
        .and_then(|h| h.as_object())
        .expect("histograms")
        .iter()
        .filter(|(name, _)| !name.ends_with("_ns"))
        .cloned()
        .collect();
    serde_json::Value::Object(vec![
        ("counters".to_string(), counters),
        ("histograms".to_string(), serde_json::Value::Object(hists)),
    ])
}

#[test]
fn trace_record_and_analyze() {
    let net_path = tmp("trace.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let trace_path = tmp("trace.json");
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "60",
            "--duration",
            "200",
            "--policy",
            "cost-only",
            "--seed",
            "3",
            "--trace",
            trace_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Text report renders.
    let out = wdm()
        .args(["trace", "analyze", trace_path.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("routed"), "{text}");
    assert!(text.contains("latency"), "{text}");

    // JSON report: the span layer's structural invariant (sub-phase time
    // nests inside each request's root span) and the per-phase attribution
    // covering the bulk of measured time.
    let out = wdm()
        .args([
            "trace",
            "analyze",
            trace_path.to_str().expect("utf8"),
            "--json",
            "--top",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("trace analyze emits JSON");
    assert_eq!(
        v.get("phase_sum_ok"),
        Some(&serde_json::Value::Bool(true)),
        "sub-phase durations must nest inside each root span"
    );
    let fraction = match v.get("attributed_fraction") {
        Some(serde_json::Value::Number(n)) => n.as_f64(),
        other => panic!("attributed_fraction missing: {other:?}"),
    };
    // The acceptance bar is 95% on a quiet machine; leave headroom for
    // noisy CI schedulers inflating the root span between sub-phases.
    assert!(
        fraction > 0.90,
        "per-phase attribution explains only {:.1}% of measured time",
        fraction * 100.0
    );
    let phases = v
        .get("phase_ns")
        .and_then(|p| p.as_object())
        .expect("phase_ns object");
    for required in ["suurballe_p1", "suurballe_p2", "commit"] {
        let ns = phases
            .iter()
            .find(|(k, _)| k == required)
            .map(|(_, val)| match val {
                serde_json::Value::Number(n) => n.as_f64(),
                _ => 0.0,
            })
            .unwrap_or(0.0);
        assert!(ns > 0.0, "phase '{required}' recorded no time: {phases:?}");
    }
    let top = v.get("top").and_then(|t| t.as_array()).expect("top array");
    assert!(!top.is_empty() && top.len() <= 3, "top-K wants K entries");
    for entry in top {
        assert!(entry.get("journal_seq").is_some(), "top entries correlate");
    }
}

/// A trace written under the earlier 16-phase layout (with `abort`,
/// `epoch_check` and `rollback` slots) is rejected rather than read into
/// the wrong phases.
#[test]
fn trace_analyze_rejects_another_phase_layout() {
    let old_layout = [
        "request",
        "aux_refresh",
        "suurballe_p1",
        "suurballe_p2",
        "map_back",
        "refine",
        "commit",
        "abort",
        "admission",
        "queue_wait",
        "lock_acquire",
        "epoch_check",
        "wal_fsync",
        "rollback",
        "respond",
        "telemetry",
    ];
    let phases: Vec<String> = old_layout.iter().map(|p| format!("{p:?}")).collect();
    let record = "{\"request\":0,\"src\":0,\"dst\":13,\"policy\":\"cost-only\",\
        \"outcome\":\"routed\",\"journal_seq\":0,\"footprint_links\":6,\
        \"phase_ns\":[900,0,0,0,0,0,100,0,150,300,50,10,200,0,80,10],\
        \"total_ns\":900,\"abort_cause\":null}";
    let trace = format!(
        "{{\"policy\":\"cost-only\",\"seed\":0,\"phases\":[{}],\"offered\":1,\
         \"flight\":{{\"records\":[{record}],\"annotations\":[],\"anomaly\":null,\
         \"total_requests\":1,\"dropped\":0}}}}",
        phases.join(",")
    );
    let path = tmp("old_layout_trace.json");
    std::fs::write(&path, trace).expect("write trace");
    let out = wdm()
        .args(["trace", "analyze", path.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "old layout accepted: {err}");
    assert!(err.contains("phase layout"), "{err}");
    assert!(
        err.contains("\"epoch_check\"") && err.contains("\"reroute\""),
        "the error prints both layouts: {err}"
    );
}

#[test]
fn replay_telemetry_matches_live() {
    let net_path = tmp("replay_telemetry.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    for policy in ["cost-only", "joint"] {
        for seed in ["3", "9"] {
            let base = [
                "simulate",
                "--net",
                net_path.to_str().expect("utf8"),
                "--erlangs",
                "40",
                "--duration",
                "120",
                "--policy",
                policy,
                "--seed",
                seed,
            ];
            let out = wdm()
                .args(base)
                .args(["--telemetry", "json", "--json"])
                .output()
                .expect("spawn");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let live: serde_json::Value =
                serde_json::from_slice(&out.stdout).expect("live telemetry JSON");

            let journal_path = tmp(&format!("replay_telemetry_{policy}_{seed}.json"));
            assert!(wdm()
                .args(base)
                .args(["--journal", journal_path.to_str().expect("utf8")])
                .status()
                .expect("spawn")
                .success());
            let out = wdm()
                .args([
                    "replay",
                    journal_path.to_str().expect("utf8"),
                    "--telemetry",
                    "json",
                    "--json",
                ])
                .output()
                .expect("spawn");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let replayed: serde_json::Value =
                serde_json::from_slice(&out.stdout).expect("replayed telemetry JSON");

            let live_t = comparable_telemetry(live.get("telemetry").expect("live telemetry"));
            let replayed_t =
                comparable_telemetry(replayed.get("telemetry").expect("replayed telemetry"));
            assert_eq!(
                live_t, replayed_t,
                "replayed telemetry diverged from live run ({policy}, seed {seed})"
            );
        }
    }
}

/// `wdm serve --resume` refuses a log recorded on another network than
/// `--net`, before it binds, and resumes one recorded on the same network.
#[test]
fn serve_resume_refuses_a_log_of_another_network() {
    use std::io::{BufRead, Read};
    use wdm_core::network::ResidualState;
    use wdm_serve::wal::WalSink;
    use wdm_sim::policy::Policy;

    let nsfnet = tmp("resume-nsfnet.wdm");
    let ring = tmp("resume-ring.wdm");
    for (preset, w, path) in [("nsfnet", "8", &nsfnet), ("ring:6", "4", &ring)] {
        let out = wdm()
            .args(["topology", preset, "--wavelengths", w])
            .arg("--out")
            .arg(path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // A clean log of a daemon that served nothing on NSFNET.
    let text = std::fs::read_to_string(&nsfnet).expect("read");
    let net = wdm_core::io::parse_network(&text).expect("parse");
    let old = tmp("resume-old.wal.jsonl");
    let state = ResidualState::fresh(&net);
    let mut wal = WalSink::create(&old, &net, Policy::CostOnly, &state).expect("create");
    wal.finalize(&state).expect("finalize");
    let new = tmp("resume-new.wal.jsonl");
    std::fs::remove_file(&new).ok();
    // Starts the daemon on `net`, reads its first line of output (the
    // bind, or nothing when it exits first) and stops it: returns that
    // line, its exit code (`None` when it had to be killed) and stderr.
    let resume = |net: &PathBuf| {
        let mut daemon = wdm()
            .args(["serve", "--port", "0", "--threads", "1"])
            .arg("--net")
            .arg(net)
            .arg("--wal")
            .arg(&new)
            .arg("--resume")
            .arg(&old)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn");
        let mut first = String::new();
        std::io::BufReader::new(daemon.stdout.take().expect("stdout"))
            .read_line(&mut first)
            .expect("read");
        daemon.kill().ok();
        let status = daemon.wait().expect("reap");
        let mut stderr = String::new();
        daemon
            .stderr
            .take()
            .expect("stderr")
            .read_to_string(&mut stderr)
            .expect("read");
        (first, status.code(), stderr)
    };

    let (first, code, stderr) = resume(&ring);
    assert_eq!(first, "", "the daemon served another network's log");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("recorded on another network"), "{stderr}");
    assert!(!new.exists(), "a refused resume writes no log");

    let (first, _, stderr) = resume(&nsfnet);
    assert!(first.starts_with("serving http://"), "{first}{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    for path in [nsfnet, ring, old, new] {
        std::fs::remove_file(path).ok();
    }
}

/// A second `wdm serve` on a running daemon's port and log exits 2 at
/// once and leaves the log alone: the daemon binds before it creates (and
/// truncates) its WAL, and the address printer stops waiting as soon as
/// the daemon has failed.
#[test]
fn serve_on_a_taken_port_exits_at_once_and_keeps_the_log() {
    use std::io::{BufRead, Read, Write};
    use std::time::{Duration, Instant};

    let net = tmp("taken-nsfnet.wdm");
    let out = wdm()
        .args(["topology", "nsfnet", "--wavelengths", "8"])
        .arg("--out")
        .arg(&net)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let wal = tmp("taken.wal.jsonl");
    std::fs::remove_file(&wal).ok();
    let serve = |port: &str| {
        let mut cmd = wdm();
        cmd.args(["serve", "--port", port, "--threads", "1"])
            .arg("--net")
            .arg(&net)
            .arg("--wal")
            .arg(&wal);
        cmd
    };
    /// Stops the first daemon if an assertion fails while it serves.
    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            self.0.kill().ok();
            self.0.wait().ok();
        }
    }
    let mut first = Reap(
        serve("0")
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn"),
    );
    let mut stdout = std::io::BufReader::new(first.0.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read");
    let addr = line
        .strip_prefix("serving http://")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();
    // One provision, so the log holds an event past its header.
    let body = r#"{"src":0,"dst":9}"#;
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    write!(
        conn,
        "POST /provision HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut answer = String::new();
    conn.read_to_string(&mut answer).expect("answer");
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");

    let port = addr.rsplit(':').next().expect("a port");
    let started = Instant::now();
    let second = serve(port).output().expect("spawn");
    let took = started.elapsed();
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert_eq!(second.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("in use"), "{stderr}");
    // A bind failure, not a log failure: the first daemon's log is fine.
    assert!(
        stderr.contains("bind") && !stderr.contains("wal"),
        "{stderr}"
    );
    assert!(
        took < Duration::from_secs(1),
        "the second daemon took {took:?} to exit"
    );

    let term = Command::new("kill")
        .args(["-TERM", &first.0.id().to_string()])
        .status()
        .expect("kill");
    assert!(term.success());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read");
    assert!(first.0.wait().expect("reap").success(), "{rest}");
    assert!(rest.contains("clean"), "{rest}");
    let replay = wdm()
        .arg("replay")
        .arg(&wal)
        .arg("--verify")
        .output()
        .expect("spawn");
    assert!(
        replay.status.success(),
        "the first daemon's log no longer verifies: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    for path in [net, wal] {
        std::fs::remove_file(path).ok();
    }
}

/// A JSON network gets the checks a WAL header gets: a link with fewer
/// per-wavelength costs than W is refused up front, by name, instead of
/// panicking when routing looks a cost up.
#[test]
fn a_json_network_with_too_few_per_lambda_costs_is_refused() {
    let out = wdm()
        .args(["topology", "ring:4", "--format", "json"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    // The export lists the edges in id order, each with its costs.
    let json = String::from_utf8(out.stdout).expect("utf-8");
    let uniform = "\"per_lambda\": null";
    assert!(json.contains(uniform), "{json}");
    let path = tmp("short-per-lambda.json");
    std::fs::write(&path, json.replacen(uniform, "\"per_lambda\": [1.0]", 1)).expect("write");
    let out = wdm()
        .args(["route", "--from", "0", "--to", "2"])
        .arg("--net")
        .arg(&path)
        .output()
        .expect("spawn");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("link 0 "), "{stderr}");
}
