//! Integration tests of the two command-line binaries, spawned as real
//! processes (Cargo exposes their paths via `CARGO_BIN_EXE_*`).

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn netdiag() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netdiag"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netdiag_cli_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn figures_quick_writes_csv_and_prints_table() {
    let dir = temp_dir("fig5");
    let out = figures()
        .args(["fig5", "--quick", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig5_placement_diagnosability"));
    assert!(stdout.contains("same_as"));
    let csv = fs::read_to_string(dir.join("fig5_placement_diagnosability.csv")).unwrap();
    assert!(csv.starts_with("sensors,"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn figures_rejects_bad_arguments() {
    for args in [vec!["nope"], vec!["fig5", "--placements", "abc"], vec![]] {
        let out = figures().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn netdiag_simulate_diagnose_roundtrip() {
    let dir = temp_dir("roundtrip");
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            dir.to_str().unwrap(),
            "--failure",
            "links:1",
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [
        "sensors.txt",
        "before.txt",
        "after.txt",
        "feed.txt",
        "lg.txt",
        "ip2as.txt",
        "truth.txt",
        "topology.dot",
    ] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // Diagnose with every algorithm; nd-edge must include the true link.
    let truth = fs::read_to_string(dir.join("truth.txt")).unwrap();
    let failed_addr = truth
        .lines()
        .find(|l| l.starts_with("failed"))
        .unwrap()
        .split_whitespace()
        .nth(2)
        .unwrap()
        .to_string();
    for algo in ["tomo", "nd-edge", "nd-bgpigp", "nd-lg"] {
        let out = netdiag()
            .args(["diagnose", "--dir", dir.to_str().unwrap(), "--algo", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("NetDiagnoser report"), "{algo}");
        if algo == "nd-edge" {
            assert!(
                stdout.contains(&failed_addr),
                "nd-edge must suspect the failed link's interface {failed_addr}:\n{stdout}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_custom_topology() {
    let dir = temp_dir("custom");
    let topo = dir.join("net.txt");
    fs::write(
        &topo,
        "as Core core\nas S1 stub\nas S2 stub\n\
         router Core c1\nrouter S1 a1\nrouter S2 b1\n\
         provider c1 a1\nprovider c1 b1\n",
    )
    .unwrap();
    let out_dir = dir.join("scenario");
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            out_dir.to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
            "--sensors",
            "2",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = netdiag()
        .args(["diagnose", "--dir", out_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_rejects_bad_input() {
    // Missing directory.
    let out = netdiag()
        .args(["diagnose", "--dir", "/definitely/not/here"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Bad algorithm.
    let dir = temp_dir("badalgo");
    netdiag()
        .args(["simulate", "--out", dir.to_str().unwrap(), "--seed", "5"])
        .output()
        .unwrap();
    let out = netdiag()
        .args([
            "diagnose",
            "--dir",
            dir.to_str().unwrap(),
            "--algo",
            "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Corrupt scenario file: parse error names the line.
    let before = dir.join("before.txt");
    let mut text = fs::read_to_string(&before).unwrap();
    text.insert_str(0, "garbage-line\n");
    fs::write(&before, text).unwrap();
    let out = netdiag()
        .args(["diagnose", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error: line 1"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_rejects_degenerate_custom_topology() {
    let dir = temp_dir("degenerate");
    let topo = dir.join("net.txt");
    // No core AS at all.
    fs::write(
        &topo,
        "as S1 stub\nas S2 stub\nrouter S1 a1\nrouter S2 b1\npeer a1 b1\n",
    )
    .unwrap();
    let out = netdiag()
        .args([
            "simulate",
            "--out",
            dir.join("x").to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one core"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn netdiag_profile_writes_a_run_report() {
    use netdiag_obs::json::{parse, Json};
    use netdiag_obs::names;

    let dir = temp_dir("profile");
    let scenario = dir.join("scenario");
    let sim_profile = dir.join("simulate.json");
    let diag_profile = dir.join("diagnose.json");
    let run = |args: &[&str]| {
        let out = netdiag().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&[
        "simulate",
        "--out",
        scenario.to_str().unwrap(),
        "--seed",
        "5",
        "--profile",
        sim_profile.to_str().unwrap(),
    ]);
    run(&[
        "diagnose",
        "--dir",
        scenario.to_str().unwrap(),
        "--profile",
        diag_profile.to_str().unwrap(),
    ]);
    let counter = |report: &PathBuf, name: &str| {
        let doc = parse(&fs::read_to_string(report).unwrap()).unwrap();
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    for name in [names::IGP_SETTLED_NODES, names::BGP_MSGS] {
        assert!(counter(&sim_profile, name) > 0, "simulate: {name}");
    }
    for name in [names::DIAG_RUNS, names::HS_GREEDY_ITERS] {
        assert!(counter(&diag_profile, name) > 0, "diagnose: {name}");
    }
    let _ = fs::remove_dir_all(&dir);
}
