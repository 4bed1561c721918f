//! Fixture corpus for every lint ID: each lint has at least one seeded
//! bad source (findings fire, and gate the exit code) and one seeded
//! good source (no findings), plus end-to-end runs of the real binary
//! against seeded workspaces and against this repository itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use netdiag_xtask::engine::{run, Level, Lint, SrcFile};
use netdiag_xtask::lints::run_one;

fn fixture(name: &str) -> &'static str {
    match name {
        "hash_iter_bad" => include_str!("fixtures/hash_iter_bad.rs"),
        "hash_iter_good" => include_str!("fixtures/hash_iter_good.rs"),
        "hash_iter_allowed" => include_str!("fixtures/hash_iter_allowed.rs"),
        "nondet_bad" => include_str!("fixtures/nondet_bad.rs"),
        "nondet_good" => include_str!("fixtures/nondet_good.rs"),
        "panic_bad" => include_str!("fixtures/panic_bad.rs"),
        "panic_good" => include_str!("fixtures/panic_good.rs"),
        "unwrap_bad" => include_str!("fixtures/unwrap_bad.rs"),
        "unwrap_good" => include_str!("fixtures/unwrap_good.rs"),
        "slice_index_bad" => include_str!("fixtures/slice_index_bad.rs"),
        "slice_index_good" => include_str!("fixtures/slice_index_good.rs"),
        "allow_bad" => include_str!("fixtures/allow_bad.rs"),
        "lock_order_bad" => include_str!("fixtures/lock_order_bad.rs"),
        "lock_order_good" => include_str!("fixtures/lock_order_good.rs"),
        "lock_blocking_bad" => include_str!("fixtures/lock_blocking_bad.rs"),
        "lock_blocking_good" => include_str!("fixtures/lock_blocking_good.rs"),
        "hot_alloc_bad" => include_str!("fixtures/hot_alloc_bad.rs"),
        "hot_alloc_good" => include_str!("fixtures/hot_alloc_good.rs"),
        "hot_alloc_refcount_bad" => include_str!("fixtures/hot_alloc_refcount_bad.rs"),
        "hot_alloc_refcount_good" => include_str!("fixtures/hot_alloc_refcount_good.rs"),
        "layering_bad" => include_str!("fixtures/layering_bad.rs"),
        "layering_good" => include_str!("fixtures/layering_good.rs"),
        "stale_allow_bad" => include_str!("fixtures/stale_allow_bad.rs"),
        "stale_allow_good" => include_str!("fixtures/stale_allow_good.rs"),
        "obs_names" => include_str!("fixtures/obs/names.rs"),
        "obs_call_bad" => include_str!("fixtures/obs/call_bad.rs"),
        "obs_call_good" => include_str!("fixtures/obs/call_good.rs"),
        other => panic!("unknown fixture {other}"),
    }
}

fn lints_of(crate_name: &str, src: &str) -> Vec<Lint> {
    run_one(crate_name, "fixture.rs", src)
        .into_iter()
        .map(|f| f.lint)
        .collect()
}

// --- hash-iter ---------------------------------------------------------------

#[test]
fn hash_iter_bad_fires_on_every_iteration_site() {
    let found = lints_of("netsim", fixture("hash_iter_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::HashIter).count(),
        4,
        "for-loop over .iter(), .keys() chain, for-over-set and .values() of a SeededMap: {found:?}"
    );
}

#[test]
fn hash_iter_good_is_clean() {
    assert!(lints_of("netsim", fixture("hash_iter_good")).is_empty());
}

#[test]
fn hash_iter_allow_directive_suppresses_with_justification() {
    assert!(lints_of("netsim", fixture("hash_iter_allowed")).is_empty());
}

#[test]
fn hash_iter_does_not_apply_outside_deterministic_crates() {
    assert!(!lints_of("netsim", fixture("hash_iter_bad")).is_empty());
    assert!(lints_of("obs", fixture("hash_iter_bad"))
        .iter()
        .all(|&l| l != Lint::HashIter));
}

// --- nondet-source -----------------------------------------------------------

#[test]
fn nondet_bad_fires_on_clock_rng_and_env() {
    let found = lints_of("core", fixture("nondet_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::NondetSource).count(),
        4,
        "Instant::now, SystemTime::now, thread_rng, std::env: {found:?}"
    );
}

#[test]
fn nondet_good_is_clean_including_strings_and_comments() {
    assert!(lints_of("core", fixture("nondet_good")).is_empty());
}

// --- panic-macro -------------------------------------------------------------

#[test]
fn panic_bad_fires_on_all_four_macros() {
    let found = lints_of("igp", fixture("panic_bad"));
    assert_eq!(found.iter().filter(|&&l| l == Lint::PanicMacro).count(), 4);
}

#[test]
fn panic_good_exempts_test_modules() {
    assert!(lints_of("igp", fixture("panic_good")).is_empty());
}

// --- unwrap ------------------------------------------------------------------

#[test]
fn unwrap_bad_fires_on_unwrap_and_undocumented_expect() {
    let found = lints_of("bgp", fixture("unwrap_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::Unwrap).count(),
        3,
        ".unwrap(), short .expect, non-literal .expect: {found:?}"
    );
}

#[test]
fn unwrap_good_accepts_documented_expect_and_test_unwraps() {
    assert!(lints_of("bgp", fixture("unwrap_good")).is_empty());
}

// --- slice-index -------------------------------------------------------------

#[test]
fn slice_index_bad_fires_per_bracket() {
    let found = lints_of("topology", fixture("slice_index_bad"));
    // v[0] plus both brackets of m[i][j].
    assert_eq!(found.iter().filter(|&&l| l == Lint::SliceIndex).count(), 3);
}

#[test]
fn slice_index_good_ignores_types_literals_macros_and_patterns() {
    assert!(lints_of("topology", fixture("slice_index_good")).is_empty());
}

#[test]
fn slice_index_warns_by_default_but_gates_under_deny_override() {
    let files = [SrcFile {
        crate_name: "topology".to_string(),
        path: "fixture.rs".to_string(),
        src: fixture("slice_index_bad").to_string(),
    }];
    let default_run = run(&files, &BTreeMap::new());
    assert!(!default_run.gates(), "advisory by default");
    assert!(default_run.warnings().count() >= 3);

    let mut overrides = BTreeMap::new();
    overrides.insert("slice-index".to_string(), Level::Deny);
    assert!(run(&files, &overrides).gates(), "gates when promoted");
}

// --- bad-allow ---------------------------------------------------------------

#[test]
fn allow_bad_flags_unjustified_and_unknown_directives() {
    let found = lints_of("core", fixture("allow_bad"));
    assert_eq!(found.iter().filter(|&&l| l == Lint::BadAllow).count(), 2);
    // The unjustified directive does NOT suppress the unwrap it covers.
    assert!(found.contains(&Lint::Unwrap));
}

// --- lock-order --------------------------------------------------------------

#[test]
fn lock_order_bad_flags_both_sides_of_the_inversion() {
    let found = lints_of("serve", fixture("lock_order_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::LockOrder).count(),
        2,
        "queue->done and done->queue both sit on the cycle: {found:?}"
    );
}

#[test]
fn lock_order_good_accepts_a_consistent_global_order() {
    assert!(lints_of("serve", fixture("lock_order_good")).is_empty());
}

// --- lock-across-blocking ----------------------------------------------------

#[test]
fn lock_blocking_bad_flags_guards_held_across_recv_and_join() {
    let found = lints_of("serve", fixture("lock_blocking_bad"));
    assert_eq!(
        found
            .iter()
            .filter(|&&l| l == Lint::LockAcrossBlocking)
            .count(),
        2,
        "state guard across recv, workers guard across join: {found:?}"
    );
}

#[test]
fn lock_blocking_good_accepts_dropped_and_scoped_guards() {
    assert!(lints_of("serve", fixture("lock_blocking_good")).is_empty());
}

// --- hot-alloc ---------------------------------------------------------------

#[test]
fn hot_alloc_bad_flags_direct_and_callee_allocations() {
    let found = lints_of("bgp", fixture("hot_alloc_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::HotAlloc).count(),
        5,
        "Vec::new, push on a growth local, format!, BTreeSet::from, Box::new via helper: {found:?}"
    );
}

#[test]
fn hot_alloc_good_accepts_reused_buffers_and_cold_allocations() {
    assert!(lints_of("bgp", fixture("hot_alloc_good")).is_empty());
}

#[test]
fn hot_alloc_flags_shared_refcount_bumps_in_hot_bodies_and_callees() {
    let findings = run_one("bgp", "fixture.rs", fixture("hot_alloc_refcount_bad"));
    let hot: Vec<_> = findings
        .iter()
        .filter(|f| f.lint == Lint::HotAlloc)
        .collect();
    assert_eq!(
        hot.len(),
        2,
        "Arc::clone in the hot fn, Rc::clone in its callee: {findings:?}"
    );
    assert!(
        hot.iter().all(|f| f.message.contains("refcount")),
        "{findings:?}"
    );
}

#[test]
fn hot_alloc_accepts_reborrows_and_cold_refcount_bumps() {
    assert!(lints_of("bgp", fixture("hot_alloc_refcount_good")).is_empty());
}

// --- layering ----------------------------------------------------------------

#[test]
fn layering_bad_flags_each_upward_import() {
    let found = lints_of("topology", fixture("layering_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::Layering).count(),
        2,
        "topology must not import bgp or serve: {found:?}"
    );
}

#[test]
fn layering_good_accepts_imports_at_or_below_the_crate() {
    assert!(lints_of("bgp", fixture("layering_good")).is_empty());
}

#[test]
fn layering_same_imports_gate_from_a_lower_crate() {
    // The good fixture's imports are fine for bgp but not for topology:
    // igp sits above it (obs/rand stay legal, self-use is skipped).
    let found = lints_of("topology", fixture("layering_good"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::Layering).count(),
        1,
        "igp sits above topology: {found:?}"
    );
}

// --- stale-allow -------------------------------------------------------------

#[test]
fn stale_allow_bad_flags_a_directive_that_suppresses_nothing() {
    let found = lints_of("core", fixture("stale_allow_bad"));
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::StaleAllow).count(),
        1,
        "{found:?}"
    );
}

#[test]
fn stale_allow_good_credits_a_directive_that_fires() {
    assert!(lints_of("core", fixture("stale_allow_good")).is_empty());
}

// --- obs names ---------------------------------------------------------------

fn obs_files(call_fixture: &str) -> Vec<SrcFile> {
    vec![
        SrcFile {
            crate_name: "obs".to_string(),
            path: "crates/obs/src/names.rs".to_string(),
            src: fixture("obs_names").to_string(),
        },
        SrcFile {
            crate_name: "netsim".to_string(),
            path: "crates/netsim/src/probe.rs".to_string(),
            src: fixture(call_fixture).to_string(),
        },
    ]
}

#[test]
fn obs_bad_flags_rogue_literal_unknown_const_and_bare_const() {
    let report = run(&obs_files("obs_call_bad"), &BTreeMap::new());
    let unknown = report
        .errors()
        .filter(|f| f.lint == Lint::ObsUnknownName)
        .count();
    assert_eq!(
        unknown, 4,
        "literal, names:: path, bare const and event literal"
    );
    assert!(report.gates());
}

#[test]
fn obs_good_passes_call_check_but_flags_the_dead_name() {
    let report = run(&obs_files("obs_call_good"), &BTreeMap::new());
    let findings: Vec<_> = report.errors().collect();
    assert!(findings.iter().all(|f| f.lint != Lint::ObsUnknownName));
    let dead: Vec<_> = findings
        .iter()
        .filter(|f| f.lint == Lint::ObsDeadName)
        .collect();
    assert_eq!(dead.len(), 1);
    assert!(dead[0].message.contains("DEAD_METRIC"));
    assert!(dead[0].file.ends_with("names.rs"));
}

#[test]
fn every_lint_id_has_a_firing_fixture() {
    // The corpus above covers the whole catalog; this guards against a
    // new lint landing without fixtures.
    let mut fired = std::collections::BTreeSet::new();
    for (crate_name, fixture_name) in [
        ("netsim", "hash_iter_bad"),
        ("core", "nondet_bad"),
        ("igp", "panic_bad"),
        ("bgp", "unwrap_bad"),
        ("topology", "slice_index_bad"),
        ("core", "allow_bad"),
        ("serve", "lock_order_bad"),
        ("serve", "lock_blocking_bad"),
        ("bgp", "hot_alloc_bad"),
        ("topology", "layering_bad"),
        ("core", "stale_allow_bad"),
    ] {
        fired.extend(lints_of(crate_name, fixture(fixture_name)));
    }
    for f in run(&obs_files("obs_call_bad"), &BTreeMap::new())
        .errors()
        .chain(run(&obs_files("obs_call_good"), &BTreeMap::new()).errors())
    {
        fired.insert(f.lint);
    }
    for lint in Lint::ALL {
        assert!(fired.contains(&lint), "no fixture fires {}", lint.id());
    }
}

// --- end-to-end binary runs --------------------------------------------------

/// Builds a throwaway workspace skeleton under the target tmp dir.
fn seeded_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-ws-{tag}"));
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("stale seeded workspace must be removable");
    }
    std::fs::create_dir_all(root.join("crates/obs/src")).expect("create obs src dir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    std::fs::write(
        root.join("crates/obs/src/names.rs"),
        fixture("obs_names").to_string() + "\n// keep fixture vocab alive\n",
    )
    .expect("write names.rs");
    for (rel, body) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dir");
        std::fs::write(path, body).expect("write fixture file");
    }
    root
}

fn run_binary_on(root: &Path) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_netdiag-xtask"))
        .args(["lint", "--root"])
        .arg(root)
        // The seeded vocabulary has no call sites in these minimal
        // workspaces; dead names are exercised by engine-level tests.
        .args(["--warn", "obs-dead-name"])
        .output()
        .expect("spawn netdiag-xtask")
}

#[test]
fn binary_exits_nonzero_on_each_seeded_bad_workspace() {
    for (tag, bad) in [
        ("hash", "hash_iter_bad"),
        ("nondet", "nondet_bad"),
        ("panic", "panic_bad"),
        ("unwrap", "unwrap_bad"),
        ("allow", "allow_bad"),
        ("obs", "obs_call_bad"),
        ("stale", "stale_allow_bad"),
    ] {
        let root = seeded_workspace(tag, &[("crates/core/src/lib.rs", fixture(bad))]);
        let out = run_binary_on(&root);
        assert!(
            !out.status.success(),
            "{tag}: expected a gating exit code; stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_exits_nonzero_on_each_seeded_graph_violation() {
    // Graph lints are placed in the crate whose rules they break.
    for (tag, rel, bad) in [
        ("lockord", "crates/serve/src/lib.rs", "lock_order_bad"),
        ("lockblk", "crates/serve/src/lib.rs", "lock_blocking_bad"),
        ("hotalloc", "crates/bgp/src/lib.rs", "hot_alloc_bad"),
        ("layering", "crates/topology/src/lib.rs", "layering_bad"),
    ] {
        let root = seeded_workspace(tag, &[(rel, fixture(bad))]);
        let out = run_binary_on(&root);
        assert!(
            !out.status.success(),
            "{tag}: expected a gating exit code; stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_exits_zero_on_a_clean_seeded_workspace() {
    let root = seeded_workspace(
        "clean",
        &[
            ("crates/core/src/lib.rs", fixture("hash_iter_good")),
            ("crates/netsim/src/lib.rs", fixture("unwrap_good")),
            ("crates/serve/src/lib.rs", fixture("lock_blocking_good")),
            ("crates/bgp/src/lib.rs", fixture("hot_alloc_good")),
            ("crates/bgp/src/layering.rs", fixture("layering_good")),
        ],
    );
    let out = run_binary_on(&root);
    assert!(
        out.status.success(),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_exits_zero_on_this_repository() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels under the workspace root");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_netdiag-xtask"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("spawn netdiag-xtask");
    assert!(
        out.status.success(),
        "the workspace gate is red:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
