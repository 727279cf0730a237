//! Integration tests: each determinism rule D1–D5 must fire on its bad
//! fixture at the expected file:line, stay silent on the clean fixture,
//! and honor (and count) the escape-hatch annotation.
//!
//! The fixtures under `tests/fixtures/` are plain text to the lint —
//! they are excluded from the workspace scan and never compiled.

use argus_lint::report::Report;
use argus_lint::Config;
use std::path::PathBuf;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A config that scans one fixture subtree with no allowlists.
fn cfg(scan: &str) -> Config {
    Config {
        root: fixtures(),
        scan_dirs: vec![scan.to_string()],
        exclude: vec![],
        wall_clock_allow: vec![],
    }
}

fn run(scan: &str) -> Report {
    argus_lint::run(&cfg(scan)).expect("fixture scan")
}

/// (rule, file suffix, line) triples of unsuppressed deny findings.
fn denies(rep: &Report) -> Vec<(String, String, u32)> {
    rep.deny()
        .map(|f| (f.rule_id.clone(), f.file.clone(), f.line))
        .collect()
}

#[test]
fn d1_wall_clock_fixture() {
    let rep = run("bad/d1_wall_clock.rs");
    let d = denies(&rep);
    assert_eq!(d.len(), 2, "{d:?}");
    assert_eq!(d[0], ("D1".into(), "bad/d1_wall_clock.rs".into(), 5));
    assert_eq!(d[1], ("D1".into(), "bad/d1_wall_clock.rs".into(), 6));
}

#[test]
fn d1_obs_recorder_fixture() {
    // A telemetry recorder that stamps events with the host clock is
    // exactly the regression D1 exists to catch in the obs crate.
    let rep = run("bad/d1_obs_recorder.rs");
    let d = denies(&rep);
    assert_eq!(d.len(), 2, "{d:?}");
    assert_eq!(d[0], ("D1".into(), "bad/d1_obs_recorder.rs".into(), 12));
    assert_eq!(d[1], ("D1".into(), "bad/d1_obs_recorder.rs".into(), 13));
}

#[test]
fn obs_crate_is_wall_clock_free() {
    // The §12 telemetry plane runs on sim-time only: scan the real obs
    // crate with NO wall-clock allowlist and require zero findings.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let cfg = Config {
        root,
        scan_dirs: vec!["crates/obs".into()],
        exclude: vec![],
        wall_clock_allow: vec![],
    };
    let rep = argus_lint::run(&cfg).expect("obs scan");
    assert!(rep.files_scanned >= 4, "obs crate shrank unexpectedly");
    assert_eq!(rep.deny_count(), 0, "{:?}", denies(&rep));
    assert_eq!(rep.allowed().count(), 0, "obs must not need escape hatches");
}

#[test]
fn cascade_plane_is_deterministic_under_all_rules() {
    // The §13 cascade plane sits on the serving path: scan it with NO
    // allowlists — no wall clocks, no unordered iteration, no stray
    // threads, no unseeded RNG, and no escape hatches either. The
    // `Discriminator` contract (pure function of seed and inputs)
    // depends on D1/D5 actually holding here.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let cfg = Config {
        root,
        scan_dirs: vec!["crates/core/src/cascade".into()],
        exclude: vec![],
        wall_clock_allow: vec![],
    };
    let rep = argus_lint::run(&cfg).expect("cascade scan");
    assert!(rep.files_scanned >= 1, "cascade module missing");
    assert_eq!(rep.deny_count(), 0, "{:?}", denies(&rep));
    assert_eq!(
        rep.allowed().count(),
        0,
        "cascade must not need escape hatches"
    );
}

#[test]
fn d2_unordered_iter_fixture() {
    let rep = run("bad/d2_unordered_iter.rs");
    let d = denies(&rep);
    assert_eq!(d.len(), 2, "{d:?}");
    assert_eq!(d[0], ("D2".into(), "bad/d2_unordered_iter.rs".into(), 11));
    assert_eq!(d[1], ("D2".into(), "bad/d2_unordered_iter.rs".into(), 15));
}

#[test]
fn d3_unbounded_channel_fixture() {
    let rep = run("bad/d3_unbounded_channel.rs");
    let d = denies(&rep);
    assert_eq!(d.len(), 2, "{d:?}");
    assert_eq!(d[0], ("D3".into(), "bad/d3_unbounded_channel.rs".into(), 6));
    assert_eq!(d[1], ("D3".into(), "bad/d3_unbounded_channel.rs".into(), 7));
}

#[test]
fn d4_stray_thread_fixture() {
    let rep = run("bad/d4_stray_thread.rs");
    let d = denies(&rep);
    assert_eq!(d.len(), 2, "{d:?}");
    assert_eq!(d[0], ("D4".into(), "bad/d4_stray_thread.rs".into(), 5));
    assert_eq!(d[1], ("D4".into(), "bad/d4_stray_thread.rs".into(), 6));
}

#[test]
fn d5_unseeded_rng_fixture() {
    let rep = run("bad/d5_unseeded_rng.rs");
    let d = denies(&rep);
    assert_eq!(d.len(), 2, "{d:?}");
    assert_eq!(d[0], ("D5".into(), "bad/d5_unseeded_rng.rs".into(), 4));
    assert_eq!(d[1], ("D5".into(), "bad/d5_unseeded_rng.rs".into(), 5));
}

#[test]
fn clean_fixture_has_zero_findings() {
    let rep = run("clean");
    assert_eq!(rep.deny_count(), 0, "{:?}", denies(&rep));
    assert_eq!(rep.allowed().count(), 0);
    assert_eq!(rep.files_scanned, 1);
}

#[test]
fn escape_hatch_suppresses_and_is_counted() {
    let rep = run("allowed");
    assert_eq!(rep.deny_count(), 0, "{:?}", denies(&rep));
    let allowed: Vec<_> = rep.allowed().collect();
    assert_eq!(allowed.len(), 1);
    assert_eq!(allowed[0].rule_id, "D1");
    assert_eq!(allowed[0].file, "allowed/annotated.rs");
}

#[test]
fn missing_reason_keeps_deny_and_flags_annotation() {
    let rep = run("bad/la_missing_reason.rs");
    let d = denies(&rep);
    // The D1 deny survives AND the annotation itself is flagged.
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(d.iter().any(|(r, _, l)| r == "D1" && *l == 6), "{d:?}");
    assert!(d.iter().any(|(r, _, l)| r == "LA" && *l == 5), "{d:?}");
    assert_eq!(rep.allowed().count(), 0);
}

#[test]
fn workspace_scan_is_clean() {
    // The real acceptance gate: the workspace itself must lint clean.
    // CARGO_MANIFEST_DIR is crates/lint; the repo root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let rep = argus_lint::run(&Config::for_repo(root)).expect("workspace scan");
    let d = denies(&rep);
    assert_eq!(rep.deny_count(), 0, "{d:?}");
    // The annotated escape hatches are counted, not silently dropped.
    assert!(rep.allowed().count() >= 4, "{}", rep.allowed().count());
}
