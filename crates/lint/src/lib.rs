//! argus_lint — the determinism static analysis pass.
//!
//! An offline, dependency-free checker for the determinism contract of
//! DESIGN.md §2/§10: a simulation run must be a pure function of
//! `(policy, trace, seed)`. Rules:
//!
//! - **D1 `wall-clock`** — no `Instant::now` / `SystemTime` outside the
//!   bench crate or an annotated site.
//! - **D2 `unordered-iter`** — no iteration over `HashMap`/`HashSet`;
//!   use `BTreeMap` or sort explicitly.
//! - **D4 `stray-thread`** — no `thread::spawn`/`scope`/`Builder`
//!   anywhere: the simulation runs on one thread.
//! - **D5 `unseeded-rng`** — no `thread_rng`/OS entropy.
//!
//! Escape hatch: `// lint: allow(<slug>) — <reason>` on the line above
//! (or on) the site. Allowed sites are demoted to notes, counted, and
//! listed in the report; a missing or empty reason is itself a deny.

pub mod lexer;
pub mod report;
pub mod rules;

use report::{Finding, Report, Severity};
use std::path::{Path, PathBuf};

/// What to scan and what the per-rule allowlists are. Paths are
/// repo-relative prefixes with `/` separators.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repo root; all findings are reported relative to it.
    pub root: PathBuf,
    /// Directories (relative to root) to walk for `.rs` files.
    pub scan_dirs: Vec<String>,
    /// Path prefixes to skip entirely.
    pub exclude: Vec<String>,
    /// Prefixes where D1 wall-clock reads are expected (benchmarks).
    pub wall_clock_allow: Vec<String>,
}

impl Config {
    /// The workspace configuration used by CI.
    pub fn for_repo(root: impl Into<PathBuf>) -> Self {
        Config {
            root: root.into(),
            scan_dirs: vec![
                "crates".into(),
                "src".into(),
                "tests".into(),
                "examples".into(),
            ],
            exclude: vec![
                "crates/lint/tests/fixtures".into(),
                "crates/shims".into(),
                "target".into(),
            ],
            wall_clock_allow: vec!["crates/bench/".into()],
        }
    }
}

/// Runs the full lint over `cfg` and returns the report, findings
/// sorted by (file, line, rule).
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let mut files = collect_files(cfg)?;
    files.sort();
    let mut rep = Report::default();

    for rel in &files {
        let abs = cfg.root.join(rel);
        let src = std::fs::read_to_string(&abs)?;
        rep.files_scanned += 1;
        rep.lines_scanned += src.lines().count();
        let lexed = lexer::lex(&src);
        let mut file_findings: Vec<Finding> = Vec::new();

        if !has_prefix(rel, &cfg.wall_clock_allow) {
            file_findings.extend(rules::wall_clock(rel, &lexed));
        }
        file_findings.extend(rules::unordered_iter(rel, &lexed));
        file_findings.extend(rules::stray_thread(rel, &lexed));
        file_findings.extend(rules::unseeded_rng(rel, &lexed));

        // Apply escape hatches: an allow for the right slug on the
        // finding's own line, or whose next token line is the finding's.
        let mut used = vec![false; lexed.allows.len()];
        for f in &mut file_findings {
            for (ai, a) in lexed.allows.iter().enumerate() {
                if a.rule != f.slug {
                    continue;
                }
                let covers = a.line == f.line || lexed.next_token_line(a.line) == Some(f.line);
                if covers {
                    used[ai] = true;
                    if a.has_reason {
                        f.allowed = true;
                    } else {
                        // The annotation matched but lacks a reason:
                        // keep the deny and add an annotation finding.
                    }
                }
            }
        }
        // Annotation-grammar findings: unknown slug, missing reason, or
        // an allow that suppresses nothing (stale).
        for (ai, a) in lexed.allows.iter().enumerate() {
            if rules::rule_by_slug(&a.rule).is_none() {
                file_findings.push(Finding {
                    rule_id: "LA".into(),
                    slug: "lint-annotation".into(),
                    severity: Severity::Deny,
                    file: rel.clone(),
                    line: a.line,
                    message: format!("allow names unknown rule `{}`", a.rule),
                    in_test: lexed.in_test(a.line),
                    allowed: false,
                });
            } else if !a.has_reason {
                file_findings.push(Finding {
                    rule_id: "LA".into(),
                    slug: "lint-annotation".into(),
                    severity: Severity::Deny,
                    file: rel.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) without a reason — write `// lint: allow({}) — <why>`",
                        a.rule, a.rule
                    ),
                    in_test: lexed.in_test(a.line),
                    allowed: false,
                });
            } else if !used[ai] {
                file_findings.push(Finding {
                    rule_id: "LA".into(),
                    slug: "lint-annotation".into(),
                    severity: Severity::Deny,
                    file: rel.clone(),
                    line: a.line,
                    message: format!("stale allow({}) — it suppresses nothing", a.rule),
                    in_test: lexed.in_test(a.line),
                    allowed: false,
                });
            }
        }

        rep.findings.append(&mut file_findings);
    }

    rep.findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule_id).cmp(&(&b.file, b.line, &b.rule_id)));
    Ok(rep)
}

fn has_prefix(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

/// Collects repo-relative `.rs` paths under the configured scan dirs,
/// skipping excluded prefixes. The walk is sorted for a deterministic
/// report.
fn collect_files(cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for dir in &cfg.scan_dirs {
        let abs = cfg.root.join(dir);
        if abs.is_dir() {
            walk(&cfg.root, &abs, &cfg.exclude, &mut out)?;
        } else if abs.is_file() && dir.ends_with(".rs") {
            out.push(dir.clone());
        }
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, exclude: &[String], out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if exclude.iter().any(|x| rel.starts_with(x.as_str())) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, exclude, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}
