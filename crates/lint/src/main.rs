//! CLI: `argus_lint [--root <dir>] [--json <path>]`
//!
//! Scans the workspace, prints the human-readable table, writes
//! `LINT_REPORT.json`, and exits nonzero when any deny finding remains.

use argus_lint::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                let Some(v) = args.next() else {
                    eprintln!("argus_lint: --root needs a value");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(v);
            }
            "--json" => {
                let Some(v) = args.next() else {
                    eprintln!("argus_lint: --json needs a value");
                    return ExitCode::from(2);
                };
                json_path = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "argus_lint — determinism checks (DESIGN.md §10)\n\
                     usage: argus_lint [--root <dir>] [--json <path>]\n\
                     default json output: <root>/LINT_REPORT.json"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("argus_lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cfg = Config::for_repo(&root);
    let rep = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("argus_lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", rep.render_table());
    let json_path = json_path.unwrap_or_else(|| root.join("LINT_REPORT.json"));
    if let Err(e) = std::fs::write(&json_path, rep.render_json()) {
        eprintln!("argus_lint: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }
    println!("argus_lint: report written to {}", json_path.display());
    if rep.deny_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
