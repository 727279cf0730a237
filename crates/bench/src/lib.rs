//! # argus-bench — experiment harnesses
//!
//! One `harness = false` bench target per table/figure of the paper (see
//! `DESIGN.md` §4 for the index), so `cargo bench --workspace` regenerates
//! every artifact, plus Criterion micro-benchmarks in `benches/micro.rs`.
//!
//! This library holds the shared plumbing: table printing and multi-policy
//! run helpers.

use argus_core::{Policy, RunConfig, RunOutcome};
use argus_workload::Trace;

/// Prints a fixed-width table: a header row, a rule, then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper reference: {paper_ref}");
    println!("================================================================");
}

/// Runs each policy over the trace with a common seed.
pub fn run_policies(policies: &[Policy], trace: &Trace, seed: u64) -> Vec<(Policy, RunOutcome)> {
    policies
        .iter()
        .map(|&p| {
            let out = RunConfig::new(p, trace.clone()).with_seed(seed).run();
            (p, out)
        })
        .collect()
}

/// Aggregates per-minute records into buckets of `bucket` minutes,
/// returning `(bucket start, offered QPM, served QPM, relative quality %,
/// violation %)` rows.
pub fn bucket_series(out: &RunOutcome, bucket: usize) -> Vec<(u64, f64, f64, f64, f64)> {
    out.minutes
        .chunks(bucket.max(1))
        .map(|chunk| {
            let start = chunk.first().map(|m| m.minute).unwrap_or(0);
            let mins = chunk.len() as f64;
            let offered: u64 = chunk.iter().map(|m| m.offered).sum();
            let completed: u64 = chunk.iter().map(|m| m.completed).sum();
            let violations: u64 = chunk.iter().map(|m| m.violations).sum();
            let in_slo: u64 = chunk.iter().map(|m| m.in_slo).sum();
            let rel: f64 = chunk.iter().map(|m| m.relative_quality_sum).sum();
            (
                start,
                offered as f64 / mins,
                completed as f64 / mins,
                if in_slo > 0 {
                    100.0 * rel / in_slo as f64
                } else {
                    0.0
                },
                if offered > 0 {
                    100.0 * violations as f64 / offered as f64
                } else {
                    0.0
                },
            )
        })
        .collect()
}

/// Formats a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Min, median and max of a sample of repeated measurements: the spread a
/// timed `BENCH_*.json` row records next to the figure it judges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Middle sample (the upper one of an even count).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Spread {
            min: s[0],
            median: s[s.len() / 2],
            max: s[s.len() - 1],
        }
    }

    /// The min, median and max as table cells.
    pub fn cells(&self) -> Vec<String> {
        vec![f(self.min, 3), f(self.median, 3), f(self.max, 3)]
    }

    /// Appends `{name}_min`, `{name}_median` and `{name}_max` to `report`.
    pub fn add_to(&self, report: BenchReport, name: &str) -> BenchReport {
        report
            .float(&format!("{name}_min"), self.min, 3)
            .float(&format!("{name}_median"), self.median, 3)
            .float(&format!("{name}_max"), self.max, 3)
    }
}

/// Ordered builder for the `BENCH_*.json` artifacts the s-series guard
/// benches leave at the repo root for CI to diff.
///
/// Every report opens with the same two stamped fields — `"bench"` (the
/// guard's name) and `"schema_version"` (shared with the JSONL telemetry
/// header, [`argus_obs::JSONL_SCHEMA_VERSION`]) — followed by the
/// caller's fields in insertion order, pretty-printed with two-space
/// indents and a trailing newline. Numeric precision is the caller's
/// choice per field, so migrated emitters keep their historical formats.
#[derive(Debug, Clone)]
pub struct BenchReport {
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// A report for the guard bench named `bench`, stamped with the
    /// shared schema version.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            fields: vec![
                (
                    "bench".into(),
                    format!("\"{}\"", argus_obs::json_escape(bench)),
                ),
                (
                    "schema_version".into(),
                    argus_obs::JSONL_SCHEMA_VERSION.to_string(),
                ),
            ],
        }
    }

    /// Restamps the report's schema version: for a report whose own layout
    /// moved past the shared version.
    pub fn schema_version(mut self, version: u32) -> Self {
        self.fields[1].1 = version.to_string();
        self
    }

    /// An unstamped group, for nesting via [`BenchReport::nested`].
    pub fn group() -> Self {
        BenchReport { fields: Vec::new() }
    }

    /// Appends an unsigned-integer field.
    pub fn uint(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.into(), v.to_string()));
        self
    }

    /// Appends a float field rendered with `prec` decimal places.
    pub fn float(mut self, key: &str, v: f64, prec: usize) -> Self {
        self.fields.push((key.into(), f(v, prec)));
        self
    }

    /// Appends a string field (JSON-escaped).
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push((key.into(), format!("\"{}\"", argus_obs::json_escape(v))));
        self
    }

    /// Appends a nested object field.
    pub fn nested(mut self, key: &str, group: BenchReport) -> Self {
        let indented = group.render(1);
        self.fields.push((key.into(), indented));
        self
    }

    fn render(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        let body = self
            .fields
            .iter()
            .map(|(k, v)| format!("{pad}\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n{close}}}")
    }

    /// The rendered document, trailing newline included.
    pub fn to_json(&self) -> String {
        format!("{}\n", self.render(0))
    }

    /// Writes the report to `file_name` at the repository root (the
    /// conventional `BENCH_*.json` location).
    ///
    /// # Panics
    /// Panics when the write fails, failing the guard bench loudly.
    pub fn write(&self, file_name: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file_name);
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_workload::steady;

    #[test]
    fn bucket_series_aggregates() {
        let out = RunConfig::new(Policy::ClipperHt, steady(60.0, 4))
            .with_seed(1)
            .run();
        let rows = bucket_series(&out, 2);
        assert!(rows.len() >= 2);
        assert!(rows[0].1 > 0.0);
    }

    #[test]
    fn spread_is_min_median_max() {
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
        assert_eq!(Spread::of(&[5.0]).median, 5.0);
    }

    #[test]
    fn format_helper() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn bench_report_renders_the_benchmark_artifact_format() {
        let json = BenchReport::new("s99_example")
            .uint("jobs", 1000)
            .float("ratio", 0.12345, 3)
            .str("policy", "Argus")
            .nested(
                "inner",
                BenchReport::group().uint("a", 1).float("b", 2.0, 1),
            )
            .to_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"s99_example\",\n  \"schema_version\": 2,\n  \"jobs\": 1000,\n  \"ratio\": 0.123,\n  \"policy\": \"Argus\",\n  \"inner\": {\n    \"a\": 1,\n    \"b\": 2.0\n  }\n}\n"
        );
        // The schema version is the shared telemetry one, not a local copy.
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            argus_obs::JSONL_SCHEMA_VERSION
        )));
        let restamped = BenchReport::new("s99_example")
            .schema_version(7)
            .uint("jobs", 1)
            .to_json();
        assert_eq!(
            restamped,
            "{\n  \"bench\": \"s99_example\",\n  \"schema_version\": 7,\n  \"jobs\": 1\n}\n"
        );
    }
}
