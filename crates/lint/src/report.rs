//! Finding type, the human-readable table, and the `LINT_REPORT.json`
//! emitter (hand-rolled — the lint crate is dependency-free).

use std::fmt::Write as _;

/// Severity of a finding. Everything the contract forbids is `Deny`;
/// `Note` is used for counted-but-allowed escape hatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Deny,
    Note,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Note => "note",
        }
    }
}

/// One lint finding, pinned to a file and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `D1`…`D5` (or `LA` for annotation-grammar problems).
    pub rule_id: String,
    /// The escape-hatch slug (`wall-clock`, …).
    pub slug: String,
    pub severity: Severity,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Whether the site is inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Whether an escape-hatch annotation suppressed this finding. An
    /// allowed finding is demoted to `Note` and counted, not fatal.
    pub allowed: bool,
}

/// The final report: all findings (allowed and deny), plus scan stats.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub lines_scanned: usize,
}

impl Report {
    /// Deny findings (not suppressed) — these fail the build.
    pub fn deny(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny && !f.allowed)
    }

    /// Suppressed-by-annotation findings — reported and counted.
    pub fn allowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed)
    }

    pub fn deny_count(&self) -> usize {
        self.deny().count()
    }

    /// The human-readable table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "argus_lint: scanned {} files / {} lines",
            self.files_scanned, self.lines_scanned
        );
        let denies: Vec<&Finding> = self.deny().collect();
        let allows: Vec<&Finding> = self.allowed().collect();
        if denies.is_empty() && allows.is_empty() {
            let _ = writeln!(s, "argus_lint: no findings — determinism contract holds");
            return s;
        }
        if !denies.is_empty() {
            let _ = writeln!(s, "\n  DENY ({}):", denies.len());
            for f in &denies {
                let _ = writeln!(
                    s,
                    "  {:4} {:18} {}:{}  {}{}",
                    f.rule_id,
                    f.slug,
                    f.file,
                    f.line,
                    f.message,
                    if f.in_test { "  [test]" } else { "" }
                );
            }
        }
        if !allows.is_empty() {
            let _ = writeln!(s, "\n  allowed by annotation ({}):", allows.len());
            for f in &allows {
                let _ = writeln!(s, "  {:4} {:18} {}:{}", f.rule_id, f.slug, f.file, f.line);
            }
        }
        let _ = writeln!(
            s,
            "\nargus_lint: {} deny, {} allowed",
            denies.len(),
            allows.len()
        );
        s
    }

    /// The machine-readable report (rule -> file:line -> severity).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"lines_scanned\": {},", self.lines_scanned);
        let _ = writeln!(s, "  \"deny_count\": {},", self.deny_count());
        let _ = writeln!(s, "  \"allowed_count\": {},", self.allowed().count());
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let sev = if f.allowed {
                "allowed"
            } else {
                f.severity.as_str()
            };
            let _ = write!(
                s,
                "    {{\"rule\": {}, \"slug\": {}, \"file\": {}, \"line\": {}, \
                 \"severity\": {}, \"in_test\": {}, \"message\": {}}}",
                json_str(&f.rule_id),
                json_str(&f.slug),
                json_str(&f.file),
                f.line,
                json_str(sev),
                f.in_test,
                json_str(&f.message),
            );
            s.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Minimal JSON string escaping.
fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(allowed: bool) -> Finding {
        Finding {
            rule_id: "D1".into(),
            slug: "wall-clock".into(),
            severity: Severity::Deny,
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "wall-clock read `Instant`".into(),
            in_test: false,
            allowed,
        }
    }

    #[test]
    fn deny_vs_allowed_accounting() {
        let r = Report {
            findings: vec![sample(false), sample(true)],
            files_scanned: 1,
            lines_scanned: 10,
        };
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.allowed().count(), 1);
        let table = r.render_table();
        assert!(table.contains("1 deny, 1 allowed"), "{table}");
        assert!(table.contains("crates/x/src/lib.rs:7"), "{table}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = Report {
            findings: vec![sample(false)],
            files_scanned: 1,
            lines_scanned: 10,
        };
        let j = r.render_json();
        assert!(j.contains("\"deny_count\": 1"), "{j}");
        assert!(j.contains("\"rule\": \"D1\""), "{j}");
        assert!(j.contains("\"file\": \"crates/x/src/lib.rs\""), "{j}");
        // Escaping: a quote in a message must not break the line.
        assert!(json_str("a\"b").contains("\\\""));
    }
}
