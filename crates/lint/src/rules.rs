//! The pattern rules D1, D2, D4 and D5 of the determinism contract
//! (DESIGN.md §10).
//! Each rule is an independent scan over one file's token stream.

use crate::lexer::{is_seq, Lexed, Tok, TokKind};
use crate::report::{Finding, Severity};

/// Identity and prose of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Short id, `D1`…`D5` (or `LA`).
    pub id: &'static str,
    /// The slug used in `// lint: allow(<slug>)` escape hatches.
    pub slug: &'static str,
    /// One-line description for the report header.
    pub title: &'static str,
}

/// The rule catalog, in id order.
pub const RULES: [RuleInfo; 5] = [
    RuleInfo {
        id: "D1",
        slug: "wall-clock",
        title: "no wall-clock reads (Instant::now / SystemTime) outside the bench crate",
    },
    RuleInfo {
        id: "D2",
        slug: "unordered-iter",
        title: "no HashMap/HashSet — use a BTreeMap/BTreeSet or an indexed table",
    },
    RuleInfo {
        id: "D4",
        slug: "stray-thread",
        title: "no thread spawn/scope — the simulation runs on one thread",
    },
    RuleInfo {
        id: "D5",
        slug: "unseeded-rng",
        title: "no thread_rng / OS entropy outside seeded-RNG constructors",
    },
    RuleInfo {
        id: "LA",
        slug: "lint-annotation",
        title: "escape-hatch annotations must name a known rule and give a reason",
    },
];

/// Looks a rule up by escape-hatch slug.
pub fn rule_by_slug(slug: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.slug == slug)
}

/// Entropy-sourced RNG constructors (D5).
const ENTROPY_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "from_os_rng"];

fn finding(rule: &'static RuleInfo, rel: &str, t: &Tok, message: String, in_test: bool) -> Finding {
    Finding {
        rule_id: rule.id.to_string(),
        slug: rule.slug.to_string(),
        severity: Severity::Deny,
        file: rel.to_string(),
        line: t.line,
        message,
        in_test,
        allowed: false,
    }
}

/// D1 — wall-clock reads. `Instant::now` and any use of `SystemTime`.
pub fn wall_clock(rel: &str, lexed: &Lexed) -> Vec<Finding> {
    let rule = &RULES[0];
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let hit = match t.text.as_str() {
            "Instant" => is_seq(toks, i + 1, &["::", "now"]),
            "SystemTime" => true,
            _ => false,
        };
        if hit {
            out.push(finding(
                rule,
                rel,
                t,
                format!("wall-clock read `{}`", t.text),
                lexed.in_test(t.line),
            ));
        }
    }
    out
}

/// D2 — hash containers. Every `HashMap`/`HashSet` identifier (a `use`,
/// an alias, a field, a path) is flagged, so a tree that passes holds no
/// hash container whose randomized order could leak into results: not
/// through an alias, and not from another file.
pub fn unordered_iter(rel: &str, lexed: &Lexed) -> Vec<Finding> {
    let rule = &RULES[1];
    lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && matches!(t.text.as_str(), "HashMap" | "HashSet"))
        .map(|t| {
            finding(
                rule,
                rel,
                t,
                format!("hash container `{}`", t.text),
                lexed.in_test(t.line),
            )
        })
        .collect()
}

/// D4 — thread spawning anywhere: the simulation runs on one thread, so
/// a thread is only allowed at an annotated site (concurrency tests).
pub fn stray_thread(rel: &str, lexed: &Lexed) -> Vec<Finding> {
    let rule = &RULES[2];
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text == "thread"
            && toks.get(i + 1).is_some_and(|p| p.text == "::")
            && toks
                .get(i + 2)
                .is_some_and(|m| matches!(m.text.as_str(), "spawn" | "scope" | "Builder"))
        {
            out.push(finding(
                rule,
                rel,
                t,
                format!(
                    "`thread::{}` in a single-threaded simulation",
                    toks[i + 2].text
                ),
                lexed.in_test(t.line),
            ));
        }
    }
    out
}

/// D5 — entropy-sourced randomness.
pub fn unseeded_rng(rel: &str, lexed: &Lexed) -> Vec<Finding> {
    let rule = &RULES[3];
    let mut out = Vec::new();
    for t in &lexed.toks {
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(finding(
                rule,
                rel,
                t,
                format!(
                    "entropy-sourced RNG `{}` — derive from the seeded RngFactory",
                    t.text
                ),
                lexed.in_test(t.line),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn d1_fires_on_instant_now_and_system_time() {
        let lexed = lex("let t = std::time::Instant::now();\nlet s = SystemTime::now();");
        let f = wall_clock("x.rs", &lexed);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn d1_ignores_instant_type_without_now() {
        let lexed = lex("fn wait(deadline: Instant) {}");
        assert!(wall_clock("x.rs", &lexed).is_empty());
    }

    /// The lines of D2's findings in `src`.
    fn d2_lines(src: &str) -> Vec<u32> {
        unordered_iter("x.rs", &lex(src))
            .iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn d2_flags_an_aliased_use_but_not_the_alias() {
        let src = "use std::collections::HashMap as Map;\n\
                   struct S { m: Map<u32, u32> }\n\
                   fn f(s: &S) -> u32 { s.m.values().sum() }\n";
        assert_eq!(d2_lines(src), [1]);
    }

    #[test]
    fn d2_flags_a_type_alias() {
        assert_eq!(
            d2_lines("type T = HashSet<u64>;\nlet t: T = T::new();"),
            [1]
        );
    }

    #[test]
    fn d2_flags_a_fully_qualified_path() {
        let src = "let m = std::collections::HashMap::<u8, u8>::new();\n\
                   let s: std::collections::HashSet<u8> = Default::default();";
        assert_eq!(d2_lines(src), [1, 2]);
    }

    #[test]
    fn d2_ignores_strings_comments_and_ordered_containers() {
        let src = "// a HashMap would leak its order here\n\
                   /* HashSet */ let why = \"HashMap\";\n\
                   let m: BTreeMap<u8, u8> = BTreeMap::new();\n\
                   for (k, v) in &m { let _ = (k, v, why); }";
        assert!(d2_lines(src).is_empty());
    }

    #[test]
    fn d2_escape_hatch_suppresses_and_is_counted() {
        let src = "fn f() {\n\
                   // lint: allow(unordered-iter) — point lookups only; nothing iterates it.\n\
                   let m = HashMap::<u8, u8>::new();\n\
                   let _ = m.get(&1);\n}";
        let rep = crate::report::Report {
            findings: crate::lint_source("x.rs", src, true),
            ..Default::default()
        };
        assert_eq!(rep.deny_count(), 0, "{:?}", rep.findings);
        let allowed: Vec<_> = rep
            .allowed()
            .map(|f| (f.rule_id.as_str(), f.line))
            .collect();
        assert_eq!(allowed, [("D2", 3)]);
    }

    #[test]
    fn d4_fires_on_spawn_scope_builder() {
        let lexed =
            lex("std::thread::spawn(|| {});\nthread::scope(|s| {});\nthread::Builder::new();");
        assert_eq!(stray_thread("x.rs", &lexed).len(), 3);
    }

    #[test]
    fn d5_fires_on_entropy_sources() {
        let lexed = lex("let mut r = rand::thread_rng();\nlet s = StdRng::from_entropy();");
        assert_eq!(unseeded_rng("x.rs", &lexed).len(), 2);
    }
}
