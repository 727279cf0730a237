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
        title: "no iteration over HashMap/HashSet — use BTreeMap or an explicit sort",
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

/// Methods whose receiver order leaks into results when the receiver is
/// an unordered map/set.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

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

/// D2 — iteration over `HashMap`/`HashSet`.
///
/// Pass 1 records the names of bindings, fields and parameters declared
/// with a `HashMap`/`HashSet` type (or initialized from a `HashMap::…`
/// constructor) in this file; pass 2 flags order-leaking method calls and
/// `for … in` loops over those names. The tracking is per-file by
/// design: a cross-file false positive (a `Vec` elsewhere sharing a
/// field name) would be worse than asking the declaring file to convert
/// or annotate.
pub fn unordered_iter(rel: &str, lexed: &Lexed) -> Vec<Finding> {
    let rule = &RULES[1];
    let toks = &lexed.toks;
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        if let Some(name) = declared_name(toks, i) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // `name.iter()` -style order-leaking method calls.
        if t.kind == TokKind::Ident
            && names.iter().any(|n| n == &t.text)
            && is_seq(toks, i + 1, &["."])
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|p| p.text == "(")
        {
            out.push(finding(
                rule,
                rel,
                t,
                format!(
                    "iteration over unordered `{}` via `.{}()`",
                    t.text,
                    toks[i + 2].text
                ),
                lexed.in_test(t.line),
            ));
        }
        // `for … in [&[mut]] [path.]name {` loops.
        if t.text == "for" {
            if let Some(f) = for_loop_over(toks, i, &names) {
                out.push(finding(
                    rule,
                    rel,
                    f,
                    format!("`for` loop over unordered `{}`", f.text),
                    lexed.in_test(f.line),
                ));
            }
        }
    }
    out
}

/// The declared name a `HashMap`/`HashSet` token at `i` binds to, if the
/// surrounding tokens are a declaration site.
fn declared_name(toks: &[Tok], i: usize) -> Option<String> {
    // Walk back over a path prefix (`std :: collections ::`).
    let mut k = i;
    while k >= 2 && toks[k - 1].text == "::" && toks[k - 2].kind == TokKind::Ident {
        k -= 2;
    }
    // Walk back over reference/lifetime/mut decoration (`&'a mut`).
    let mut p = k.checked_sub(1)?;
    while toks[p].text == "&"
        || toks[p].text == "mut"
        || toks[p].kind == TokKind::Lifetime
        || toks[p].text == "'"
    {
        p = p.checked_sub(1)?;
    }
    match toks[p].text.as_str() {
        // `name: HashMap<…>` — field, param or typed let.
        ":" => {
            let cand = toks.get(p.checked_sub(1)?)?;
            (cand.kind == TokKind::Ident).then(|| cand.text.clone())
        }
        // `… = HashMap::new()` — let binding or reassignment.
        "=" => {
            let before = toks.get(p.checked_sub(1)?)?;
            if before.kind == TokKind::Ident && before.text != "let" {
                // `name = …` or `let name = …` (the ident right before `=`).
                Some(before.text.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// If the `for` loop starting at `i` iterates one of `names`, the
/// offending token.
fn for_loop_over<'t>(toks: &'t [Tok], i: usize, names: &[String]) -> Option<&'t Tok> {
    // Find `in` within a short window (patterns are simple in practice).
    let window = &toks[i..toks.len().min(i + 24)];
    let in_off = window.iter().position(|t| t.text == "in")?;
    let mut j = i + in_off + 1;
    // Skip `&`, `mut`.
    while toks
        .get(j)
        .is_some_and(|t| t.text == "&" || t.text == "mut")
    {
        j += 1;
    }
    // Accept `a.b.c` chains; the final ident before `{` is the operand.
    let mut last: Option<&Tok> = None;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Ident {
            last = Some(t);
            j += 1;
            if toks.get(j).is_some_and(|n| n.text == ".") {
                j += 1;
                continue;
            }
        }
        break;
    }
    let last = last?;
    (toks.get(j).is_some_and(|t| t.text == "{") && names.iter().any(|n| n == &last.text))
        .then_some(last)
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

    #[test]
    fn d2_tracks_declarations_and_flags_iteration() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> u32 { s.m.values().sum() }\n\
                   fn g(s: &S) { for (k, v) in &s.m { let _ = (k, v); } }\n";
        let lexed = lex(src);
        let f = unordered_iter("x.rs", &lexed);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
    }

    #[test]
    fn d2_ignores_point_lookups_and_vecs() {
        let src = "let mut m = HashMap::new();\nm.insert(1, 2);\nlet _ = m.get(&1);\n\
                   let v: Vec<u32> = vec![];\nfor x in &v { let _ = x; }\nlet _ = v.iter();";
        let lexed = lex(src);
        assert!(unordered_iter("x.rs", &lexed).is_empty());
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
