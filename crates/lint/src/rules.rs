//! The rule engine: token-stream pattern matching for each workspace
//! invariant, `#[cfg(test)]` region tracking, and the reasoned
//! escape-comment protocol.
//!
//! # Rules
//!
//! | id | scope | invariant protected |
//! |---|---|---|
//! | `nondet-container` | simulation crates | byte-identical traces: a `HashMap`/`HashSet` *declaration* is a standing iteration hazard |
//! | `nondet-iter` | simulation crates | byte-identical traces: order-dependent iteration over a hash container |
//! | `wall-clock` | all crates, allowlist | determinism: `Instant::now`/`SystemTime` outside the progress module |
//! | `rng-salt` | all crates | RNG-stream discipline: `SplitMix64::new` must derive from a config seed or a named `*_STREAM_SALT` constant, never an inline magic number |
//! | `hot-path-panic` | hot-path modules | panic-freedom tier: `unwrap`/`expect`/`panic!`/`todo!`/`unreachable!`/`unimplemented!` need a reasoned escape |
//! | `forbid-unsafe` | every `lib.rs` | unsafe hygiene: `#![forbid(unsafe_code)]` present |
//! | `global-state` | all crates | no process-global state shared across tests: `thread_local!`, `static mut`, or a `static` typed with a `Mutex`, `RwLock`, `Cell`, `RefCell` or atomic (write-once `OnceLock`/`LazyLock` pass) |
//! | `bad-escape` | everywhere | the escape protocol itself: unknown rule id or missing reason |
//!
//! # Escapes
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // apt-lint: allow(hot-path-panic, invariant — slot was bound by admit())
//! ```
//!
//! The reason is mandatory: `allow(rule)` without one suppresses nothing
//! and is itself a `bad-escape` finding, so every exception in the tree
//! carries its justification next to the code.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt from
//! every rule except `forbid-unsafe`: tests panic on purpose and seed
//! RNGs with literals on purpose.

use crate::config::LintConfig;
use crate::findings::{Finding, RULES};
use crate::lexer::{lex, Comment, Tok, TokKind};

/// Hash-container iteration methods whose visit order is nondeterministic.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens that make a `static` mutable process state (atomics match by
/// their `Atomic` prefix).
const MUTABLE_STATE: &[&str] = &["mut", "Mutex", "RwLock", "Cell", "RefCell", "UnsafeCell"];

/// Panic-family macros flagged on the hot path.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// A parsed `apt-lint: allow(rule, reason)` escape. An escape written
/// across several consecutive `//` lines is one escape spanning
/// `start..=end`; it suppresses findings on its own lines and the line
/// directly below.
#[derive(Debug)]
struct Escape {
    start: u32,
    end: u32,
    rule: String,
    reason: String,
    /// Parse failure: `apt-lint:` marker present but not in the
    /// `allow(rule, reason)` shape.
    malformed: bool,
}

/// Scan one file's source. `rel_path` is workspace-relative with `/`
/// separators; it drives the per-rule scoping in `cfg`.
pub fn scan_source(rel_path: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let out = lex(src);
    let toks = &out.tokens;
    let escapes = parse_escapes(&out.comments);
    let test_ranges = test_regions(toks);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut found: Vec<Finding> = Vec::new();

    rule_forbid_unsafe(rel_path, toks, &mut found);
    rule_wall_clock(rel_path, toks, cfg, &in_test, &mut found);
    rule_rng_salt(rel_path, toks, &in_test, &mut found);
    rule_hot_path_panic(rel_path, toks, cfg, &in_test, &mut found);
    rule_global_state(rel_path, toks, &in_test, &mut found);
    if cfg.is_simulation(rel_path) {
        rule_nondet(rel_path, toks, &in_test, &mut found);
    }

    // Apply escapes: a reasoned escape for the right rule covering the
    // finding's line (trailing comment, or a comment block directly
    // above) suppresses it.
    found.retain(|f| {
        !escapes.iter().any(|e| {
            !e.malformed
                && !e.reason.is_empty()
                && e.rule == f.rule
                && e.start <= f.line
                && f.line <= e.end + 1
        })
    });

    // The escape protocol polices itself.
    for e in &escapes {
        if e.malformed {
            found.push(Finding {
                file: rel_path.to_string(),
                line: e.start,
                rule: "bad-escape",
                message: "apt-lint escape comment is not in the `allow(rule, reason)` shape".into(),
                hint: "write `// apt-lint: allow(<rule-id>, <reason>)`".into(),
            });
        } else if !RULES.contains(&e.rule.as_str()) {
            found.push(Finding {
                file: rel_path.to_string(),
                line: e.start,
                rule: "bad-escape",
                message: format!("escape names unknown rule `{}`", e.rule),
                hint: format!("known rules: {}", RULES.join(", ")),
            });
        } else if e.reason.is_empty() {
            found.push(Finding {
                file: rel_path.to_string(),
                line: e.start,
                rule: "bad-escape",
                message: format!(
                    "escape for `{}` carries no reason — reasons are mandatory",
                    e.rule
                ),
                hint: "write `// apt-lint: allow(rule, why the invariant still holds)`".into(),
            });
        }
    }

    found
}

/// Extract `apt-lint: allow(rule, reason)` escapes from comments.
fn parse_escapes(comments: &[Comment]) -> Vec<Escape> {
    // Merge runs of consecutive plain `//` comment lines into blocks, so
    // an escape's reason can wrap across lines. Doc comments (`///`,
    // `//!`, `/**`) never participate — they are prose that may
    // *describe* the escape syntax without invoking it.
    let mut blocks: Vec<(u32, u32, String)> = Vec::new();
    for c in comments {
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
            continue;
        }
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim();
        match blocks.last_mut() {
            Some((_, end, text)) if c.text.starts_with("//") && *end + 1 == c.line => {
                *end = c.line;
                text.push(' ');
                text.push_str(body);
            }
            _ => blocks.push((c.line, c.line, body.to_string())),
        }
    }

    let mut out = Vec::new();
    for (start, end, text) in blocks {
        let Some(pos) = text.find("apt-lint:") else {
            continue;
        };
        let rest = text[pos + "apt-lint:".len()..].trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|r| {
            let close = r.rfind(')')?;
            let inner = &r[..close];
            let (rule, reason) = match inner.find(',') {
                Some(comma) => (&inner[..comma], inner[comma + 1..].trim()),
                None => (inner, ""),
            };
            Some((rule.trim().to_string(), reason.to_string()))
        });
        match parsed {
            Some((rule, reason)) => out.push(Escape {
                start,
                end,
                rule,
                reason,
                malformed: false,
            }),
            None => out.push(Escape {
                start,
                end,
                rule: String::new(),
                reason: String::new(),
                malformed: true,
            }),
        }
    }
    out
}

fn is_id(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn is_punct(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` /
/// `#[test]` items. The attribute's braced item is found by scanning to
/// its first `{` (stopping at `;` for bodiless items) and brace-matching.
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if is_punct(&toks[i], '#') && is_punct(&toks[i + 1], '[') {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr: Vec<&Tok> = Vec::new();
            while j < toks.len() && depth > 0 {
                if is_punct(&toks[j], '[') {
                    depth += 1;
                } else if is_punct(&toks[j], ']') {
                    depth -= 1;
                }
                if depth > 0 {
                    attr.push(&toks[j]);
                }
                j += 1;
            }
            let is_test_attr = match attr.first() {
                Some(t) if is_id(t, "test") => true,
                // `cfg(test)` / `cfg(all(test, …))` are test regions;
                // `cfg(not(test))` is emphatically not.
                Some(t) if is_id(t, "cfg") => {
                    attr.iter().any(|t| is_id(t, "test")) && !attr.iter().any(|t| is_id(t, "not"))
                }
                _ => false,
            };
            if is_test_attr {
                let start_line = toks[i].line;
                // Find the item's opening brace (skipping further
                // attributes and the signature); a `;` first means a
                // bodiless item.
                let mut k = j;
                let mut brace = None;
                while k < toks.len() {
                    if is_punct(&toks[k], '{') {
                        brace = Some(k);
                        break;
                    }
                    if is_punct(&toks[k], ';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = brace {
                    let mut depth = 1usize;
                    let mut m = open + 1;
                    while m < toks.len() && depth > 0 {
                        if is_punct(&toks[m], '{') {
                            depth += 1;
                        } else if is_punct(&toks[m], '}') {
                            depth -= 1;
                        }
                        m += 1;
                    }
                    let end_line = toks[m.saturating_sub(1).min(toks.len() - 1)].line;
                    ranges.push((start_line, end_line));
                    i = m;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// `forbid-unsafe`: every `lib.rs` must carry `#![forbid(unsafe_code)]`.
fn rule_forbid_unsafe(rel_path: &str, toks: &[Tok], found: &mut Vec<Finding>) {
    if !rel_path.ends_with("/lib.rs") {
        return;
    }
    let has = toks.windows(8).any(|w| {
        is_punct(&w[0], '#')
            && is_punct(&w[1], '!')
            && is_punct(&w[2], '[')
            && is_id(&w[3], "forbid")
            && is_punct(&w[4], '(')
            && is_id(&w[5], "unsafe_code")
            && is_punct(&w[6], ')')
            && is_punct(&w[7], ']')
    });
    if !has {
        found.push(Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "lib crate without `#![forbid(unsafe_code)]`".into(),
            hint: "add `#![forbid(unsafe_code)]` to the crate root (every other lib crate has it)"
                .into(),
        });
    }
}

/// `wall-clock`: `Instant::now()` / `SystemTime::…` outside the allowlist.
fn rule_wall_clock(
    rel_path: &str,
    toks: &[Tok],
    cfg: &LintConfig,
    in_test: &dyn Fn(u32) -> bool,
    found: &mut Vec<Finding>,
) {
    if cfg.wall_clock_allowed(rel_path) {
        return;
    }
    for w in toks.windows(4) {
        let wall = (is_id(&w[0], "Instant") && is_id(&w[3], "now"))
            || (is_id(&w[0], "SystemTime") && w[3].kind == TokKind::Ident);
        if wall && is_punct(&w[1], ':') && is_punct(&w[2], ':') && !in_test(w[0].line) {
            found.push(Finding {
                file: rel_path.to_string(),
                line: w[0].line,
                rule: "wall-clock",
                message: format!(
                    "wall-clock read (`{}::{}`) outside the progress-module allowlist",
                    w[0].text, w[3].text
                ),
                hint: "simulation time comes from the event clock; move the read to an \
                       allowlisted module or escape with a reason if it provably never \
                       reaches simulation state"
                    .into(),
            });
        }
    }
}

/// `rng-salt`: `SplitMix64::new(…)` whose argument contains an inline
/// integer literal (outside tests). Config-seed-derived and named-salt
/// expressions contain no literal.
fn rule_rng_salt(
    rel_path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(u32) -> bool,
    found: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while i + 4 < toks.len() {
        if is_id(&toks[i], "SplitMix64")
            && is_punct(&toks[i + 1], ':')
            && is_punct(&toks[i + 2], ':')
            && is_id(&toks[i + 3], "new")
            && is_punct(&toks[i + 4], '(')
            && !in_test(toks[i].line)
        {
            let mut depth = 1usize;
            let mut j = i + 5;
            let mut magic: Option<&Tok> = None;
            while j < toks.len() && depth > 0 {
                if is_punct(&toks[j], '(') {
                    depth += 1;
                } else if is_punct(&toks[j], ')') {
                    depth -= 1;
                } else if toks[j].kind == TokKind::Int && magic.is_none() {
                    magic = Some(&toks[j]);
                }
                j += 1;
            }
            if let Some(m) = magic {
                found.push(Finding {
                    file: rel_path.to_string(),
                    line: toks[i].line,
                    rule: "rng-salt",
                    message: format!(
                        "`SplitMix64::new` seeded with inline magic number `{}`",
                        m.text
                    ),
                    hint: "derive every non-test RNG stream from a config seed or a named \
                           `*_STREAM_SALT` constant (the apt-faults pattern), so streams stay \
                           disjoint and greppable"
                        .into(),
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// `hot-path-panic`: `unwrap`/`expect`/panic-family on hot-path modules.
fn rule_hot_path_panic(
    rel_path: &str,
    toks: &[Tok],
    cfg: &LintConfig,
    in_test: &dyn Fn(u32) -> bool,
    found: &mut Vec<Finding>,
) {
    if !cfg.is_hot_path(rel_path) {
        return;
    }
    let mut push = |line: u32, what: String| {
        found.push(Finding {
            file: rel_path.to_string(),
            line,
            rule: "hot-path-panic",
            message: format!("`{what}` on a panic-freedom-tier module"),
            hint: "return a typed apt_base error, or keep an invariant-message `expect` and \
                   escape with `// apt-lint: allow(hot-path-panic, <why the invariant holds>)`"
                .into(),
        });
    };
    for w in toks.windows(3) {
        if in_test(w[1].line) {
            continue;
        }
        if is_punct(&w[0], '.')
            && (is_id(&w[1], "unwrap") || is_id(&w[1], "expect"))
            && is_punct(&w[2], '(')
        {
            push(w[1].line, format!(".{}()", w[1].text));
        }
    }
    for w in toks.windows(2) {
        if w[0].kind == TokKind::Ident
            && PANIC_MACROS.contains(&w[0].text.as_str())
            && is_punct(&w[1], '!')
            && !in_test(w[0].line)
        {
            push(w[0].line, format!("{}!", w[0].text));
        }
    }
}

/// `global-state`: outside tests, a `thread_local!`, or a `static` whose
/// tokens up to its `=` include `mut`, a cell or lock, or an atomic. A
/// cell hidden inside a named wrapper type passes.
fn rule_global_state(
    rel_path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(u32) -> bool,
    found: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        let rest = &toks[i + 1..];
        let what = if is_id(t, "thread_local") && rest.first().is_some_and(|n| is_punct(n, '!')) {
            Some("`thread_local!`".to_string())
        } else if is_id(t, "static") {
            rest.iter()
                .take_while(|t| !is_punct(t, '=') && !is_punct(t, ';'))
                .find(|t| MUTABLE_STATE.contains(&t.text.as_str()) || t.text.starts_with("Atomic"))
                .map(|m| format!("a mutable `static` (`{}`)", m.text))
        } else {
            None
        };
        if let Some(what) = what.filter(|_| !in_test(t.line)) {
            found.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "global-state",
                message: format!("process-global state: {what}"),
                hint: "hold the state in a value the caller owns and passes down; a write-once \
                       `OnceLock`/`LazyLock` of a plain value is fine"
                    .into(),
            });
        }
    }
}

/// `nondet-container` + `nondet-iter` over one simulation-crate file.
fn rule_nondet(
    rel_path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(u32) -> bool,
    found: &mut Vec<Finding>,
) {
    let is_hash = |t: &Tok| is_id(t, "HashMap") || is_id(t, "HashSet");

    // Pass 1: declarations. A hash container in type position
    // (`name: …HashMap<…>` or `let name = HashMap::new()`) both flags the
    // declaration and registers `name` for the iteration pass.
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if !is_hash(&toks[i]) {
            continue;
        }
        // Type position: `HashMap<` (imports / turbofish constructor
        // calls are not type positions).
        let generic = i + 1 < toks.len() && is_punct(&toks[i + 1], '<');
        let constructor =
            i + 2 < toks.len() && is_punct(&toks[i + 1], ':') && is_punct(&toks[i + 2], ':');
        if generic && !in_test(toks[i].line) {
            found.push(Finding {
                file: rel_path.to_string(),
                line: toks[i].line,
                rule: "nondet-container",
                message: format!(
                    "`{}` declared in a simulation crate — iteration order is nondeterministic",
                    toks[i].text
                ),
                hint: "use a BTreeMap/BTreeSet or an index-keyed Vec; if access is provably \
                       keyed-only, escape with `// apt-lint: allow(nondet-container, <reason>)`"
                    .into(),
            });
        }
        if generic || constructor {
            // Walk back over type syntax to the declared name, if any:
            // `live: HashMap<…>` or `x: Vec<Mutex<HashMap<…>>>`.
            let mut j = i;
            let mut steps = 0;
            while j > 0 && steps < 12 {
                j -= 1;
                steps += 1;
                match &toks[j].kind {
                    TokKind::Punct(':') => {
                        if j > 0 && toks[j - 1].kind == TokKind::Ident {
                            // Skip the path case `std::collections::HashMap`.
                            if !(j > 1 && is_punct(&toks[j - 1], ':')) {
                                names.push(toks[j - 1].text.clone());
                            }
                        }
                        break;
                    }
                    TokKind::Punct('<') | TokKind::Punct('>') | TokKind::Punct(',') => {}
                    TokKind::Ident => {}
                    TokKind::Punct('=') => {
                        // `let [mut] name = HashMap::new()`.
                        let mut k = j;
                        while k > 0 {
                            k -= 1;
                            if toks[k].kind == TokKind::Ident && !is_id(&toks[k], "mut") {
                                names.push(toks[k].text.clone());
                                break;
                            }
                            if !is_id(&toks[k], "mut") {
                                break;
                            }
                        }
                        break;
                    }
                    _ => break,
                }
            }
        }
    }
    names.sort();
    names.dedup();

    // Pass 2: iteration over a registered name.
    for w in toks.windows(4) {
        if is_punct(&w[1], '.')
            && w[0].kind == TokKind::Ident
            && names.iter().any(|n| n == &w[0].text)
            && w[2].kind == TokKind::Ident
            && ITER_METHODS.contains(&w[2].text.as_str())
            && is_punct(&w[3], '(')
            && !in_test(w[0].line)
        {
            found.push(Finding {
                file: rel_path.to_string(),
                // Anchor at the method token: in a multi-line chain the
                // escape comment sits directly above `.iter()`, not above
                // the receiver.
                line: w[2].line,
                rule: "nondet-iter",
                message: format!(
                    "order-dependent `.{}()` over hash container `{}`",
                    w[2].text, w[0].text
                ),
                hint: "hash iteration order can reach simulation output; iterate a sorted key \
                       list or switch the container to BTreeMap/Vec"
                    .into(),
            });
        }
    }
    // `for … in [&[mut]] [self.]name {`
    let mut i = 0usize;
    while i < toks.len() {
        if is_id(&toks[i], "for") {
            // find the `in` at this nesting level before a `{`
            let mut j = i + 1;
            while j < toks.len() && !is_id(&toks[j], "in") && !is_punct(&toks[j], '{') {
                j += 1;
            }
            if j < toks.len() && is_id(&toks[j], "in") {
                let mut k = j + 1;
                let mut last_ident: Option<&Tok> = None;
                let mut simple = true;
                while k < toks.len() && !is_punct(&toks[k], '{') {
                    match &toks[k].kind {
                        TokKind::Ident => last_ident = Some(&toks[k]),
                        TokKind::Punct('&') | TokKind::Punct('.') => {}
                        _ => {
                            simple = false;
                            break;
                        }
                    }
                    k += 1;
                }
                if simple {
                    if let Some(t) = last_ident {
                        if names.iter().any(|n| n == &t.text) && !in_test(t.line) {
                            found.push(Finding {
                                file: rel_path.to_string(),
                                line: t.line,
                                rule: "nondet-iter",
                                message: format!(
                                    "order-dependent `for` loop over hash container `{}`",
                                    t.text
                                ),
                                hint: "hash iteration order can reach simulation output; \
                                       iterate a sorted key list or switch the container to \
                                       BTreeMap/Vec"
                                    .into(),
                            });
                        }
                    }
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig::workspace_default()
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let out = lex(src);
        let r = test_regions(&out.tokens);
        assert_eq!(r.len(), 1);
        assert!(r[0].0 <= 3 && r[0].1 >= 5, "range {r:?}");
    }

    #[test]
    fn escape_parsing_shapes() {
        // Blank lines separate the comment blocks — consecutive `//`
        // lines deliberately merge into one escape.
        let out = lex("// apt-lint: allow(rng-salt, fixture stream)\n\n\
             // apt-lint: allow(rng-salt)\n\n\
             // apt-lint: allowed nothing\n\n\
             // plain comment\n");
        let e = parse_escapes(&out.comments);
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].rule, "rng-salt");
        assert_eq!(e[0].reason, "fixture stream");
        assert!(e[1].reason.is_empty());
        assert!(e[2].malformed);
    }

    #[test]
    fn multiline_escape_merges_into_one_block() {
        let out = lex(
            "// apt-lint: allow(nondet-container, keyed-only memo that is\n\
             // never iterated)\nfn f() {}\n",
        );
        let e = parse_escapes(&out.comments);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].rule, "nondet-container");
        assert!(e[0].reason.ends_with("never iterated"), "{:?}", e[0].reason);
        assert_eq!((e[0].start, e[0].end), (1, 2));
    }

    #[test]
    fn mut_let_binding_registers_name() {
        let src = "fn f() { let mut seen = HashMap::new(); for k in &seen {} }";
        let f = scan_source("crates/hetsim/src/x.rs", src, &cfg());
        assert!(f.iter().any(|f| f.rule == "nondet-iter"), "findings: {f:?}");
    }
}
