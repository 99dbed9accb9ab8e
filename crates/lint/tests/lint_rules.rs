//! Fixture tests for every lint rule: one positive hit, one near-miss
//! that must NOT fire, the escape protocol honored, and immunity to the
//! rule's pattern appearing inside strings and comments — the four ways a
//! token-level linter goes wrong. Plus the JSON schema pin and the
//! workspace gate itself.

use apt_lint::{scan_source, LintConfig, Report};

fn cfg() -> LintConfig {
    LintConfig::workspace_default()
}

/// Scan a fixture as if it lived at `rel_path`, returning `(rule, line)`
/// pairs.
fn rules_at(rel_path: &str, src: &str) -> Vec<(&'static str, u32)> {
    scan_source(rel_path, src, &cfg())
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

// A path that is simulation-scoped AND hot-path-scoped, for fixtures that
// need both rule families armed.
const HOT: &str = "crates/hetsim/src/engine.rs";
// Simulation-scoped but not hot-path.
const SIM: &str = "crates/hetsim/src/other.rs";
// Neither (rule-neutral ground for rules scoped everywhere); also on the
// wall-clock allowlist.
const COLD: &str = "crates/telemetry/src/progress.rs";

// ---------------------------------------------------------------- nondet

#[test]
fn nondet_container_positive() {
    let f = rules_at(SIM, "struct S { m: HashMap<u64, f64> }\n");
    assert_eq!(f, vec![("nondet-container", 1)]);
}

#[test]
fn nondet_container_near_miss_btreemap_and_non_sim_crate() {
    // BTreeMap is the fix, not a finding …
    assert!(rules_at(SIM, "struct S { m: BTreeMap<u64, f64> }\n").is_empty());
    // … and a HashMap outside the simulation crates is fine.
    assert!(rules_at(
        "crates/report/src/fmt.rs",
        "struct S { m: HashMap<u64, f64> }\n"
    )
    .is_empty());
}

#[test]
fn nondet_iter_positive_and_keyed_access_near_miss() {
    let src = "struct S { m: HashMap<u64, f64> }\n\
               impl S {\n\
               fn get(&self, k: u64) -> Option<&f64> { self.m.get(&k) }\n\
               fn walk(&self) { for v in &self.m {} }\n\
               }\n";
    let f = rules_at(SIM, src);
    // The declaration fires once; keyed `.get` does not; the `for` does.
    assert_eq!(f, vec![("nondet-container", 1), ("nondet-iter", 4)]);
}

#[test]
fn nondet_iter_method_positive() {
    let src = "struct S { m: HashMap<u64, f64> }\n\
               impl S { fn w(&self) -> Vec<u64> { self.m.keys().copied().collect() } }\n";
    let f = rules_at(SIM, src);
    assert!(f.contains(&("nondet-iter", 2)), "{f:?}");
}

#[test]
fn nondet_escape_honored() {
    let src = "struct S {\n\
               // apt-lint: allow(nondet-container, keyed-only memo, never iterated)\n\
               m: HashMap<u64, f64>,\n\
               }\n";
    assert!(rules_at(SIM, src).is_empty());
}

#[test]
fn nondet_string_and_comment_immunity() {
    let src = "// a HashMap<u64, f64> in prose\n\
               fn f() -> &'static str { \"HashMap<u64, f64>\" }\n";
    assert!(rules_at(SIM, src).is_empty());
}

#[test]
fn nondet_exempt_in_tests() {
    let src =
        "#[cfg(test)]\nmod tests {\n  fn f() { let mut m = HashMap::new(); for k in &m {} }\n}\n";
    assert!(rules_at(SIM, src).is_empty());
}

// ------------------------------------------------------------ wall-clock

#[test]
fn wall_clock_positive() {
    let f = rules_at(SIM, "fn f() { let t = std::time::Instant::now(); }\n");
    assert_eq!(f, vec![("wall-clock", 1)]);
    let f = rules_at(SIM, "fn f() { let t = SystemTime::now(); }\n");
    assert_eq!(f, vec![("wall-clock", 1)]);
}

#[test]
fn wall_clock_allowlisted_and_test_near_miss() {
    // The progress heartbeat is allowlisted: it reports wall-clock rates.
    assert!(rules_at(COLD, "fn f() { let t = Instant::now(); }\n").is_empty());
    // Test code may time itself.
    let src = "#[test]\nfn t() { let t = Instant::now(); }\n";
    assert!(rules_at(SIM, src).is_empty());
    // An unrelated `now` method is not a wall-clock read.
    assert!(rules_at(SIM, "fn f(e: &E) { let t = e.now(); }\n").is_empty());
}

#[test]
fn wall_clock_allowlist_is_exact_outside_simulation() {
    // The allowlist names single files and directories, not their
    // neighbours: a sibling of the heartbeat, and a crate with no entry,
    // are flagged even though no simulation scope covers them.
    let src = "fn f() { let t = Instant::now(); }\n";
    assert_eq!(
        rules_at("crates/telemetry/src/hist.rs", src),
        vec![("wall-clock", 1)]
    );
    assert_eq!(
        rules_at("crates/bench/src/main.rs", src),
        vec![("wall-clock", 1)]
    );
}

#[test]
fn wall_clock_escape_honored() {
    let src = "fn f() {\n\
               // apt-lint: allow(wall-clock, progress display only, never reaches sim state)\n\
               let t = Instant::now();\n\
               }\n";
    assert!(rules_at(SIM, src).is_empty());
}

#[test]
fn wall_clock_string_immunity() {
    assert!(rules_at(SIM, "fn f() -> &'static str { \"Instant::now\" }\n").is_empty());
}

// -------------------------------------------------------------- rng-salt

#[test]
fn rng_salt_positive() {
    let f = rules_at(COLD, "fn f() { let r = SplitMix64::new(0xDEAD_BEEF); }\n");
    assert_eq!(f, vec![("rng-salt", 1)]);
    // A literal anywhere inside the seed expression is still magic.
    let f = rules_at(
        COLD,
        "fn f(s: u64) { let r = SplitMix64::new(s ^ 1234); }\n",
    );
    assert_eq!(f, vec![("rng-salt", 1)]);
}

#[test]
fn rng_salt_near_misses() {
    // Config-seed-derived: fine.
    assert!(rules_at(COLD, "fn f(seed: u64) { let r = SplitMix64::new(seed); }\n").is_empty());
    // Named salt constant: fine (no literal at the call site).
    assert!(rules_at(
        COLD,
        "fn f(seed: u64) { let r = SplitMix64::new(seed ^ FAULT_STREAM_SALT); }\n"
    )
    .is_empty());
    // Tests seed with literals on purpose.
    let src = "#[test]\nfn t() { let r = SplitMix64::new(42); }\n";
    assert!(rules_at(COLD, src).is_empty());
}

#[test]
fn rng_salt_escape_honored() {
    let src = "fn f() {\n\
               // apt-lint: allow(rng-salt, fixture generator for the doc example)\n\
               let r = SplitMix64::new(7);\n\
               }\n";
    assert!(rules_at(COLD, src).is_empty());
}

#[test]
fn rng_salt_comment_immunity() {
    assert!(rules_at(COLD, "// e.g. SplitMix64::new(42)\nfn f() {}\n").is_empty());
}

// -------------------------------------------------------- hot-path-panic

#[test]
fn hot_path_panic_positive() {
    let f = rules_at(HOT, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    assert_eq!(f, vec![("hot-path-panic", 1)]);
    let f = rules_at(HOT, "fn f() { panic!(\"boom\") }\n");
    assert_eq!(f, vec![("hot-path-panic", 1)]);
}

#[test]
fn hot_path_panic_near_misses() {
    // Same code off the hot path: fine.
    assert!(rules_at(SIM, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n").is_empty());
    // `unwrap_or` is not `unwrap`.
    assert!(rules_at(HOT, "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n").is_empty());
    // Tests panic on purpose, even in hot-path files.
    let src = "#[cfg(test)]\nmod tests {\n  fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    assert!(rules_at(HOT, src).is_empty());
}

#[test]
fn hot_path_panic_escape_honored_including_multiline() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // apt-lint: allow(hot-path-panic, the caller checked is_some\n\
               // one frame up, so this cannot fire)\n\
               x.expect(\"checked\")\n\
               }\n";
    assert!(rules_at(HOT, src).is_empty());
}

#[test]
fn hot_path_panic_reasonless_escape_rejected() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // apt-lint: allow(hot-path-panic)\n\
               x.unwrap()\n\
               }\n";
    let f = rules_at(HOT, src);
    // The finding survives AND the empty escape is its own finding.
    assert!(f.contains(&("hot-path-panic", 3)), "{f:?}");
    assert!(f.contains(&("bad-escape", 2)), "{f:?}");
}

#[test]
fn hot_path_panic_string_immunity() {
    let src = "fn f() -> &'static str { \"call .unwrap() and panic!\" }\n";
    assert!(rules_at(HOT, src).is_empty());
}

// ---------------------------------------------------------- forbid-unsafe

#[test]
fn forbid_unsafe_positive_and_fix() {
    let f = rules_at("crates/x/src/lib.rs", "pub fn f() {}\n");
    assert_eq!(f, vec![("forbid-unsafe", 1)]);
    assert!(rules_at(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n"
    )
    .is_empty());
}

#[test]
fn forbid_unsafe_only_checks_lib_roots() {
    // Non-root modules inherit the crate root's forbid.
    assert!(rules_at("crates/x/src/util.rs", "pub fn f() {}\n").is_empty());
}

#[test]
fn forbid_unsafe_comment_mention_does_not_count() {
    // The attribute inside a comment must not satisfy the rule.
    let f = rules_at(
        "crates/x/src/lib.rs",
        "// TODO: add #![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    assert_eq!(f, vec![("forbid-unsafe", 1)]);
}

// ------------------------------------------------------------ bad-escape

#[test]
fn bad_escape_unknown_rule_and_malformed_shape() {
    let f = rules_at(
        COLD,
        "// apt-lint: allow(made-up-rule, because)\nfn f() {}\n",
    );
    assert_eq!(f, vec![("bad-escape", 1)]);
    let f = rules_at(COLD, "// apt-lint: please ignore this\nfn f() {}\n");
    assert_eq!(f, vec![("bad-escape", 1)]);
}

#[test]
fn bad_escape_wrong_rule_does_not_suppress() {
    // A (valid, reasoned) escape for the *wrong* rule leaves the finding.
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // apt-lint: allow(wall-clock, wrong rule entirely)\n\
               x.unwrap()\n\
               }\n";
    let f = rules_at(HOT, src);
    assert_eq!(f, vec![("hot-path-panic", 3)]);
}

// ------------------------------------------------------------------ json

#[test]
fn json_schema_pin() {
    // The exact serialized form is the contract: CI consumers parse this.
    let mut report = Report {
        root: "/w".to_string(),
        ..Report::default()
    };
    report.files_scanned = 2;
    report.findings.push(apt_lint::Finding {
        file: "crates/x/src/lib.rs".to_string(),
        line: 7,
        rule: "wall-clock",
        message: "say \"hi\"\\".to_string(),
        hint: "line\nbreak".to_string(),
    });
    assert_eq!(
        report.render_json(),
        "{\"schema\":\"apt-lint-v1\",\"root\":\"/w\",\"files_scanned\":2,\"findings\":[\
         {\"file\":\"crates/x/src/lib.rs\",\"line\":7,\"rule\":\"wall-clock\",\
         \"message\":\"say \\\"hi\\\"\\\\\",\"hint\":\"line\\nbreak\"}]}"
    );
}

#[test]
fn report_sort_is_stable_by_file_line_rule() {
    let mut report = Report::default();
    let f = |file: &str, line: u32, rule: &'static str| apt_lint::Finding {
        file: file.to_string(),
        line,
        rule,
        message: String::new(),
        hint: String::new(),
    };
    report.findings = vec![
        f("b.rs", 1, "wall-clock"),
        f("a.rs", 9, "rng-salt"),
        f("a.rs", 2, "wall-clock"),
        f("a.rs", 2, "hot-path-panic"),
    ];
    report.sort();
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("a.rs".to_string(), 2),
            ("a.rs".to_string(), 2),
            ("a.rs".to_string(), 9),
            ("b.rs".to_string(), 1),
        ]
    );
    assert_eq!(report.findings[0].rule, "hot-path-panic");
}

// ----------------------------------------------------------- the gate

/// The workspace itself is clean: `cargo test` fails if a violation lands
/// without a reasoned escape, independent of the CI step that runs the
/// binary.
#[test]
fn workspace_is_lint_clean() {
    let root = apt_lint::find_root(None);
    let report = apt_lint::scan_workspace(&root, &cfg()).expect("workspace scan");
    assert!(report.files_scanned > 80, "suspiciously few files scanned");
    let rendered = report.render_human();
    assert!(
        report.findings.is_empty(),
        "workspace has unescaped lint findings:\n{rendered}"
    );
}
