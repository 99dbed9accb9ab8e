//! Findings and their two renderings: human text and the stable
//! `apt-lint-v1` JSON schema.
//!
//! The JSON layer is hand-rolled (the linter is dependency-free). The
//! schema is a contract consumed by CI and pinned by a round-trip test:
//!
//! ```json
//! {
//!   "schema": "apt-lint-v1",
//!   "root": "/abs/workspace",
//!   "files_scanned": 123,
//!   "findings": [
//!     {"file": "crates/x/src/y.rs", "line": 7, "rule": "nondet-iter",
//!      "message": "…", "hint": "…"}
//!   ]
//! }
//! ```
//!
//! Field names, field order inside a finding object, and the rule-id
//! vocabulary are all stable; additions are append-only.

use std::fmt::Write as _;

/// Rule identifiers — the closed vocabulary of the `rule` field.
pub const RULES: &[&str] = &[
    "nondet-container",
    "nondet-iter",
    "wall-clock",
    "rng-salt",
    "hot-path-panic",
    "forbid-unsafe",
    "bad-escape",
    "global-state",
];

/// One lint finding: a rule violation at a source location, with a fix
/// hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to escape it with a reason).
    pub hint: String,
}

/// A full scan result.
#[derive(Debug, Default)]
pub struct Report {
    /// Absolute workspace root the scan ran over.
    pub root: String,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sort findings into the canonical (file, line, rule) order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human rendering: one block per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            let _ = writeln!(out, "    hint: {}", f.hint);
        }
        let _ = writeln!(
            out,
            "apt-lint: {} file{} scanned, {} finding{}",
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
        );
        out
    }

    /// The stable `apt-lint-v1` JSON rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"apt-lint-v1\",\"root\":");
        json_string(&mut out, &self.root);
        let _ = write!(
            out,
            ",\"files_scanned\":{},\"findings\":[",
            self.files_scanned
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":");
            json_string(&mut out, &f.file);
            let _ = write!(out, ",\"line\":{},\"rule\":", f.line);
            json_string(&mut out, f.rule);
            out.push_str(",\"message\":");
            json_string(&mut out, &f.message);
            out.push_str(",\"hint\":");
            json_string(&mut out, &f.hint);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Append `s` as a JSON string literal (RFC 8259 escaping; non-ASCII
/// passes through as UTF-8).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shape() {
        let mut r = Report {
            root: "/tmp/ws".into(),
            files_scanned: 2,
            findings: vec![Finding {
                file: "crates/x/src/a.rs".into(),
                line: 3,
                rule: "rng-salt",
                message: "quote \" and backslash \\".into(),
                hint: "tab\there".into(),
            }],
        };
        r.sort();
        let j = r.render_json();
        assert!(j.starts_with("{\"schema\":\"apt-lint-v1\""));
        assert!(j.contains("\\\""));
        assert!(j.contains("\\\\"));
        assert!(j.contains("\\t"));
        assert!(j.contains("\"line\":3"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn human_summary_counts() {
        let r = Report {
            root: String::new(),
            files_scanned: 1,
            findings: Vec::new(),
        };
        let h = r.render_human();
        assert!(h.contains("1 file scanned, 0 findings"));
    }
}
