//! Per-crate lint configuration: which crates are *simulation* crates
//! (where iteration order can reach a trace byte), which modules are the
//! hot paths held to the panic-freedom tier, and which modules are
//! allowed to read the wall clock.
//!
//! The configuration is code, not a config file: the linter is
//! dependency-free (no TOML/JSON parser to vendor), the set changes only
//! when the workspace grows a crate, and a wrong entry fails loudly in
//! the workspace-clean test.

/// Workspace-relative path lists driving per-rule scoping. Paths use
/// forward slashes; an entry ending in `/` matches the whole subtree.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate directory names (under `crates/`) whose state feeds
    /// simulation output: any nondeterministic-order container use here
    /// can corrupt a byte-identical trace. Keyed lookup is fine;
    /// declaration and iteration are flagged.
    pub simulation_crates: Vec<String>,
    /// Modules on the panic-freedom tier: the engine fixpoint, the open
    /// driver, and policy decide paths. `unwrap`/`expect`/`panic!`-family
    /// calls here need a reasoned `apt-lint: allow` escape.
    pub hot_path: Vec<String>,
    /// Modules allowed to read `Instant::now` / `SystemTime`: the
    /// progress heartbeat, whose wall-clock reads never feed simulation
    /// state.
    pub wall_clock_allowlist: Vec<String>,
}

impl LintConfig {
    /// The apt-suite workspace configuration (the one CI enforces).
    pub fn workspace_default() -> Self {
        LintConfig {
            simulation_crates: [
                "hetsim", "stream", "slo", "core", "policies", "faults", "control",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            hot_path: [
                // Engine fixpoint (closed) and the slot-recycling open engine.
                "crates/hetsim/src/engine.rs",
                "crates/hetsim/src/open.rs",
                // The open-system streaming driver, and the job build it
                // runs per admission.
                "crates/stream/src/driver.rs",
                "crates/stream/src/job.rs",
                // Policy decide paths: the APT family and the seed roster.
                "crates/core/src/apt.rs",
                "crates/core/src/apt_r.rs",
                "crates/core/src/deadline.rs",
                "crates/policies/src/",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            // The --progress stderr heartbeat.
            wall_clock_allowlist: vec!["crates/telemetry/src/progress.rs".to_string()],
        }
    }

    /// Does `rel_path` (workspace-relative, `/`-separated) fall in `list`?
    fn matches(list: &[String], rel_path: &str) -> bool {
        list.iter()
            .any(|e| rel_path == e || (e.ends_with('/') && rel_path.starts_with(e.as_str())))
    }

    /// The crate directory name for a workspace-relative path
    /// (`crates/hetsim/src/engine.rs` → `hetsim`); the root meta crate
    /// reports as `apt-suite`.
    pub fn crate_name(rel_path: &str) -> &str {
        if let Some(rest) = rel_path.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or(rest)
        } else {
            "apt-suite"
        }
    }

    /// Is this file in a simulation crate (nondeterminism rules apply)?
    pub fn is_simulation(&self, rel_path: &str) -> bool {
        let name = Self::crate_name(rel_path);
        self.simulation_crates.iter().any(|c| c == name)
    }

    /// Is this file on the panic-freedom hot path?
    pub fn is_hot_path(&self, rel_path: &str) -> bool {
        Self::matches(&self.hot_path, rel_path)
    }

    /// May this file read the wall clock?
    pub fn wall_clock_allowed(&self, rel_path: &str) -> bool {
        Self::matches(&self.wall_clock_allowlist, rel_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scoping() {
        let cfg = LintConfig::workspace_default();
        assert!(cfg.is_simulation("crates/hetsim/src/open.rs"));
        assert!(cfg.is_simulation("crates/slo/src/admission.rs"));
        assert!(!cfg.is_simulation("crates/telemetry/src/registry.rs"));
        assert!(!cfg.is_simulation("src/lib.rs"));
        assert!(cfg.is_hot_path("crates/policies/src/heft.rs"));
        assert!(cfg.is_hot_path("crates/hetsim/src/engine.rs"));
        assert!(cfg.is_hot_path("crates/stream/src/job.rs"));
        for family in ["apt.rs", "apt_r.rs", "deadline.rs"] {
            assert!(cfg.is_hot_path(&format!("crates/core/src/{family}")));
        }
        assert!(!cfg.is_hot_path("crates/core/src/tuning.rs"));
        assert!(!cfg.is_hot_path("crates/stream/src/source.rs"));
        assert!(!cfg.is_hot_path("crates/hetsim/src/cost.rs"));
        assert!(cfg.wall_clock_allowed("crates/telemetry/src/progress.rs"));
        assert!(!cfg.wall_clock_allowed("crates/telemetry/src/hist.rs"));
        assert!(!cfg.wall_clock_allowed("crates/stream/src/driver.rs"));
        assert_eq!(LintConfig::crate_name("crates/core/src/apt.rs"), "core");
        assert_eq!(LintConfig::crate_name("src/lib.rs"), "apt-suite");
    }
}
