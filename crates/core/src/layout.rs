//! The workload-aware layout switch (DESIGN.md §6i).
//!
//! `DISKS_LAYOUT` selects between the two layout regimes:
//!
//! * `static` (the default, and any unrecognized value) — every layout
//!   decision is made exactly as before this knob existed: the bi-level
//!   split comes from the static [`IndexConfig`](crate::IndexConfig),
//!   cache admission is plain LRU, placement heat defaults to uniform.
//!   This path is bit-identical to the pre-layout system.
//! * `workload` — consumers that hold a
//!   [`LayoutProfile`](disks_partition::LayoutProfile) feed it into their
//!   layout decisions (observed-radius bi-level split, heat-aware cache
//!   admission via its default threshold, profile-seeded placement).
//!
//! The mode is read per decision point rather than cached globally so
//! tests and the bench harness can flip it between cluster builds.

/// Which layout regime the process runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMode {
    /// Data-only layout, bit-identical to the historical behaviour.
    #[default]
    Static,
    /// Query-log-driven layout.
    Workload,
}

impl LayoutMode {
    /// Read `DISKS_LAYOUT` from the process environment (see
    /// [`LayoutMode::parse`]).
    pub fn from_env() -> Self {
        Self::parse(std::env::var("DISKS_LAYOUT").ok().as_deref())
    }

    /// Parse a `DISKS_LAYOUT` value: `workload` (any case) selects
    /// [`LayoutMode::Workload`]; `static`, unset, or anything else is
    /// [`LayoutMode::Static`].
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.eq_ignore_ascii_case("workload") => LayoutMode::Workload,
            _ => LayoutMode::Static,
        }
    }

    pub fn is_workload(self) -> bool {
        self == LayoutMode::Workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_static() {
        // The test environment leaves DISKS_LAYOUT unset (the CI workload
        // lane runs the whole suite with it set, exercising the other arm).
        if std::env::var("DISKS_LAYOUT").is_err() {
            assert_eq!(LayoutMode::from_env(), LayoutMode::Static);
            assert!(!LayoutMode::from_env().is_workload());
        }
    }
}
