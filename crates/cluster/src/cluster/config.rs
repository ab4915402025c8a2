//! Cluster construction parameters and the one table that reads them from
//! the environment.
//!
//! Every `DISKS_*` knob is one row of [`KNOBS`]: its name, the forms it
//! accepts, and the field it sets. [`ClusterConfig::from_env`] walks the
//! table once; a value that is not one of the accepted forms, or a `DISKS_*`
//! name the table does not hold, is a [`ConfigError`] naming the variable,
//! never a silent default.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use crate::transport::{FaultPlan, HeartbeatConfig, NetworkModel, TransportKind};

/// Cluster construction parameters. Fields with a `DISKS_*` variable take
/// it as their default (see [`ClusterConfig::from_env`] for the accepted
/// forms and the values with every variable unset).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker machines; `None` = one per fragment (the paper's
    /// default deployment).
    pub machines: Option<usize>,
    /// Network model for modeled response times.
    pub network: NetworkModel,
    /// Maximum silence (no worker progress) the gather loop tolerates
    /// before declaring the outstanding fragments stalled and
    /// re-dispatching them.
    pub deadline: Duration,
    /// Total dispatch attempts per fragment task (initial + retries); at
    /// least 1.
    pub max_attempts: u32,
    /// When the retry budget is exhausted, return a degraded result listing
    /// the unanswered fragments instead of failing with
    /// [`disks_core::QueryError::WorkerTimeout`].
    pub allow_partial: bool,
    /// Deterministic fault schedule injected into the links and workers
    /// (the fault-tolerance test substrate; `None` in production).
    pub faults: Option<FaultPlan>,
    /// Byte budget of each worker's coverage cache; `0` disables caching.
    /// Env: `DISKS_COVERAGE_CACHE`.
    pub coverage_cache_bytes: usize,
    /// Cross-query batching window: up to this many admitted plans of a
    /// stream are merged into one [`disks_core::SuperPlan`] per worker per
    /// round. `0` or `1` disables batching (one `Evaluate` frame per query
    /// per worker). Env: `DISKS_BATCH`.
    pub batch_window: usize,
    /// Transport carrying coordinator↔worker frames: in-process crossbeam
    /// channels, or loopback TCP sockets with length-prefixed framing,
    /// keepalives, and read-timeout supervision — same wire codec, same
    /// counters, same fault plans. Env: `DISKS_TRANSPORT`.
    pub transport: TransportKind,
    /// TCP supervision timing — keepalive interval and read timeout.
    /// Ignored by the channel transport. Env: `DISKS_HEARTBEAT_MS`,
    /// `DISKS_TCP_READ_TIMEOUT_MS`.
    pub heartbeat: HeartbeatConfig,
}

/// A `DISKS_*` variable whose value is not one of its accepted forms, or
/// whose name is not one this build reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending variable.
    pub var: String,
    /// Its value as found.
    pub value: String,
    /// The forms the variable accepts.
    pub expected: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for ConfigError {}

/// One row of the knob table.
struct Knob {
    var: &'static str,
    /// Accepted forms, quoted verbatim in [`ConfigError::expected`].
    expected: &'static str,
    /// Store a (trimmed) value into its field; `None` when the value is
    /// not an accepted form.
    set: fn(&mut ClusterConfig, &str) -> Option<()>,
}

/// `0`/`off`/`false` or `1`/`on`/`true`, any case.
fn switch(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "0" | "off" | "false" => Some(false),
        "1" | "on" | "true" => Some(true),
        _ => None,
    }
}

/// A non-negative number, `off`/`false` reading as zero.
fn count<T: FromStr + Default>(v: &str) -> Option<T> {
    match switch(v) {
        Some(false) => Some(T::default()),
        _ => v.parse().ok(),
    }
}

/// A positive number of milliseconds.
fn positive_millis(v: &str) -> Option<Duration> {
    v.parse().ok().filter(|&ms: &u64| ms > 0).map(Duration::from_millis)
}

const KNOBS: &[Knob] = &[
    Knob {
        var: "DISKS_COVERAGE_CACHE",
        expected: "a byte count, or 0/off/false to disable caching",
        set: |c, v| count(v).map(|n| c.coverage_cache_bytes = n),
    },
    Knob {
        var: "DISKS_BATCH",
        expected: "a window size, or 0/1/off/false to disable batching",
        set: |c, v| count(v).map(|n: usize| c.batch_window = n.max(1)),
    },
    Knob {
        var: "DISKS_TRANSPORT",
        expected: "channel or tcp",
        set: |c, v| {
            [("channel", TransportKind::Channel), ("tcp", TransportKind::Tcp)]
                .into_iter()
                .find(|(name, _)| v.eq_ignore_ascii_case(name))
                .map(|(_, kind)| c.transport = kind)
        },
    },
    Knob {
        var: "DISKS_HEARTBEAT_MS",
        expected: "milliseconds, at least 1",
        set: |c, v| positive_millis(v).map(|d| c.heartbeat.interval = d),
    },
    Knob {
        var: "DISKS_TCP_READ_TIMEOUT_MS",
        expected: "milliseconds, at least 1",
        set: |c, v| positive_millis(v).map(|d| c.heartbeat.read_timeout = d),
    },
];

impl ClusterConfig {
    /// The configuration the process environment asks for: the shipped
    /// defaults, overridden by whichever `DISKS_*` variables are set.
    ///
    /// With every variable unset: 64 MiB coverage cache, fixed batching
    /// windows of 16, channel transport, 100 ms / 1 s heartbeat.
    ///
    /// A `DISKS_*` variable that is not a row of the table is an error
    /// too: a removed or misspelt knob is reported, not run as its default.
    pub fn from_env() -> Result<ClusterConfig, ConfigError> {
        // `vars_os`: `vars` panics on any entry that is not Unicode.
        Self::from_vars(std::env::vars_os().filter_map(|(name, value)| {
            Some((name.into_string().ok()?, value.to_string_lossy().into_owned()))
        }))
    }

    /// [`ClusterConfig::from_env`] over any list of `(name, value)` pairs,
    /// so the table can be exercised without touching the process
    /// environment. Names outside `DISKS_*` are ignored.
    pub fn from_vars(
        vars: impl IntoIterator<Item = (String, String)>,
    ) -> Result<ClusterConfig, ConfigError> {
        // Sorted, so the unknown name reported is the same on every run.
        let vars: BTreeMap<String, String> =
            vars.into_iter().filter(|(name, _)| name.starts_with("DISKS_")).collect();
        let known = || KNOBS.iter().map(|k| k.var);
        if let Some((name, value)) = vars.iter().find(|(name, _)| known().all(|k| k != *name)) {
            return Err(ConfigError {
                var: name.clone(),
                value: value.clone(),
                expected: format!(
                    "a variable this build reads ({})",
                    known().collect::<Vec<_>>().join(", ")
                ),
            });
        }
        let lookup = |var: &str| vars.get(var).cloned();
        let mut config = ClusterConfig {
            machines: None,
            // The paper's setting: a 100 Mb TP-LINK switch.
            network: NetworkModel::switch_100mbps(),
            deadline: Duration::from_secs(30),
            max_attempts: 3,
            allow_partial: false,
            faults: None,
            coverage_cache_bytes: 64 << 20,
            batch_window: 16,
            transport: TransportKind::Channel,
            heartbeat: HeartbeatConfig::default(),
        };
        for knob in KNOBS {
            let Some(value) = lookup(knob.var) else { continue };
            if (knob.set)(&mut config, value.trim()).is_none() {
                return Err(ConfigError {
                    var: knob.var.to_string(),
                    value,
                    expected: knob.expected.to_string(),
                });
            }
        }
        // The two heartbeat variables are only meaningful as a pair. The
        // defaults pass, so a failing pair has at least one of them set:
        // blame the timeout when it was given, else the interval (`expected`
        // quotes both effective values).
        let HeartbeatConfig { interval, read_timeout } = config.heartbeat;
        if let Err(e) = HeartbeatConfig::checked(interval, read_timeout) {
            let var = ["DISKS_TCP_READ_TIMEOUT_MS", "DISKS_HEARTBEAT_MS"]
                .into_iter()
                .find(|var| lookup(var).is_some())
                .expect("the default heartbeat pair is valid");
            return Err(ConfigError {
                var: var.to_string(),
                value: lookup(var).unwrap_or_default(),
                expected: e.to_string(),
            });
        }
        Ok(config)
    }

    /// Clamp the fields with a documented minimum and split off the fault
    /// plan (consumed building the links): the form [`crate::Cluster`]
    /// keeps for its lifetime.
    pub(super) fn normalised(mut self) -> (ClusterConfig, Option<FaultPlan>) {
        self.max_attempts = self.max_attempts.max(1);
        self.batch_window = self.batch_window.max(1);
        let faults = self.faults.take();
        (self, faults)
    }
}

impl Default for ClusterConfig {
    /// [`ClusterConfig::from_env`], for `..ClusterConfig::default()`
    /// literals.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] message when a `DISKS_*` variable
    /// holds a value it does not accept; binaries call `from_env` first and
    /// exit cleanly instead.
    fn default() -> Self {
        Self::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(vars: &[(&str, &str)]) -> Result<ClusterConfig, ConfigError> {
        ClusterConfig::from_vars(vars.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn empty_lookup_is_the_shipped_defaults() {
        let c = with(&[]).unwrap();
        assert_eq!(c.coverage_cache_bytes, 64 << 20);
        assert_eq!(c.batch_window, 16);
        assert_eq!(c.transport, TransportKind::Channel);
        assert_eq!(c.heartbeat.interval, Duration::from_millis(100));
        assert_eq!(c.heartbeat.read_timeout, Duration::from_secs(1));
    }

    #[test]
    fn every_knob_accepts_its_documented_forms() {
        for off in ["0", "off", "FALSE"] {
            let c = with(&[("DISKS_COVERAGE_CACHE", off), ("DISKS_BATCH", off)]).unwrap();
            assert_eq!((c.coverage_cache_bytes, c.batch_window), (0, 1));
        }
        let c = with(&[
            ("DISKS_COVERAGE_CACHE", " 4096 "),
            ("DISKS_BATCH", "8"),
            ("DISKS_TRANSPORT", "TCP"),
            ("DISKS_HEARTBEAT_MS", "20"),
            ("DISKS_TCP_READ_TIMEOUT_MS", "300"),
        ])
        .unwrap();
        assert_eq!((c.coverage_cache_bytes, c.batch_window), (4096, 8));
        assert_eq!(c.transport, TransportKind::Tcp);
        assert_eq!(c.heartbeat.interval, Duration::from_millis(20));
        assert_eq!(c.heartbeat.read_timeout, Duration::from_millis(300));

        assert_eq!(
            with(&[("DISKS_TRANSPORT", "channel")]).unwrap().transport,
            TransportKind::Channel
        );
    }

    #[test]
    fn garbage_in_any_variable_is_an_error_naming_it() {
        for knob in KNOBS {
            for bad in ["garbage", "", "-1", "5e6"] {
                let err = with(&[(knob.var, bad)]).expect_err(knob.var);
                assert_eq!((err.var.as_str(), err.value.as_str()), (knob.var, bad));
                assert_eq!(err.expected, knob.expected);
                assert!(err.to_string().starts_with(knob.var), "{err}");
            }
        }
        // A typo a lenient parser would swallow, and a form an earlier build
        // accepted.
        assert!(with(&[("DISKS_TRANSPORT", "tpc")]).is_err());
        let err = with(&[("DISKS_BATCH", "adaptive")]).unwrap_err();
        assert_eq!(err.var, "DISKS_BATCH");
        assert_eq!(err.expected, "a window size, or 0/1/off/false to disable batching");
    }

    #[test]
    fn a_disks_variable_outside_the_table_is_an_error_naming_it() {
        // A knob this build never had, six it had and removed, and a
        // misspelt one.
        for (name, value) in [
            ("DISKS_THREADS", "4"),
            ("DISKS_REPLICAS", "1"),
            ("DISKS_HEDGE", "adaptive"),
            ("DISKS_QUARANTINE", "1"),
            ("DISKS_COST_LIMIT", "5000000"),
            ("DISKS_BROWNOUT", "0.9"),
            ("DISKS_RETRY_BACKOFF", "3"),
            ("DISKS_BACTH", "8"),
        ] {
            let err = with(&[("DISKS_BATCH", "8"), (name, value)]).expect_err(name);
            assert_eq!((err.var.as_str(), err.value.as_str()), (name, value));
            assert!(err.to_string().starts_with(name), "{err}");
            for known in KNOBS.iter().map(|k| k.var) {
                assert!(err.expected.contains(known), "{err}");
            }
        }
        // Other programs' variables are none of this table's business.
        assert!(with(&[("PATH", "/bin"), ("DISK_BATCH", "x"), ("disks_batch", "x")]).is_ok());
    }

    #[test]
    fn heartbeat_pair_is_validated_together() {
        // The error names a variable the operator set, never a default.
        let err = with(&[("DISKS_HEARTBEAT_MS", "2000")]).unwrap_err();
        assert_eq!((err.var.as_str(), err.value.as_str()), ("DISKS_HEARTBEAT_MS", "2000"));
        assert!(err.expected.contains("read timeout 1000ms must exceed"), "{err}");
        let err = with(&[("DISKS_TCP_READ_TIMEOUT_MS", "50")]).unwrap_err();
        assert_eq!((err.var.as_str(), err.value.as_str()), ("DISKS_TCP_READ_TIMEOUT_MS", "50"));
        assert!(err.expected.contains("the keepalive interval 100ms"), "{err}");
        let both = [("DISKS_HEARTBEAT_MS", "300"), ("DISKS_TCP_READ_TIMEOUT_MS", "300")];
        assert_eq!(with(&both).unwrap_err().var, "DISKS_TCP_READ_TIMEOUT_MS");
        assert!(with(&[("DISKS_HEARTBEAT_MS", "0")]).is_err());
    }

    #[test]
    fn readme_knob_table_lists_exactly_the_table_s_variables() {
        let readme = include_str!("../../../../README.md");
        let mut documented: Vec<&str> = readme
            .lines()
            .filter(|l| l.starts_with("| `"))
            .filter_map(|l| l.split('|').nth(2))
            .filter_map(|env| env.trim().trim_matches('`').split('=').next())
            .filter(|name| name.starts_with("DISKS_"))
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut table: Vec<&str> = KNOBS.iter().map(|k| k.var).collect();
        table.sort_unstable();
        assert_eq!(documented, table);
    }
}
