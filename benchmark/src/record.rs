//! One record schema for every run, and the benchmark's contract
//! (`BENCHMARK.json`) and pinned input fingerprints (`pins.json`), both
//! compiled in so the harness cannot disagree with the files beside it.

use crate::host;
use crate::json::{self, Value};
use crate::loadgen::{median, Tally};

pub const SCHEMA: &str = "disks-benchmark/1";
const CONTRACT: &str = include_str!("../../BENCHMARK.json");
const PINS: &str = include_str!("../pins.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// The per-round values `value` is the median of; empty for a count.
    pub rounds: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric { name: name.into(), unit: unit.into(), value, rounds: Vec::new() }
    }

    pub fn of_rounds(name: &str, unit: &str, rounds: Vec<f64>) -> Metric {
        Metric { name: name.into(), unit: unit.into(), value: median(&rounds), rounds }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base by which the metric may worsen; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Contract {
    pub fn load() -> Contract {
        let v = json::parse(CONTRACT).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<Declared> {
            v.get(key)
                .map_or(&[][..], Value::as_array)
                .iter()
                .map(|m| Declared {
                    name: m.get("name").and_then(Value::as_str).unwrap_or_default().into(),
                    unit: m.get("unit").and_then(Value::as_str).unwrap_or_default().into(),
                    better: match m.get("better").and_then(Value::as_str) {
                        Some("higher") => Better::Higher,
                        _ => Better::Lower,
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Contract {
            run_seconds: v.get("run_seconds").and_then(Value::as_f64).unwrap_or(10.0),
            end_to_end: declared("end_to_end"),
            per_layer: declared("per_layer"),
        }
    }

    pub fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end.iter().chain(&self.per_layer).find(|d| d.name == name)
    }

    /// The metrics a run printed must be the declared ones, name and unit.
    pub fn check(&self, traced: bool, metrics: &[Metric]) -> Result<(), String> {
        let declared = if traced { &self.per_layer } else { &self.end_to_end };
        for d in declared {
            match metrics.iter().find(|m| m.name == d.name) {
                None => return Err(format!("declared metric {} was not measured", d.name)),
                Some(m) if m.unit != d.unit => {
                    return Err(format!("{}: unit {} but {} is declared", d.name, m.unit, d.unit))
                }
                Some(m) if !m.value.is_finite() => return Err(format!("{} is not finite", d.name)),
                Some(_) => {}
            }
        }
        match metrics.iter().find(|m| !declared.iter().any(|d| d.name == m.name)) {
            Some(m) => Err(format!("metric {} is not declared in BENCHMARK.json", m.name)),
            None => Ok(()),
        }
    }
}

/// The fingerprints recorded when the benchmark was defined: the dataset's,
/// and each workload's query stream for seed 1.
pub struct Pins(Value);

impl Pins {
    pub fn load() -> Pins {
        Pins(json::parse(PINS).expect("pins.json parses"))
    }

    pub fn dataset(&self) -> Option<u64> {
        self.0.get("dataset").and_then(Value::as_str).and_then(parse_hex)
    }

    pub fn stream_seed_1(&self, workload: &str) -> Option<u64> {
        self.0.get("streams_seed_1")?.get(workload).and_then(Value::as_str).and_then(parse_hex)
    }
}

pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub dataset_fingerprint: u64,
    pub stream_fingerprint: u64,
    /// `{:?}` of the effective `ClusterConfig`.
    pub config: String,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// `{name: {value, unit[, rounds]}}` in the order measured.
    fn metrics_json(&self, with_rounds: bool) -> Value {
        let fields = |m: &Metric| {
            let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(&*m.unit))];
            if with_rounds {
                fields.push((
                    "rounds",
                    Value::Arr(m.rounds.iter().map(|&r| Value::Num(r)).collect()),
                ));
            }
            (m.name.clone(), Value::obj(fields))
        };
        Value::Obj(self.metrics.iter().map(fields).collect())
    }

    pub fn to_json(&self) -> Value {
        let opt = |s: Option<String>| s.map_or(Value::Null, Value::Str);
        Value::obj([
            ("schema", Value::str(SCHEMA)),
            ("workload", Value::str(&*self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("quick", Value::Bool(self.quick)),
            ("traced", Value::Bool(self.traced)),
            (
                "host",
                Value::obj([
                    ("nproc", Value::Num(host::nproc() as f64)),
                    ("kernel", Value::str(host::kernel())),
                    ("rustc", opt(host::rustc_version())),
                    ("commit", opt(host::commit())),
                ]),
            ),
            ("dataset_fingerprint", Value::str(hex(self.dataset_fingerprint))),
            ("stream_fingerprint", Value::str(hex(self.stream_fingerprint))),
            ("cluster_config", Value::str(&*self.config)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("failures", Value::Arr(self.tally.notes.iter().map(Value::str).collect())),
            ("metrics", self.metrics_json(true)),
        ])
    }

    /// The last line of standard output: what the driver reads.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .compact()
    }

    /// Every metric by name with its unit, for a person.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced { "per layer" } else { "end to end" }
        );
        for m in &self.metrics {
            println!("  {:<44} {:>16} {}", m.name, format_value(m.value), m.unit);
        }
        println!(
            "  attempted {} failed {} failed_share {}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        for note in &self.tally.notes {
            println!("  FAILED {note}");
        }
    }
}

pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}
