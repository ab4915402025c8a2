//! `--compare A B`: two records, or two directories of records, side by
//! side, judged by the bounds in `BENCHMARK.json`; and `--table A B`, the
//! README's baseline table generated from two recorded run sets.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::record::{format_value, Better, Contract, SCHEMA};

/// What two records must share before their numbers can be set side by
/// side: the run's length and shape, and the inputs.
const SETTINGS: [&str; 5] =
    ["seconds", "quick", "seed", "dataset_fingerprint", "stream_fingerprint"];

struct Loaded {
    workload: String,
    traced: bool,
    /// The values of `SETTINGS`, as written.
    settings: Vec<String>,
    failed_share: f64,
    /// `(name, value, rounds)` in the order the run printed them.
    metrics: Vec<(String, f64, Vec<f64>)>,
}

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} record", path.display()));
    }
    let num = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let metrics = v
        .get("metrics")
        .map_or(&[][..], Value::as_object)
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let rounds = m
                .get("rounds")
                .map_or(&[][..], Value::as_array)
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            Some((name.clone(), value, rounds))
        })
        .collect();
    Ok(Loaded {
        workload: v.get("workload").and_then(Value::as_str).unwrap_or("?").into(),
        traced: v.get("traced") == Some(&Value::Bool(true)),
        settings: SETTINGS
            .iter()
            .map(|key| v.get(key).map_or("-".into(), Value::compact))
            .collect(),
        failed_share: num("failed") / num("attempted").max(1.0),
        metrics,
    })
}

fn load_all(path: &Path) -> Result<Vec<Loaded>, String> {
    record_files(path)?.iter().map(|f| load(f)).collect()
}

/// The records under `path`: the file itself, or every record of a directory.
fn record_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".e2e.json") || name.ends_with(".layers.json")
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Distance between the quartiles of the rounds, as a share of their median.
fn round_spread(rounds: &[f64]) -> f64 {
    if rounds.len() < 4 {
        return 0.0;
    }
    let mut sorted = rounds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| sorted[((p * (sorted.len() - 1) as f64).round()) as usize];
    (at(0.75) - at(0.25)) / at(0.5).abs().max(f64::MIN_POSITIVE)
}

/// How `b` stands against `a` for a gated metric.
fn verdict(better: Better, bound: f64, a: (f64, &[f64]), b: (f64, &[f64])) -> &'static str {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (b.0 - a.0) / a.0.abs().max(f64::MIN_POSITIVE);
    let every_round_better = !a.1.is_empty()
        && !b.1.is_empty()
        && b.1.iter().all(|y| a.1.iter().all(|x| sign * (y - x) < 0.0));
    if worsening > bound {
        "worse"
    } else if every_round_better {
        "better"
    } else if round_spread(a.1).max(round_spread(b.1)) > bound {
        // The rounds scatter more than the bound: the two medians cannot
        // be told apart, which is not the same as unchanged.
        "unresolved"
    } else if worsening < -bound {
        "better"
    } else {
        "within bound"
    }
}

/// The record of `set` that `record` is to be compared with: the same
/// workload and kind, run with the same settings on the same inputs.
fn counterpart<'a>(record: &Loaded, set: &'a [Loaded], at: &Path) -> Result<&'a Loaded, String> {
    let kind = if record.traced { "per layer" } else { "end to end" };
    let other = set
        .iter()
        .find(|r| r.workload == record.workload && r.traced == record.traced)
        .ok_or(format!("{} ({kind}) has no counterpart in {}", record.workload, at.display()))?;
    for ((key, ours), theirs) in SETTINGS.iter().zip(&record.settings).zip(&other.settings) {
        if ours != theirs {
            return Err(format!(
                "{} ({kind}): {key} is {ours} on one side and {theirs} on the other; \
                 such records are not comparable",
                record.workload
            ));
        }
    }
    Ok(other)
}

/// Prints the comparison; `Ok(false)` when anything gated got worse.
pub fn compare(a: &Path, b: &Path, contract: &Contract) -> Result<bool, String> {
    let (set_a, set_b) = (load_all(a)?, load_all(b)?);
    for rb in &set_b {
        counterpart(rb, &set_a, a)?;
    }
    let mut ok = true;
    for ra in &set_a {
        let rb = counterpart(ra, &set_b, b)?;
        println!("== {} ({}) ==", ra.workload, if ra.traced { "per layer" } else { "end to end" });
        println!("  {:<44} {:>14} {:>14} {:>9}  verdict", "metric", "A", "B", "B/A");
        for (name, va, rounds_a) in &ra.metrics {
            let bound = contract.find(name).and_then(|d| Some((d.better, d.bound?)));
            let (shown, ratio, judged) = match rb.metrics.iter().find(|(n, ..)| n == name) {
                Some((_, vb, rounds_b)) => (
                    format_value(*vb),
                    if *va == 0.0 { "-".to_string() } else { format!("{:.4}", vb / va) },
                    match bound {
                        Some((better, bound)) => {
                            verdict(better, bound, (*va, rounds_a), (*vb, rounds_b))
                        }
                        None => "-",
                    },
                ),
                // A gated metric that B no longer reports cannot have held.
                None => ("missing".into(), "-".into(), if bound.is_some() { "worse" } else { "-" }),
            };
            ok &= judged != "worse";
            println!("  {name:<44} {:>14} {shown:>14} {ratio:>9}  {judged}", format_value(*va));
        }
        // Any rise in the failed share is a regression: it has no bound.
        let judged = if rb.failed_share > ra.failed_share { "worse" } else { "within bound" };
        ok &= judged != "worse";
        println!(
            "  {:<44} {:>14} {:>14} {:>9}  {judged}",
            "failed_share", ra.failed_share, rb.failed_share, "-"
        );
    }
    if set_a.is_empty() {
        return Err(format!("{}: no records", a.display()));
    }
    Ok(ok)
}

/// A markdown table of the end-to-end metrics of two run sets, `A / B` in
/// each cell, for `README.md`.
pub fn table(a: &Path, b: &Path, contract: &Contract) -> Result<(), String> {
    let (set_a, set_b) = (load_all(a)?, load_all(b)?);
    let names: Vec<&str> = contract.end_to_end.iter().map(|d| d.name.as_str()).collect();
    println!("| workload | {} |", names.join(" | "));
    println!("|---|{}", "---:|".repeat(names.len()));
    for ra in set_a.iter().filter(|r| !r.traced) {
        let rb = set_b.iter().find(|r| r.workload == ra.workload && !r.traced);
        let cell = |name: &str| {
            let value = |r: &Loaded| {
                r.metrics
                    .iter()
                    .find(|(n, ..)| n == name)
                    .map_or("-".into(), |(_, v, _)| format_value(*v))
            };
            format!("{} / {}", value(ra), rb.map_or("-".into(), value))
        };
        let cells: Vec<String> = names.iter().map(|n| cell(n)).collect();
        println!("| `{}` | {} |", ra.workload, cells.join(" | "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_rounds() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 130.0, 100.0, 70.0, 125.0];
        let lower =
            |a: &[f64], b: &[f64]| verdict(Better::Lower, 0.1, (median(a), a), (median(b), b));
        assert_eq!(lower(&steady, &steady), "within bound");
        assert_eq!(lower(&steady, &slower), "worse");
        assert_eq!(lower(&slower, &steady), "better");
        assert_eq!(lower(&steady, &noisy), "unresolved");
        // For a metric where higher is better the same numbers read the other way.
        let higher = verdict(Better::Higher, 0.1, (100.0, &steady), (120.0, &slower));
        assert_eq!(higher, "better");
    }

    #[test]
    fn records_run_differently_are_refused() {
        let record = |seconds: &str| Loaded {
            workload: "sgkq-hot".into(),
            traced: false,
            settings: [seconds, "false", "1", "\"0x1\"", "\"0x2\""].map(String::from).into(),
            failed_share: 0.0,
            metrics: Vec::new(),
        };
        let at = Path::new("B");
        assert!(counterpart(&record("20"), &[record("20")], at).is_ok());
        let err = counterpart(&record("20"), &[record("5")], at).err().expect("lengths differ");
        assert!(err.contains("seconds is 20 on one side and 5 on the other"), "{err}");
        let traced = Loaded { traced: true, ..record("20") };
        assert!(counterpart(&traced, &[record("20")], at).is_err());
    }

    fn median(v: &[f64]) -> f64 {
        crate::loadgen::median(v)
    }
}
