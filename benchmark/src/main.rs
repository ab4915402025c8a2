//! The DISKS benchmark: one harness, four named workloads, gated end-to-end
//! metrics and an outside-in per-layer trace. See `README.md`.

mod compare;
mod host;
mod json;
mod layers;
mod loadgen;
mod record;
mod rng;
mod sut;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use loadgen::{percentile, LoadGen, Phase};
use record::{Contract, Metric, Pins, Record};
use rng::SplitMix64;
use workload::{Stream, Workload};

const USAGE: &str = "\
usage: disks-benchmark --workload <sgkq-hot|sgkq-cold|rkq-tile|mixed-evict|all>
                       [--seed N] [--trace [0|1]] [--quick] [--out DIR]
                       [--seconds S]   (the driver's: it passes BENCHMARK.json's run_seconds)
       disks-benchmark --compare A B      (two records, or two directories of records)
       disks-benchmark --table A B        (the README's baseline table from two run sets)";

/// Salt of the open-loop arrival stream, apart from the query stream's.
const ARRIVALS_SALT: u64 = 0xA221;
const ROUNDS: usize = 5;
/// `--quick` runs one round of the five, of a run this long.
const QUICK_SECONDS: f64 = 5.0;
/// Share of a round spent in the loaded closed loop. Throughput and CPU per
/// query are means and settle within a second; the rest runs with one
/// request outstanding, where a per-round p99 needs its ≥ 1 000 samples on
/// the slowest workload with room to spare (`rkq-tile`: ~1 450 a round).
const LOADED_SHARE: f64 = 0.25;
/// A disturbed round is repeated, at most this often in one run: on a host
/// that is busy throughout, repeats must not eat the driver's time budget.
const MAX_DISCARDED_ROUNDS: u32 = 1;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// The system under test, set up once.
pub struct System {
    pub net: sut::RoadNetwork,
    pub partitioning: sut::Partitioning,
    pub cluster: sut::Cluster,
    /// `(persisted bytes, DL pairs, shortcuts)` of the indexes the cluster
    /// was built from.
    pub index_shape: (usize, usize, usize),
    /// Seconds spent in generate, partition, index build, cluster build.
    pub stages: [f64; 4],
}

impl System {
    pub fn set_up() -> System {
        let timed = Instant::now();
        let net = sut::generate();
        let generated = timed.elapsed().as_secs_f64();
        let partitioning = sut::partition(&net);
        let partitioned = timed.elapsed().as_secs_f64();
        let indexes = sut::build_indexes(&net, &partitioning);
        let indexed = timed.elapsed().as_secs_f64();
        // Reading the sizes is not part of setting up.
        let index_shape = sut::index_shape(&indexes);
        let timed = Instant::now();
        let cluster = sut::build_cluster(&net, &partitioning, indexes);
        let stages = [
            generated,
            partitioned - generated,
            indexed - partitioned,
            timed.elapsed().as_secs_f64(),
        ];
        System { net, partitioning, cluster, index_shape, stages }
    }

    pub fn setup_s(&self) -> f64 {
        self.stages.iter().sum()
    }
}

/// Exit non-zero when the inputs are not the ones the benchmark was
/// defined on: a library changed the dataset or a query stream.
fn check_pins(workload: Workload, seed: u64, dataset: u64, stream: u64) -> Result<(), String> {
    let pins = Pins::load();
    if pins.dataset() != Some(dataset) {
        return Err(format!("dataset fingerprint {} is not the pinned one", record::hex(dataset)));
    }
    if seed == 1 && pins.stream_seed_1(workload.name()) != Some(stream) {
        return Err(format!(
            "{} seed-1 stream fingerprint {} is not the pinned one",
            workload.name(),
            record::hex(stream)
        ));
    }
    Ok(())
}

fn run_workload(workload: Workload, opts: &Options) -> Result<Record, String> {
    let setups = if opts.quick || opts.traced { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut system = System::set_up();
    setup_s.push(system.setup_s());
    for _ in 1..setups {
        system.cluster.shutdown();
        system = System::set_up();
        setup_s.push(system.setup_s());
    }

    let catalog = sut::catalog(&system.net);
    let dataset_fingerprint = sut::dataset_fingerprint(&system.net);
    let stream_fingerprint = Stream::fingerprint(workload, &catalog, opts.seed);
    println!(
        "{}: dataset {} stream {} (seed {})",
        workload.name(),
        record::hex(dataset_fingerprint),
        record::hex(stream_fingerprint),
        opts.seed
    );
    check_pins(workload, opts.seed, dataset_fingerprint, stream_fingerprint)?;

    let mut gen = LoadGen::new(
        workload,
        &system.cluster,
        Stream::new(workload, &catalog, opts.seed),
        sut::Oracle::new(&system.net),
    );
    let mut arrivals = SplitMix64::fork(opts.seed, ARRIVALS_SALT);
    gen.correctness_pass(if opts.quick { 64 } else { 256 }, &mut arrivals);
    gen.warm_up(if opts.quick { 256 } else { 2000 });

    let metrics = if opts.traced {
        layers::measure(&system, &mut gen, &mut arrivals, opts)?
    } else {
        let mut metrics = vec![
            Metric::of_rounds("setup_s", "s", setup_s),
            Metric::new("index_bytes", "bytes", system.index_shape.0 as f64),
        ];
        metrics.extend(end_to_end(&mut gen, opts));
        // The complement of the failed share: a gated metric may never read 0.
        metrics.push(Metric::new("answered_share", "ratio", 1.0 - gen.tally.failed_share()));
        metrics
    };

    let tally = std::mem::take(&mut gen.tally);
    drop(gen);
    let record = Record {
        workload: workload.name().into(),
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        traced: opts.traced,
        dataset_fingerprint,
        stream_fingerprint,
        config: format!("{:?}", sut::cluster_config()),
        tally,
        metrics,
    };
    system.cluster.shutdown();
    Ok(record)
}

/// One loaded phase then one one-outstanding phase, repeated while other
/// processes disturb it and the run's allowance lasts.
pub fn round(gen: &mut LoadGen, seconds: f64, discarded: &mut u32) -> (Phase, Phase) {
    loop {
        let loaded = gen.closed_loop(gen.workload.loaded_requests(), seconds * LOADED_SHARE);
        let single = gen.closed_loop(1, seconds * (1.0 - LOADED_SHARE));
        if (loaded.disturbed() || single.disturbed()) && *discarded < MAX_DISCARDED_ROUNDS {
            *discarded += 1;
            continue;
        }
        return (loaded, single);
    }
}

/// Phase 4: five rounds, every timing metric the median of the five
/// per-round values (never pooled). The wire bytes are a count, not a time:
/// they are summed over the loaded phases, so that a seed's draw of answer
/// sizes is averaged over five times as many queries.
fn end_to_end(gen: &mut LoadGen, opts: &Options) -> Vec<Metric> {
    let rounds = if opts.quick { 1 } else { ROUNDS };
    let round_s = opts.seconds / ROUNDS as f64;
    let mut discarded = 0;
    let (mut qps, mut cpu, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    let (mut wire_bytes, mut wire_queries) = (0, 0);
    for _ in 0..rounds {
        let (loaded, single) = round(gen, round_s, &mut discarded);
        let queries = loaded.queries as f64;
        qps.push(queries / loaded.busy_s);
        cpu.push(loaded.cpu_s * 1e6 / queries);
        wire_bytes += loaded.counters.c2w_bytes + loaded.counters.w2c_bytes;
        wire_queries += loaded.queries;
        p50.push(percentile(&single.latencies_us, 0.5));
        p99.push(percentile(&single.latencies_us, 0.99));
    }
    if discarded > 0 {
        println!("{}: {discarded} disturbed round(s) repeated", gen.workload.name());
    }
    vec![
        Metric::of_rounds("throughput_qps", "queries/s", qps),
        Metric::of_rounds("cpu_us_per_query", "us", cpu),
        Metric::of_rounds("response_p50_us", "us", p50),
        Metric::of_rounds("response_p99_us", "us", p99),
        Metric::new("wire_bytes_per_query", "bytes", wire_bytes as f64 / wire_queries as f64),
    ]
}

fn write_record(record: &Record, out: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let kind = if record.traced { "layers" } else { "e2e" };
    let path = out.join(format!("{}.{kind}.json", record.workload));
    std::fs::write(&path, record.to_json().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The workload is `None` for `all`.
fn parse_args(args: &[String], contract: &Contract) -> Result<(Option<Workload>, Options), String> {
    let mut name = None;
    let mut opts = Options {
        seed: 1,
        seconds: contract.run_seconds,
        traced: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => name = Some(value(&mut i)?),
            "--seed" => opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            // Run length is the benchmark's, not the operator's: the default
            // is `run_seconds` of BENCHMARK.json. The flag exists because the
            // driver passes `--seconds <run_seconds>` on every run, and
            // `--compare` refuses two records of different lengths.
            "--seconds" => {
                opts.seconds = value(&mut i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace` alone is the flag; the driver passes `--trace 0|1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (opts.traced, i) = (false, i + 1),
                Some("1") => (opts.traced, i) = (true, i + 1),
                _ => opts.traced = true,
            },
            "--quick" => opts.quick = true,
            "--out" => opts.out = PathBuf::from(value(&mut i)?),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let workload = match name.ok_or("--workload is required")?.as_str() {
        "all" => None,
        name => Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?),
    };
    if opts.quick {
        opts.seconds = QUICK_SECONDS;
    }
    Ok((workload, opts))
}

/// `--workload all`: each workload in a process of its own, so that its
/// peak memory and the allocator's state are that workload's alone and do
/// not depend on which workloads ran before it.
fn run_each(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut args = args.to_vec();
    let name = args.iter().rposition(|a| a == "--workload").expect("parsed before") + 1;
    let mut all_correct = true;
    for workload in Workload::ALL {
        args[name] = workload.name().into();
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    let contract = Contract::load();
    match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => {
            return compare::compare(Path::new(&args[1]), Path::new(&args[2]), &contract)
        }
        Some("--table") if args.len() == 3 => {
            return compare::table(Path::new(&args[1]), Path::new(&args[2]), &contract)
                .map(|()| true)
        }
        _ => {}
    }
    let (workload, opts) = parse_args(args, &contract)?;
    let Some(workload) = workload else { return run_each(args) };
    let record = run_workload(workload, &opts)?;
    record.print_table();
    // A run prints exactly what BENCHMARK.json declares, name and unit.
    contract.check(opts.traced, &record.metrics)?;
    let path = write_record(&record, &opts.out)?;
    println!("record: {}", path.display());
    println!("{}", record.result_line());
    Ok(record.correct())
}

fn main() -> ExitCode {
    // Before any thread exists: the shipped defaults are what is measured.
    sut::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: wrong answers, errors or regressions; see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
