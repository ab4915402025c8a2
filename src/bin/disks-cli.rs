//! `disks-cli` — operate the DISKS pipeline from the command line.
//!
//! ```text
//! disks-cli generate  --preset aus|bri|small --seed N --out net.bin [--text]
//! disks-cli stats     --net net.bin
//! disks-cli partition --net net.bin -k 8 [--method multilevel|grid|bfs] --out part.txt
//! disks-cli index     --net net.bin --part part.txt [--max-r-factor 40] --out-dir idx/
//! disks-cli query     --net net.bin --part part.txt --index-dir idx/ \
//!                     --keywords kw00001,kw00002 -r 5000
//! disks-cli topk      --net net.bin --part part.txt --index-dir idx/ \
//!                     --keywords kw00001,kw00002 -k 10 --horizon 5000
//! ```
//!
//! The partition file is `k` on the first line followed by one fragment id
//! per node. Index files are the binary NPD format (`fragN.npd`).

use std::path::{Path, PathBuf};
use std::process::exit;

use disks::cluster::{Cluster, ClusterConfig};
use disks::core::index::{load_index, save_index};
use disks::core::{
    build_all_indexes, centralized_topk, CentralizedCoverage, IndexConfig, NpdIndex, ScoreCombine,
    SgkQuery, TopKQuery,
};
use disks::partition::{
    BfsPartitioner, GridPartitioner, MultilevelPartitioner, PartitionMetrics, Partitioner,
    Partitioning,
};
use disks::roadnet::generator::GridNetworkConfig;
use disks::roadnet::{io, KeywordId, RoadNetwork};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let opts = Opts::parse(&args[1..]);
    let outcome = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "stats" => cmd_stats(&opts),
        "partition" => cmd_partition(&opts),
        "index" => cmd_index(&opts),
        "query" => cmd_query(&opts),
        "topk" => cmd_topk(&opts),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    if let Err(msg) = outcome {
        eprintln!("error: {msg}");
        exit(1);
    }
}

/// The cluster configuration the `DISKS_*` environment asks for; a value a
/// variable does not accept ends the process with exit code 2.
fn cluster_config() -> ClusterConfig {
    ClusterConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    })
}

fn usage() {
    eprintln!(
        "disks-cli <generate|stats|partition|index|query|topk> [options]\n\
         see the module docs (src/bin/disks-cli.rs) for option details"
    );
}

/// Tiny flag parser: `--name value` pairs plus `-k`/`-r` shorthands.
struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a.starts_with('-') {
                if i + 1 < args.len() && !args[i + 1].starts_with('-') {
                    pairs.push((a.trim_start_matches('-').to_string(), args[i + 1].clone()));
                    i += 2;
                    continue;
                }
                flags.push(a.trim_start_matches('-').to_string());
            }
            i += 1;
        }
        Opts { pairs, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required option --{name}"))
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn load_net(opts: &Opts) -> Result<RoadNetwork, String> {
    let path = opts.require("net")?;
    let net = if path.ends_with(".txt") {
        let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        io::read_text(f).map_err(|e| format!("parse {path}: {e}"))?
    } else {
        io::load_binary(path).map_err(|e| format!("load {path}: {e}"))?
    };
    Ok(net)
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let preset = opts.get("preset").unwrap_or("small");
    let seed: u64 = opts.get_parse("seed", 1)?;
    let out = opts.require("out")?;
    let cfg = match preset {
        "aus" => GridNetworkConfig::aus_like(seed),
        "bri" => GridNetworkConfig::bri_like(seed),
        "small" => GridNetworkConfig::small(seed),
        other => return Err(format!("unknown preset '{other}' (aus|bri|small)")),
    };
    let net = cfg.generate();
    if opts.has_flag("text") || out.ends_with(".txt") {
        let f = std::fs::File::create(out).map_err(|e| e.to_string())?;
        io::write_text(&net, f).map_err(|e| e.to_string())?;
    } else {
        io::save_binary(&net, out).map_err(|e| e.to_string())?;
    }
    println!(
        "generated {preset} (seed {seed}): {} nodes, {} edges → {out}",
        net.num_nodes(),
        net.num_edges()
    );
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let net = load_net(opts)?;
    let s = net.stats();
    println!(
        "nodes {}  objects {}  edges {}  keywords {}  avg-edge {}  connected {}",
        s.nodes,
        s.objects,
        s.edges,
        s.keywords,
        s.avg_edge_weight,
        net.is_connected()
    );
    Ok(())
}

fn write_partition(path: &str, p: &Partitioning) -> Result<(), String> {
    let mut out = String::with_capacity(p.assignment().len() * 2 + 16);
    out.push_str(&format!("{}\n", p.num_fragments()));
    for &a in p.assignment() {
        out.push_str(&format!("{a}\n"));
    }
    std::fs::write(path, out).map_err(|e| e.to_string())
}

fn read_partition(path: &str, net: &RoadNetwork) -> Result<Partitioning, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let k: usize = lines
        .next()
        .ok_or("empty partition file")?
        .trim()
        .parse()
        .map_err(|_| "bad fragment count")?;
    let assignment: Result<Vec<u32>, String> =
        lines.map(|l| l.trim().parse().map_err(|_| format!("bad fragment id '{l}'"))).collect();
    let assignment = assignment?;
    if assignment.len() != net.num_nodes() {
        return Err(format!(
            "partition covers {} nodes but network has {}",
            assignment.len(),
            net.num_nodes()
        ));
    }
    Ok(Partitioning::from_assignment(net, assignment, k))
}

fn cmd_partition(opts: &Opts) -> Result<(), String> {
    let net = load_net(opts)?;
    let k: usize = opts.get_parse("k", 4)?;
    let out = opts.require("out")?;
    let method = opts.get("method").unwrap_or("multilevel");
    let p = match method {
        "multilevel" => MultilevelPartitioner::default().partition(&net, k),
        "grid" => GridPartitioner.partition(&net, k),
        "bfs" => BfsPartitioner::default().partition(&net, k),
        other => return Err(format!("unknown method '{other}' (multilevel|grid|bfs)")),
    };
    write_partition(out, &p)?;
    println!("{} → {out}", PartitionMetrics::compute(&net, &p));
    Ok(())
}

fn cmd_index(opts: &Opts) -> Result<(), String> {
    let net = load_net(opts)?;
    let p = read_partition(opts.require("part")?, &net)?;
    let factor: u64 = opts.get_parse("max-r-factor", 40)?;
    let out_dir = PathBuf::from(opts.require("out-dir")?);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let cfg = if factor == 0 {
        IndexConfig::unbounded()
    } else {
        IndexConfig::with_max_r(factor * net.avg_edge_weight())
    };
    let t0 = std::time::Instant::now();
    let indexes = build_all_indexes(&net, &p, &cfg);
    for idx in &indexes {
        let path = out_dir.join(format!("frag{}.npd", idx.fragment().0));
        save_index(idx, &path).map_err(|e| e.to_string())?;
        println!("  {}", idx.stats());
    }
    println!(
        "indexed {} fragments (maxR factor {factor}, 0 = unbounded) in {:?} → {}",
        indexes.len(),
        t0.elapsed(),
        out_dir.display()
    );
    Ok(())
}

fn load_indexes(dir: &Path, p: &Partitioning) -> Result<Vec<NpdIndex>, String> {
    p.fragment_ids()
        .map(|f| {
            let path = dir.join(format!("frag{}.npd", f.0));
            load_index(&path, f).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

fn parse_keywords(net: &RoadNetwork, spec: &str) -> Result<Vec<KeywordId>, String> {
    spec.split(',')
        .map(|w| {
            let w = w.trim();
            net.vocab().get(w).ok_or_else(|| format!("unknown keyword '{w}'"))
        })
        .collect()
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let net = load_net(opts)?;
    let p = read_partition(opts.require("part")?, &net)?;
    let indexes = load_indexes(Path::new(opts.require("index-dir")?), &p)?;
    let keywords = parse_keywords(&net, opts.require("keywords")?)?;
    let r: u64 = opts.get_parse("r", 10 * net.avg_edge_weight())?;
    let cluster = Cluster::build(&net, &p, indexes, cluster_config());
    let q = SgkQuery::new(keywords, r);
    let outcome = cluster.run_sgkq(&q).map_err(|e| e.to_string())?;
    println!(
        "{} results in {:?} (slowest task {:?}, modeled response {:?}, U {:.2}, \
         inter-worker bytes {})",
        outcome.results.len(),
        outcome.stats.wall_time,
        outcome.stats.slowest_task,
        outcome.stats.modeled_response_time,
        outcome.stats.unbalance_factor,
        outcome.stats.inter_worker_bytes
    );
    if opts.has_flag("verify") {
        let mut central = CentralizedCoverage::new(&net);
        let expect = central.sgkq(&q).map_err(|e| e.to_string())?;
        if outcome.results == expect {
            println!("verify: OK (matches centralized evaluation)");
        } else {
            return Err("verify FAILED: distributed != centralized".into());
        }
    }
    if opts.has_flag("print") {
        for n in &outcome.results {
            println!("{n}");
        }
    }
    cluster.shutdown();
    Ok(())
}

fn cmd_topk(opts: &Opts) -> Result<(), String> {
    let net = load_net(opts)?;
    let p = read_partition(opts.require("part")?, &net)?;
    let indexes = load_indexes(Path::new(opts.require("index-dir")?), &p)?;
    let keywords = parse_keywords(&net, opts.require("keywords")?)?;
    let k: usize = opts.get_parse("k", 10)?;
    let horizon: u64 = opts.get_parse("horizon", 10 * net.avg_edge_weight())?;
    let combine = match opts.get("combine").unwrap_or("max") {
        "max" => ScoreCombine::Max,
        "sum" => ScoreCombine::Sum,
        other => return Err(format!("unknown combine '{other}' (max|sum)")),
    };
    let cluster = Cluster::build(&net, &p, indexes, cluster_config());
    let q = TopKQuery::new(keywords, k, horizon, combine);
    let (ranked, stats) = cluster.run_topk(&q).map_err(|e| e.to_string())?;
    for (i, &(score, node)) in ranked.iter().enumerate() {
        println!("{:>3}. {node}  score {score}", i + 1);
    }
    println!(
        "({} results in {:?}, inter-worker bytes {})",
        ranked.len(),
        stats.wall_time,
        stats.inter_worker_bytes
    );
    if opts.has_flag("verify") {
        let expect = centralized_topk(&net, &q).map_err(|e| e.to_string())?;
        if ranked == expect {
            println!("verify: OK");
        } else {
            return Err("verify FAILED: distributed != centralized".into());
        }
    }
    cluster.shutdown();
    Ok(())
}
