//! `disks-coordinator` — drive a Zipf SGKQ workload through the cluster,
//! either over real worker *processes* (TCP) or in-process, printing an
//! identical, digest-checked transcript in both modes.
//!
//! ```text
//! disks-coordinator --mode tcp   --worker PATH [--machines N] [--fragments K]
//!                   [--seed S] [--query-seed QS] [--queries Q] [--cache BYTES]
//! disks-coordinator --mode local [--machines N] ...
//! ```
//!
//! `--mode tcp` binds an ephemeral listener, spawns one `disks-worker`
//! process per machine via `Cluster::build_remote`, and runs the stream
//! over real sockets. `--mode local` runs the same stream on the in-process
//! channel cluster. The output format is shared line-for-line, so
//! `tests/multiprocess.rs` asserts the two transcripts are byte-identical.

use std::net::TcpListener;
use std::process::exit;

use disks::cluster::transport::TransportKind;
use disks::cluster::{Cluster, ClusterConfig, RemoteWorkerCommand};
use disks::core::{build_all_indexes, IndexConfig};
use disks::flags::{args_or_exit, value_or_exit};
use disks::workload;

const BINARY: &str = "disks-coordinator";

/// Every flag takes one value.
const FLAGS: &[&str] = &[
    "--mode",
    "--worker",
    "--machines",
    "--fragments",
    "--seed",
    "--query-seed",
    "--queries",
    "--cache",
];

fn main() {
    let args = args_or_exit(BINARY, FLAGS);
    let mode: String =
        value_or_exit(BINARY, &args, "--mode", "tcp or local").unwrap_or_else(|| "tcp".to_string());
    let machines: usize =
        value_or_exit(BINARY, &args, "--machines", "a machine count").unwrap_or(3);
    let fragments: usize =
        value_or_exit(BINARY, &args, "--fragments", "a fragment count").unwrap_or(machines);
    let seed: u64 = value_or_exit(BINARY, &args, "--seed", "an integer seed").unwrap_or(0xD15C);
    let query_seed: u64 =
        value_or_exit(BINARY, &args, "--query-seed", "an integer seed").unwrap_or(0x5EED);
    let queries: usize = value_or_exit(BINARY, &args, "--queries", "a query count").unwrap_or(200);
    let env = ClusterConfig::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let cache: usize =
        value_or_exit(BINARY, &args, "--cache", "a byte count").unwrap_or(env.coverage_cache_bytes);

    let net = workload::grid_net(seed);
    let p = workload::partition(&net, fragments);
    let config = ClusterConfig { machines: Some(machines), coverage_cache_bytes: cache, ..env };

    let cluster = match mode.as_str() {
        "tcp" => {
            let Some(worker) = value_or_exit::<String>(BINARY, &args, "--worker", "a path") else {
                eprintln!("--mode tcp requires --worker PATH");
                exit(2);
            };
            let listener = match TcpListener::bind("127.0.0.1:0") {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("bind: {e}");
                    exit(1);
                }
            };
            let addr = listener.local_addr().expect("listener addr").to_string();
            let commands = (0..machines)
                .map(|m| RemoteWorkerCommand {
                    program: worker.clone().into(),
                    args: [
                        "--connect",
                        &addr,
                        "--machine",
                        &m.to_string(),
                        "--machines",
                        &machines.to_string(),
                        "--fragments",
                        &fragments.to_string(),
                        "--seed",
                        &seed.to_string(),
                        "--cache",
                        &cache.to_string(),
                    ]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                })
                .collect();
            match Cluster::build_remote(
                &net,
                &p,
                &IndexConfig::unbounded(),
                config,
                listener,
                commands,
            ) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("build_remote: {e}");
                    exit(1);
                }
            }
        }
        "local" => {
            let indexes = build_all_indexes(&net, &p, &IndexConfig::unbounded());
            Cluster::build(
                &net,
                &p,
                indexes,
                ClusterConfig { transport: TransportKind::Channel, ..config },
            )
        }
        other => {
            eprintln!("unknown --mode '{other}' (tcp|local)");
            exit(2);
        }
    };

    let stream = workload::zipf_queries(&net, query_seed, queries);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, q) in stream.iter().enumerate() {
        match cluster.run_sgkq(q) {
            Ok(outcome) => {
                let h = workload::result_hash(&outcome.results);
                digest = digest.rotate_left(7) ^ h;
                println!("q{i} n={} h={h:016x}", outcome.results.len());
            }
            Err(e) => {
                eprintln!("query {i}: {e}");
                cluster.shutdown();
                exit(1);
            }
        }
    }
    println!("digest {digest:016x}");
    cluster.shutdown();
}
