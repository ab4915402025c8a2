//! `disks-worker` — one share-nothing worker machine as an OS process.
//!
//! ```text
//! disks-worker --connect 127.0.0.1:PORT --machine M --machines N \
//!              --fragments K --seed S [--cache BYTES]
//! ```
//!
//! The worker rebuilds its machine's fragment engines deterministically
//! from the shared workload seeds (the process analogue of the in-process
//! respawn path's engine rebuild), dials the coordinator with seeded-jitter
//! retries, identifies itself with a hello frame, and then runs the *same*
//! transport-agnostic `worker_loop` the in-process cluster uses — the
//! socket pumps of `tcp_worker_endpoint` are the only difference.

use std::net::TcpStream;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

use disks::cluster::framing::write_hello;
use disks::cluster::worker::worker_loop;
use disks::cluster::{tcp_worker_endpoint, ClusterConfig, LinkCounters, LinkSender, WorkerFaults};
use disks::flags::{args_or_exit, value_or_exit};
use disks::workload;

const BINARY: &str = "disks-worker";

/// Every flag takes one value.
const FLAGS: &[&str] =
    &["--connect", "--machine", "--machines", "--fragments", "--seed", "--cache"];

fn main() {
    let args = args_or_exit(BINARY, FLAGS);
    let Some(addr) = value_or_exit::<String>(BINARY, &args, "--connect", "an address") else {
        eprintln!("usage: disks-worker --connect ADDR --machine M --machines N --fragments K --seed S [--cache BYTES]");
        exit(2);
    };
    let machine: usize = value_or_exit(BINARY, &args, "--machine", "a machine index").unwrap_or(0);
    let machines: usize =
        value_or_exit(BINARY, &args, "--machines", "a machine count").unwrap_or(1);
    let fragments: usize =
        value_or_exit(BINARY, &args, "--fragments", "a fragment count").unwrap_or(machines);
    let seed: u64 = value_or_exit(BINARY, &args, "--seed", "an integer seed").unwrap_or(0xD15C);
    // The same DISKS_* environment defaulting the in-process workers use
    // (the coordinator's env propagates to spawned worker processes).
    let env = ClusterConfig::from_env().unwrap_or_else(|e| {
        eprintln!("disks-worker {machine}: {e}");
        exit(2);
    });
    let cache: usize =
        value_or_exit(BINARY, &args, "--cache", "a byte count").unwrap_or(env.coverage_cache_bytes);

    let net = workload::grid_net(seed);
    let p = workload::partition(&net, fragments);
    let engines = workload::machine_engines(&net, &p, machines, machine);

    // Dial with bounded retries: the coordinator binds before spawning us,
    // but a busy host may still delay the accept loop.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                eprintln!("disks-worker {machine}: connect {addr}: {e}");
                exit(1);
            }
        }
    };
    if let Err(e) = write_hello(&mut stream, machine as u32) {
        eprintln!("disks-worker {machine}: hello: {e}");
        exit(1);
    }
    let endpoint = match tcp_worker_endpoint(stream, machine, env.heartbeat, None) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("disks-worker {machine}: endpoint: {e}");
            exit(1);
        }
    };
    let responses = LinkSender::over(endpoint.egress, Arc::new(LinkCounters::default()));
    worker_loop(engines, endpoint.requests, responses, WorkerFaults::default(), cache);
}
