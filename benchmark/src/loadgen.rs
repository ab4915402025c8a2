//! The load generator: one calling thread (a `Cluster` is `!Sync`, so one
//! caller is the real client model) driving closed and open loops, and the
//! correctness gate that every phase feeds.

use std::time::{Duration, Instant};

use crate::host;
use crate::rng::SplitMix64;
use crate::sut::{self, Cluster, Counters, Oracle, Query};
use crate::workload::{Stream, Workload, LOADED_QUERIES};

/// In the timed phases every 256th query is kept for the oracle: a hot
/// query costs the oracle ten times what it costs the cluster, and the
/// run's time belongs to the measurement.
const ORACLE_STRIDE: u64 = 256;
/// Warm-up ends after this long even if its queries are not all done;
/// only the cold workload gets here, and its cache is full long before.
const WARM_UP_CAP_S: f64 = 1.5;
/// Most requests one open-loop submission carries.
const OPEN_LOOP_CAP: usize = 256;
/// Share of a core other processes may use before a round is repeated.
const INTERFERENCE_SHARE: f64 = 0.10;
/// Failures described in a record; the rest are only counted.
const KEPT_NOTES: usize = 8;

/// Attempted and failed operations over the whole run. A typed error, a
/// shed query, a degraded answer, an oracle mismatch and a digest that
/// differs between phases each count as one failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < KEPT_NOTES {
            self.notes.push(note());
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub queries: u64,
    /// Time spent inside the submissions: the loop has no think time.
    pub busy_s: f64,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// CPU other processes used while the phase ran.
    pub others_cpu_s: f64,
    /// One value per request, submission to return.
    pub latencies_us: Vec<f64>,
    pub counters: Counters,
    /// Σ worker-reported evaluation time over both machines.
    pub compute_us: f64,
    pub batch_shared: u64,
}

impl Phase {
    pub fn disturbed(&self) -> bool {
        self.others_cpu_s > INTERFERENCE_SHARE * self.elapsed_s
    }
}

/// What one open-loop phase measured. Latency runs from the time a request
/// was due, so the wait a stall imposes on later requests is counted.
#[derive(Debug, Default)]
pub struct OpenPhase {
    pub latencies_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    /// Result digests in query order, for the cross-phase check.
    pub digests: Vec<u64>,
}

impl OpenPhase {
    /// Median latency of the last quarter of arrivals over the first
    /// quarter's: near 1 when the backlog does not grow.
    pub fn backlog_growth(&self) -> f64 {
        let n = self.latencies_us.len();
        if n < 8 {
            return 1.0;
        }
        percentile(&self.latencies_us[n - n / 4..], 0.5)
            / percentile(&self.latencies_us[..n / 4], 0.5)
    }
}

/// Nearest-rank percentile; `values` need not be sorted.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub struct LoadGen<'a> {
    pub workload: Workload,
    pub cluster: &'a Cluster,
    pub stream: Stream<'a>,
    pub oracle: Oracle<'a>,
    pub tally: Tally,
    /// Queries submitted in timed phases, for the oracle stride.
    stride: u64,
    pending_oracle: Vec<(Query, u64)>,
}

impl<'a> LoadGen<'a> {
    pub fn new(
        workload: Workload,
        cluster: &'a Cluster,
        stream: Stream<'a>,
        oracle: Oracle<'a>,
    ) -> Self {
        LoadGen {
            workload,
            cluster,
            stream,
            oracle,
            tally: Tally::default(),
            stride: 0,
            pending_oracle: Vec::new(),
        }
    }

    /// Submit `queries` together and account for every outcome. Returns the
    /// time inside the program and the digest of each answer (0 on failure).
    fn submit(
        &mut self,
        queries: &[Query],
        phase: &mut Phase,
        mut digests: Option<&mut Vec<u64>>,
    ) -> Duration {
        let start = Instant::now();
        let outcomes = sut::submit(self.cluster, queries);
        let took = start.elapsed();
        for (q, outcome) in queries.iter().zip(outcomes) {
            self.tally.attempted += 1;
            let mut digest = 0;
            match outcome {
                Ok(o) if o.stats.degraded_fragments.is_empty() => {
                    for m in &o.stats.per_machine {
                        phase.compute_us += m.compute.as_secs_f64() * 1e6;
                        phase.batch_shared += m.batch_shared;
                    }
                    if digests.is_some() {
                        digest = sut::digest(&o.results);
                    } else if self.stride.is_multiple_of(ORACLE_STRIDE) {
                        self.pending_oracle.push((q.clone(), sut::digest(&o.results)));
                    }
                }
                Ok(o) => {
                    self.tally.fail(|| format!("{q}: degraded {:?}", o.stats.degraded_fragments))
                }
                Err(e) => self.tally.fail(|| format!("{q}: {e}")),
            }
            self.stride += 1;
            if let Some(d) = digests.as_deref_mut() {
                d.push(digest);
            }
        }
        phase.queries += queries.len() as u64;
        took
    }

    /// Compare the answers kept by the timed phases with the oracle. Runs
    /// between phases, so the oracle's time is never measured.
    pub fn settle_oracle(&mut self) {
        for (q, digest) in std::mem::take(&mut self.pending_oracle) {
            self.check_oracle(&q, digest, "timed phase");
        }
    }

    fn check_oracle(&mut self, q: &Query, digest: u64, whence: &str) {
        match self.oracle.answer(q) {
            Ok((nodes, _)) if sut::digest(&nodes) == digest => {}
            Ok((nodes, _)) => self.tally.fail(|| {
                format!("{q}: {whence} answer differs from the oracle's {} nodes", nodes.len())
            }),
            Err(e) => self.tally.fail(|| format!("{q}: oracle error {e}")),
        }
    }

    /// Closed loop: `outstanding` requests are submitted together and the
    /// next submission waits for all of them.
    pub fn closed_loop(&mut self, outstanding: usize, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let before = Counters::read(self.cluster);
        let (cpu0, host0) = (host::process_cpu_seconds(), host::host_cpu_seconds());
        let start = Instant::now();
        loop {
            let batch: Vec<Query> =
                (0..outstanding).flat_map(|_| self.stream.next_request()).collect();
            let took = self.submit(&batch, &mut phase, None);
            phase.busy_s += took.as_secs_f64();
            phase.latencies_us.push(took.as_secs_f64() * 1e6);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.cpu_s = host::process_cpu_seconds() - cpu0;
        phase.others_cpu_s = (host::host_cpu_seconds() - host0 - phase.cpu_s).max(0.0);
        phase.counters = Counters::read(self.cluster).since(&before);
        self.settle_oracle();
        phase
    }

    /// Warm the caches with `queries` queries under load, unmeasured.
    pub fn warm_up(&mut self, queries: usize) {
        let per_call = self.workload.loaded_requests();
        let mut phase = Phase::default();
        let start = Instant::now();
        while (phase.queries as usize) < queries && start.elapsed().as_secs_f64() < WARM_UP_CAP_S {
            let batch: Vec<Query> =
                (0..per_call).flat_map(|_| self.stream.next_request()).collect();
            self.submit(&batch, &mut phase, None);
        }
        self.settle_oracle();
    }

    /// Open loop over `requests` at a fixed Poisson rate: arrivals are drawn
    /// up front from `arrivals`, everything due is submitted in one call.
    pub fn open_loop(
        &mut self,
        requests: Vec<Vec<Query>>,
        rate: f64,
        arrivals: &mut SplitMix64,
        keep_digests: bool,
    ) -> OpenPhase {
        let mut due = Vec::with_capacity(requests.len());
        let mut t = 0.0;
        for _ in &requests {
            t += arrivals.exponential(rate);
            due.push(t);
        }
        let mut out = OpenPhase::default();
        let mut phase = Phase::default();
        let mut requests = requests.into_iter();
        let mut next = 0;
        let start = Instant::now();
        while next < due.len() {
            let now = start.elapsed().as_secs_f64();
            if due[next] > now {
                std::thread::sleep(Duration::from_secs_f64(due[next] - now));
                continue;
            }
            let ready = due[next..].iter().take(OPEN_LOOP_CAP).take_while(|&&d| d <= now).count();
            let batch: Vec<Query> = requests.by_ref().take(ready).flatten().collect();
            let submitted = start.elapsed().as_secs_f64();
            self.submit(&batch, &mut phase, keep_digests.then_some(&mut out.digests));
            let done = start.elapsed().as_secs_f64();
            for &d in &due[next..next + ready] {
                out.latencies_us.push((done - d) * 1e6);
                out.lateness_us.push((submitted - d) * 1e6);
            }
            next += ready;
        }
        self.settle_oracle();
        out
    }

    /// The correctness pass: the same requests through the loaded closed
    /// loop, the one-outstanding closed loop and the open loop must give the
    /// oracle's answer every time.
    pub fn correctness_pass(&mut self, requests: usize, arrivals: &mut SplitMix64) {
        let set = self.stream.take(requests);
        let flat: Vec<Query> = set.iter().flatten().cloned().collect();
        let mut phase = Phase::default();

        let mut loaded = Vec::with_capacity(flat.len());
        for chunk in flat.chunks(LOADED_QUERIES) {
            self.submit(chunk, &mut phase, Some(&mut loaded));
        }
        let mut single = Vec::with_capacity(flat.len());
        for request in flat.chunks(self.workload.queries_per_request()) {
            self.submit(request, &mut phase, Some(&mut single));
        }
        let open = self.open_loop(set, self.workload.open_rates().1, arrivals, true).digests;

        for (i, q) in flat.iter().enumerate() {
            self.tally.attempted += 1;
            if loaded[i] != single[i] || loaded[i] != open[i] {
                self.tally.fail(|| format!("{q}: answer changed between phases"));
            }
            self.check_oracle(q, loaded[i], "correctness pass");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn backlog_growth_compares_last_quarter_with_first() {
        let phase = OpenPhase {
            latencies_us: (0..100).map(|i| if i < 50 { 100.0 } else { 300.0 }).collect(),
            ..OpenPhase::default()
        };
        assert_eq!(phase.backlog_growth(), 3.0);
    }
}
