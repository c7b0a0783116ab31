//! Closed-loop clients and what they record.
//!
//! Each client sends its next request only after the previous reply
//! arrived. Request `i` of a run is a pure function of the seed and `i`;
//! clients take the next `i` from a shared counter, so the same requests
//! run whatever the number of clients, only their interleaving differs.

use crate::check::Checksum;
use crate::span::Tracer;
use crate::stats::{mean, quantile, ratio};
use dc_service::{QueryRequest, QueryService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a measured phase lasts: wall-clock (benchmark runs) or a fixed
/// number of operations per client role (the seed self-test, whose counts
/// must repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Seconds(f64),
    Ops(u64),
}

/// Which phases of a run are traced. The end-to-end run is one untraced
/// phase; the traced run is four quarters, untraced–traced–traced–untraced,
/// so that drift over the run (warming caches, a growing table) cancels out
/// of the tracing overhead.
pub fn phases(trace: bool) -> &'static [bool] {
    if trace {
        &[false, true, true, false]
    } else {
        &[false]
    }
}

impl Budget {
    /// The budget of each of `n` phases sharing this one. A count budget
    /// stays per phase, so counts do not depend on the phase plan.
    pub fn split(self, n: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / n as f64),
            ops => ops,
        }
    }

    pub fn start(self) -> Phase {
        match self {
            Budget::Seconds(s) => Phase {
                deadline: Some(Instant::now() + Duration::from_secs_f64(s)),
                max_ops: None,
            },
            Budget::Ops(n) => Phase {
                deadline: None,
                max_ops: Some(n),
            },
        }
    }
}

/// A running phase: stops at its deadline or after `max_ops` operations.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    deadline: Option<Instant>,
    max_ops: Option<u64>,
}

impl Phase {
    /// May operation number `done` (counted from 0 within the phase) start?
    pub fn admits(&self, done: u64) -> bool {
        self.deadline.is_none_or(|d| Instant::now() < d) && self.max_ops.is_none_or(|m| done < m)
    }
}

/// One reply as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position of the request in the run's request sequence.
    pub index: u64,
    /// Which distinct query it was (for reference answers).
    pub query: usize,
    pub latency: Duration,
    /// When the reply arrived.
    pub finished: Instant,
    /// `None` when the service returned an error.
    pub checksum: Option<Checksum>,
    pub queue_wait: Duration,
    pub exec: Duration,
    pub coalesced: bool,
    pub epoch: u64,
}

/// The requests of a run: request `i` is query `pick(i)`, whose text and
/// application `request(q)` gives.
pub trait Requests: Sync {
    fn pick(&self, index: u64) -> usize;
    fn request(&self, query: usize) -> QueryRequest;
}

/// The replies of one phase, in request order.
#[derive(Debug, Clone)]
pub struct Run {
    pub samples: Vec<Sample>,
    pub started: Instant,
    pub elapsed: Duration,
}

impl Run {
    /// The phases in `runs` taken together, their durations summed.
    pub fn merge(runs: Vec<Run>) -> Option<Run> {
        let started = runs.first()?.started;
        let elapsed = runs.iter().map(|r| r.elapsed).sum();
        let samples = runs.into_iter().flat_map(|r| r.samples).collect();
        Some(Run {
            samples,
            started,
            elapsed,
        })
    }

    pub fn latency(&self) -> Latency {
        let v: Vec<Duration> = self.samples.iter().map(|s| s.latency).collect();
        Latency::of(&v, self.elapsed)
    }

    /// Keep only the requests of whole cycles of `cycle` requests (request
    /// indices counted from 0), and end the phase at the last of their
    /// replies, so that every cycle-structured mix is weighed the same.
    /// A phase shorter than one cycle is kept whole.
    pub fn whole_cycles(mut self, cycle: usize) -> Run {
        let keep = self.samples.len() / cycle * cycle;
        if keep == 0 {
            return self;
        }
        self.samples.truncate(keep);
        if let Some(last) = self.samples.iter().map(|s| s.finished).max() {
            self.elapsed = last - self.started;
        }
        self
    }
}

/// Run `clients` closed-loop clients against `svc` for one phase, taking
/// request indices from `next`. With tracing on, each request is a
/// `service.execute` span with `service.queue_wait` and `service.exec`
/// children placed from the reply's `ServiceStats`.
pub fn run_clients(
    svc: &QueryService,
    requests: &dyn Requests,
    clients: usize,
    budget: Budget,
    next: &AtomicU64,
    tracer: &Tracer,
) -> Run {
    let first = next.load(Ordering::SeqCst);
    let phase = budget.start();
    let started = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if !phase.admits(index - first) {
                            break;
                        }
                        out.push(one_request(svc, requests, index, tracer));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    samples.sort_by_key(|s| s.index);
    // Indices handed out but not run (clients that found the phase over)
    // are skipped; the next phase continues after them.
    Run {
        samples,
        started,
        elapsed,
    }
}

pub fn one_request(
    svc: &QueryService,
    requests: &dyn Requests,
    index: u64,
    tracer: &Tracer,
) -> Sample {
    let query = requests.pick(index);
    let req = requests.request(query);
    let id = tracer.open();
    let start = Instant::now();
    let reply = svc.execute(req);
    let end = Instant::now();
    let latency = end - start;
    let request_id = index + 1;
    match reply {
        Ok(resp) => {
            let st = &resp.service;
            if tracer.enabled() {
                let queued = start + st.queue_wait;
                tracer.record(id, request_id, "service.queue_wait", start, queued);
                tracer.record(
                    id,
                    request_id,
                    "service.exec",
                    queued,
                    queued + st.exec_time,
                );
                tracer.close(id, 0, request_id, "service.execute", start, end);
            }
            Sample {
                index,
                query,
                latency,
                finished: end,
                checksum: Some(Checksum::of_batch(&resp.batch)),
                queue_wait: st.queue_wait,
                exec: st.exec_time,
                coalesced: st.coalesced,
                epoch: st.snapshot_epoch,
            }
        }
        Err(_) => {
            tracer.close(id, 0, request_id, "service.execute", start, end);
            Sample {
                index,
                query,
                latency,
                finished: end,
                checksum: None,
                queue_wait: Duration::ZERO,
                exec: Duration::ZERO,
                coalesced: false,
                epoch: 0,
            }
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency summary of a set of operations, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub count: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub mean_ms: f64,
    pub per_s: f64,
}

impl Latency {
    pub fn of(latencies: &[Duration], elapsed: Duration) -> Self {
        let v: Vec<f64> = latencies.iter().map(|&d| ms(d)).collect();
        Latency {
            count: v.len(),
            p50_ms: quantile(&v, 0.5),
            p90_ms: quantile(&v, 0.9),
            mean_ms: mean(&v),
            per_s: ratio(v.len() as f64, elapsed.as_secs_f64()),
        }
    }
}
