//! The `serve_hot` workload: a deployed `hybrid(fig8,2,1)` classifier
//! behind one default-config `Server`, driven by a closed loop of 32
//! outstanding requests from one generator thread.

use crate::stats::Latencies;
use crate::stream::{point, RequestStream};
use ml::LogisticConfig;
use pvqnn::{fig8_ansatz, FeatureBackend, FeatureGenerator, PostVarClassifier, Strategy};
use serve::{spawn_worker, Rejected, ResponseHandle, Server, ServerConfig, ServerStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Requests in flight at any time.
pub const CLIENTS: usize = 32;

/// The served strategy: `hybrid(fig8, 2, 1)`, 129 shifts × 13
/// observables = 1677 features per row.
pub fn served_generator() -> FeatureGenerator {
    FeatureGenerator::new(
        Strategy::hybrid(fig8_ansatz(4), 2, 1),
        FeatureBackend::Exact,
    )
}

/// A trained, deployed and warmed server.
pub struct Deployed {
    pub seed: u64,
    pub model: PostVarClassifier,
    pub server: Arc<Server>,
    pub stream: RequestStream,
}

/// Dataset, catalogue, model fit, deploy and cache warm-up. Returns the
/// deployment and the wall seconds the model fit took.
pub fn set_up(seed: u64) -> (Deployed, f64) {
    let task = bench::binary_task(200, 50, seed);
    let stream = RequestStream::hot(seed);
    let t1 = Instant::now();
    let model = PostVarClassifier::fit(
        served_generator(),
        &task.train_x,
        &task.train_y,
        LogisticConfig::default(),
    );
    let train_s = t1.elapsed().as_secs_f64();
    let server = Arc::new(Server::new(ServerConfig::default()));
    server.deploy(model.clone());
    let warm = stream.points().min(server.config().cache_capacity as u64);
    let indices: Vec<u64> = (0..warm).collect();
    for chunk in indices.chunks(server.config().max_batch) {
        let handles: Vec<ResponseHandle> = chunk
            .iter()
            .map(|&i| server.submit(point(seed, i)).expect("warm-up admitted"))
            .collect();
        server.drain();
        for h in handles {
            h.wait().expect("warm-up served");
        }
    }
    let deployed = Deployed {
        seed,
        model,
        server,
        stream,
    };
    (deployed, train_s)
}

/// Wall-clock stamps of one request, in ns since the trace epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestSpan {
    pub point: u64,
    pub submit: (u64, u64),
    pub wait: (u64, u64),
}

/// One `Server::step` that dispatched `rows` requests.
#[derive(Clone, Copy, Debug)]
pub struct StepSpan {
    pub start: u64,
    pub end: u64,
    pub rows: u32,
}

/// Spans of one traced window. Requests are in submission order, which
/// with one tenant is also service order, so step `b` served requests
/// `sum(rows[..b]) .. sum(rows[..=b])`.
#[derive(Default)]
pub struct Trace {
    pub requests: Vec<RequestSpan>,
    pub steps: Vec<StepSpan>,
}

/// What one closed-loop window observed.
pub struct LoopOutcome {
    /// Responses completed before the window closed, and its length.
    pub in_window: u64,
    pub window_s: f64,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: BTreeMap<&'static str, u64>,
    /// Responses compared against standalone `predict`, and how many
    /// differed.
    pub checked: u64,
    pub mismatches: u64,
    /// Server counters at the start and end of the window.
    pub stats: (ServerStats, ServerStats),
}

impl LoopOutcome {
    /// Two windows as one: counts and window lengths add.
    pub fn merge(mut self, other: LoopOutcome) -> LoopOutcome {
        self.in_window += other.in_window;
        self.window_s += other.window_s;
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        for (k, v) in other.rejected {
            *self.rejected.entry(k).or_default() += v;
        }
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.stats.1 = other.stats.1;
        self
    }

    /// Responses completed per second over the whole window.
    pub fn rows_per_s(&self) -> f64 {
        self.in_window as f64 / self.window_s
    }
}

/// The metric name for a typed rejection.
pub fn reason(r: &Rejected) -> &'static str {
    match r {
        Rejected::QueueFull { .. } => "queue_full",
        Rejected::Overloaded { .. } => "overloaded",
        Rejected::TenantOverShare { .. } => "tenant_over_share",
        Rejected::Deferred { .. } => "deferred",
        Rejected::DeadlineExceeded { .. } => "deadline_exceeded",
        Rejected::InvalidInput { .. } | Rejected::InvalidValue { .. } => "invalid",
        Rejected::BackendUnavailable { .. } => "backend_unavailable",
        Rejected::NoActiveModel | Rejected::ShuttingDown => "lifecycle",
    }
}

/// Every rejection reason, as [`reason`] names them.
pub const REASONS: [&str; 8] = [
    "queue_full",
    "overloaded",
    "tenant_over_share",
    "deferred",
    "deadline_exceeded",
    "invalid",
    "backend_unavailable",
    "lifecycle",
];

/// The bits a lone `predict_proba` call returns for every catalogue
/// point, computed outside the timed window.
pub fn expected(d: &Deployed) -> Vec<u64> {
    (0..d.stream.points())
        .map(|i| d.model.predict_proba(&[point(d.seed, i)])[0].to_bits())
        .collect()
}

/// Wakes the benchmark-owned batcher when work arrives.
#[derive(Default)]
struct Doorbell {
    /// (successful submits so far, stop requested).
    state: Mutex<(u64, bool)>,
    rung: Condvar,
}

impl Doorbell {
    fn ring(&self, stop: bool) {
        let mut s = self.state.lock().expect("doorbell lock");
        if stop {
            s.1 = true;
        } else {
            s.0 += 1;
        }
        self.rung.notify_one();
    }
}

/// How the server is driven during a window.
pub enum Batcher<'a> {
    /// The library's own `spawn_worker` thread.
    Library,
    /// A benchmark-owned thread calling `Server::step`, optionally
    /// recording one span per step and per request into the trace.
    Owned(Option<(&'a mut Trace, Instant)>),
}

/// Runs the closed loop for `window` and drains it. Every response is
/// checked against `expected`; latencies of requests that end inside
/// the window go to `latencies`, if given.
pub fn run_window(
    d: &mut Deployed,
    window: Duration,
    expected: &[u64],
    batcher: Batcher<'_>,
    latencies: Option<&mut Latencies>,
) -> LoopOutcome {
    let server = Arc::clone(&d.server);
    let before = server.stats();
    let mut out = match batcher {
        Batcher::Library => {
            let worker = spawn_worker(Arc::clone(&server));
            let out = closed_loop(d, window, expected, latencies, None, None);
            server.stop();
            worker.join().expect("server worker panicked");
            out
        }
        Batcher::Owned(trace) => {
            let bell = Doorbell::default();
            let (mut trace, epoch) = match trace {
                Some((t, e)) => (Some(t), Some(e)),
                None => (None, None),
            };
            let mut steps = Vec::new();
            let out = std::thread::scope(|scope| {
                let batcher = scope.spawn(|| owned_batcher(&server, &bell, epoch, &mut steps));
                let out = closed_loop(
                    d,
                    window,
                    expected,
                    latencies,
                    Some(&bell),
                    trace.as_deref_mut().zip(epoch),
                );
                bell.ring(true);
                batcher.join().expect("batcher panicked");
                out
            });
            if let Some(t) = trace {
                t.steps = steps;
            }
            out
        }
    };
    out.stats = (before, server.stats());
    out
}

fn owned_batcher(
    server: &Server,
    bell: &Doorbell,
    epoch: Option<Instant>,
    steps: &mut Vec<StepSpan>,
) {
    let ns = |e: &Instant| e.elapsed().as_nanos() as u64;
    let mut served = 0u64;
    loop {
        let start = epoch.as_ref().map(ns);
        let rows = server.step();
        if rows > 0 {
            if let (Some(e), Some(start)) = (epoch.as_ref(), start) {
                steps.push(StepSpan {
                    start,
                    end: ns(e),
                    rows: rows as u32,
                });
            }
            served += rows as u64;
            continue;
        }
        let mut s = bell.state.lock().expect("doorbell lock");
        while s.0 <= served && !s.1 {
            s = bell.rung.wait(s).expect("doorbell lock");
        }
        if s.0 <= served && s.1 {
            return;
        }
    }
}

fn closed_loop(
    d: &mut Deployed,
    window: Duration,
    expected: &[u64],
    mut latencies: Option<&mut Latencies>,
    bell: Option<&Doorbell>,
    mut trace: Option<(&mut Trace, Instant)>,
) -> LoopOutcome {
    let ns = |e: &Instant| e.elapsed().as_nanos() as u64;
    let mut rejected: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut completed, mut failed, mut checked, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    let mut in_window = 0u64;
    // (handle, submit instant, point index, trace slot)
    let mut outstanding: VecDeque<(ResponseHandle, Instant, u64, usize)> =
        VecDeque::with_capacity(CLIENTS);
    let mut seq = 0u64;
    let deadline = Instant::now() + window;
    // Latency of a request that ends at `at`, if that is inside the
    // window; a failed request counts as `u64::MAX`, missing every limit.
    let mut record = |at: Instant, latency_ns: u64| {
        if at < deadline {
            if let Some(l) = latencies.as_deref_mut() {
                l.record(latency_ns);
            }
        }
    };
    loop {
        while outstanding.len() < CLIENTS && Instant::now() < deadline {
            let idx = d.stream.next_index();
            let x = point(d.seed, idx);
            let submitted = Instant::now();
            let t0 = trace.as_ref().map(|(_, e)| ns(e));
            let result = d.server.submit(x);
            match result {
                Ok(handle) => {
                    let slot = match (&mut trace, t0) {
                        (Some((t, e)), Some(t0)) => {
                            t.requests.push(RequestSpan {
                                point: idx,
                                submit: (t0, ns(e)),
                                wait: (0, 0),
                            });
                            t.requests.len() - 1
                        }
                        _ => 0,
                    };
                    if let Some(b) = bell {
                        b.ring(false);
                    }
                    outstanding.push_back((handle, submitted, idx, slot));
                }
                Err(r) => {
                    failed += 1;
                    record(Instant::now(), u64::MAX);
                    *rejected.entry(reason(&r)).or_default() += 1;
                }
            }
            seq += 1;
        }
        let Some((handle, submitted, idx, slot)) = outstanding.pop_front() else {
            break;
        };
        let w0 = trace.as_ref().map(|(_, e)| ns(e));
        let result = handle.wait();
        let done = Instant::now();
        if let (Some((t, e)), Some(w0)) = (&mut trace, w0) {
            t.requests[slot].wait = (w0, ns(e));
        }
        match result {
            Ok(resp) => {
                completed += 1;
                in_window += u64::from(done < deadline);
                record(done, done.duration_since(submitted).as_nanos() as u64);
                checked += 1;
                let bits = resp.prediction.as_f64().to_bits();
                mismatches += u64::from(expected[idx as usize] != bits);
            }
            Err(r) => {
                failed += 1;
                record(done, u64::MAX);
                *rejected.entry(reason(&r)).or_default() += 1;
            }
        }
    }
    let stats = d.server.stats();
    LoopOutcome {
        in_window,
        window_s: window.as_secs_f64(),
        attempted: seq,
        completed,
        failed,
        rejected,
        checked,
        mismatches,
        stats: (stats.clone(), stats),
    }
}

/// Requests a traced window served, grouped by the step that served
/// them: `(step, point indices)`.
pub fn batches(trace: &Trace) -> Vec<(StepSpan, Vec<u64>)> {
    let mut next = 0usize;
    trace
        .steps
        .iter()
        .map(|s| {
            let end = (next + s.rows as usize).min(trace.requests.len());
            let points = trace.requests[next..end].iter().map(|r| r.point).collect();
            next = end;
            (*s, points)
        })
        .collect()
}
