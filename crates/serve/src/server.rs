//! The micro-batching inference server.
//!
//! A synchronous core driven by threads: clients [`Server::submit`]
//! single data points and block (or poll) on a one-shot reply slot;
//! whoever drives the server — a dedicated worker thread
//! ([`spawn_worker`]), a deterministic test harness, or a load
//! generator — repeatedly calls [`Server::step`], which forms and
//! serves one micro-batch of up to `max_batch` requests:
//!
//! ```text
//! submit ──► fair admission ──► per-tenant EDF queues ──► batcher ──► feature cache
//!              │ shed                 │                      │         hit │   │ miss
//!              ▼              weighted round robin           │             │   ▼
//!           Rejected           across tenants,               │             │ engine (executor
//!                              earliest deadline             │             │   or QPU pool)
//!                              first within each             ▼             ▼   │
//!                                      head reads each row in place ◄──────────┘
//!                                                            │
//!                                     responses + per-tenant latency histograms
//! ```
//!
//! The hit path costs one dot product per request: the head reads a
//! cached row where it lies, under the cache lock, and a computed miss
//! row is read once and then moved into the cache — no row is copied.
//! Each answer lands in the request's reply slot; a thread is woken only
//! when it sleeps — the batcher when it is parked on an empty queue, a
//! client when it is blocked in [`ResponseHandle::wait`].
//!
//! Requests carry a [`TenantId`]; admission is weighted-fair across
//! tenants (see [`crate::admission`]) and batch slots are handed out by
//! weighted round-robin over the per-tenant sub-queues, each of which
//! is ordered earliest-deadline-first — so neither queue *entry* nor
//! queue *position* lets one flooding tenant starve the others, and a
//! tight-deadline request admitted behind a burst is pulled into the
//! next batch instead of waiting out the backlog.
//!
//! The contract that makes this safe to batch and cache aggressively:
//! **batching is invisible in the outputs**. Feature rows are
//! standalone-seeded ([`pvqnn::FeatureGenerator::generate_rows_standalone`]),
//! so a prediction is bit-for-bit what a lone `predict` call on the same
//! model would return, for any batch composition, tenant mix, cache
//! state, or thread count. Only *when* a response arrives depends on
//! load — and that is stamped on the deterministic [`SimClock`].
//!
//! ```
//! use pvqnn::features::FeatureBackend;
//! use pvqnn::model::RegressorMode;
//! use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};
//! use serve::{Server, ServerConfig};
//!
//! let data: Vec<Vec<f64>> = (0..8)
//!     .map(|i| (0..16).map(|j| 0.3 + 0.1 * ((i + j) % 5) as f64).collect())
//!     .collect();
//! let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
//! let generator = FeatureGenerator::new(
//!     Strategy::observable_construction(4, 1),
//!     FeatureBackend::Exact,
//! );
//! let model = PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6));
//!
//! let server = Server::new(ServerConfig::default());
//! server.deploy(model.clone());
//! // Submit, drive one batch, and the prediction is bit-for-bit what a
//! // lone `predict` call returns — batching is invisible in outputs.
//! let handle = server.submit(data[5].clone()).unwrap();
//! assert_eq!(server.step(), 1);
//! let response = handle.wait().unwrap();
//! assert_eq!(response.prediction.as_f64(), model.predict(&data[5..6])[0]);
//! assert!(response.latency_ns > 0, "latency measured on the sim clock");
//! ```

use crate::admission::{AdmissionController, BrownoutLevel, Rejected, TenantId};
use crate::cache::FeatureCache;
use crate::clock::{batch_cost_ns, SimClock};
use crate::engine::FeatureEngine;
use crate::model::{Prediction, ServedModel};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::stats::{LatencyHistogram, ServerStats, TenantSnapshot};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Largest accepted input-coordinate magnitude. Encoding angles are
/// 2π-periodic, so legitimate inputs are tiny; the bound's real job is
/// keeping every admitted coordinate far inside the range where the
/// cache's key quantization (`round(v · quant_scale) as i64`) is exact —
/// the saturating cast would alias everything beyond ±2^63/scale onto
/// one key (as NaN aliases onto 0), poisoning entries for legitimate
/// inputs.
pub const MAX_COORDINATE: f64 = 1e6;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum rows per micro-batch.
    pub max_batch: usize,
    /// Hard queue bound ([`Rejected::QueueFull`] above it).
    pub queue_capacity: usize,
    /// Brownout trip point with hysteresis (the ladder's first rung,
    /// [`Rejected::TenantOverShare`]); set `≥ queue_capacity` to
    /// disable brownout shedding entirely.
    pub high_water: usize,
    /// Feature-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cache-key quantization: buckets per unit of input angle.
    pub quant_scale: f64,
    /// Default per-request deadline budget in simulated ns (0 = none).
    pub default_deadline_ns: u64,
    /// Degradation ladder: when the pool engine fails a miss batch
    /// terminally, recompute the rows on the in-process local engine
    /// (`true`, the default — rows are bit-for-bit what
    /// [`FeatureEngine::Local`] would have served) instead of shedding
    /// the affected requests with [`Rejected::BackendUnavailable`]
    /// (`false`). Cache hits are served either way.
    pub degraded_local_fallback: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 16,
            queue_capacity: 256,
            high_water: 192,
            cache_capacity: 1024,
            quant_scale: 1e8,
            default_deadline_ns: 50_000_000, // 50 simulated ms
            degraded_local_fallback: true,
        }
    }
}

/// A served prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Server-assigned request id.
    pub id: u64,
    /// The tenant the request was submitted for.
    pub tenant: TenantId,
    /// The model output.
    pub prediction: Prediction,
    /// Which model version served it.
    pub model: ModelVersion,
    /// Queue-to-response latency in simulated ns.
    pub latency_ns: u64,
    /// Whether the feature row came from the cache.
    pub cache_hit: bool,
}

/// What a request ultimately resolves to.
pub type ServeResult = Result<Response, Rejected>;

/// One request's reply, shared by its [`ResponseHandle`] and its queue
/// entry's [`Responder`].
#[derive(Debug, Default)]
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    /// The answer, from the moment the responder gives it until the
    /// client takes it.
    result: Option<ServeResult>,
    /// The client has taken `result`; the slot has nothing more to give.
    taken: bool,
    /// The client is blocked in [`ResponseHandle::wait`] — the only time
    /// an answer needs a notify.
    waiting: bool,
}

impl ReplySlot {
    /// Locks the slot. Nothing panics while holding it, and every write
    /// leaves it whole, so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SlotState {
    /// Hands the answer out once; afterwards the slot reads as a server
    /// that went away without answering.
    fn take(&mut self) -> Option<ServeResult> {
        if self.taken {
            return Some(Err(Rejected::ShuttingDown));
        }
        let result = self.result.take()?;
        self.taken = true;
        Some(result)
    }
}

/// The server's end of a reply slot: it answers exactly once, and if it
/// is dropped unanswered (the server went away with the request still
/// queued) it answers [`Rejected::ShuttingDown`].
struct Responder(Option<Arc<ReplySlot>>);

impl Responder {
    fn send(mut self, result: ServeResult) {
        self.answer(result);
    }

    fn answer(&mut self, result: ServeResult) {
        let Some(slot) = self.0.take() else {
            return;
        };
        let mut state = slot.lock();
        state.result = Some(result);
        let wake = state.waiting;
        drop(state);
        if wake {
            slot.ready.notify_one();
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.answer(Err(Rejected::ShuttingDown));
    }
}

/// The client's end of one submitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    id: u64,
    slot: Arc<ReplySlot>,
}

impl ResponseHandle {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives; [`Rejected::ShuttingDown`]
    /// if the server was dropped without answering.
    pub fn wait(self) -> ServeResult {
        let mut state = self.slot.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state.waiting = true;
            state = self
                .slot
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting = false;
        }
    }

    /// Non-blocking poll; `None` while the request is still queued or
    /// in flight, [`Rejected::ShuttingDown`] if the server was dropped
    /// without answering. The response is handed out once: after a call
    /// returns it, later calls (and [`Self::wait`]) return
    /// [`Rejected::ShuttingDown`], as for a server that went away.
    pub fn try_take(&self) -> Option<ServeResult> {
        self.slot.lock().take()
    }
}

/// One queued request.
struct Pending {
    id: u64,
    tenant: TenantId,
    x: Vec<f64>,
    arrival_ns: u64,
    /// Simulated-time deadline; `u64::MAX` when none.
    deadline_ns: u64,
    /// Admission order, the EDF tie-break (FIFO among equal deadlines).
    seq: u64,
    reply: Responder,
}

/// Min-heap adapter: a tenant's sub-queue pops its earliest-deadline
/// request first, FIFO among ties — so a tight-deadline request
/// admitted during a burst of slack ones jumps to the next batch.
struct EdfEntry(Pending);

impl PartialEq for EdfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for EdfEntry {}
impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for EdfEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum
        // (deadline, seq) on top.
        (other.0.deadline_ns, other.0.seq).cmp(&(self.0.deadline_ns, self.0.seq))
    }
}

/// Queues + admission under one lock, so decisions serialize with
/// enqueue/dequeue. The admission controller owns all depth accounting
/// (total and per tenant) — nothing here re-derives a depth to pass in.
struct QueueState {
    /// Per-tenant EDF sub-queues. Emptied entries are pruned so batch
    /// formation only cycles tenants that actually have work.
    queues: BTreeMap<TenantId, BinaryHeap<EdfEntry>>,
    /// Total queued requests (= sum of sub-queue lengths).
    len: usize,
    admission: AdmissionController,
    /// Last tenant granted batch slots; the next batch starts with the
    /// tenant after it (cyclic, by id), so slot handout is fair even
    /// when batches are smaller than the active tenant set.
    cursor: Option<TenantId>,
    /// Monotonic admission counter feeding [`Pending::seq`].
    seq: u64,
    /// Batcher threads asleep on [`Server::work`]; `submit` notifies
    /// only while one is.
    parked: usize,
    /// Set by [`Server::stop`]: refuse new work, let the batchers exit
    /// once the queue is drained. Under the queue lock, so a batcher
    /// between its check and its wait cannot miss the wake-up.
    stopping: bool,
}

/// Per-tenant stat counters behind the stats mutex.
#[derive(Default)]
struct TenantCounters {
    submitted: u64,
    admitted: u64,
    completed: u64,
    shed: u64,
    dropped: u64,
    cache_hits: u64,
    hist: LatencyHistogram,
}

/// Counters behind the stats mutex.
#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    rejected_queue_full: u64,
    rejected_overloaded: u64,
    rejected_over_share: u64,
    rejected_deferred: u64,
    rejected_deadline: u64,
    rejected_invalid: u64,
    rejected_backend: u64,
    batches: u64,
    batch_rows: u64,
    unique_simulations: u64,
    degraded_batches: u64,
    /// Pool failure/recovery counters accumulated across batches.
    faults: hpcq::FaultStats,
    tenants: BTreeMap<TenantId, TenantCounters>,
}

impl Counters {
    fn tenant(&mut self, tenant: TenantId) -> &mut TenantCounters {
        self.tenants.entry(tenant).or_default()
    }
}

/// The inference server. Share it via [`Arc`]: `submit` and `step` both
/// take `&self`.
pub struct Server {
    config: ServerConfig,
    registry: ModelRegistry,
    engine: FeatureEngine,
    clock: SimClock,
    state: Mutex<QueueState>,
    work: Condvar,
    cache: Mutex<FeatureCache>,
    stats: Mutex<Counters>,
    next_id: AtomicU64,
}

impl Server {
    /// A server with the in-process [`FeatureEngine::Local`] engine.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_engine(config, FeatureEngine::local())
    }

    /// A server computing cache misses on the given engine.
    pub fn with_engine(config: ServerConfig, engine: FeatureEngine) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        Server {
            registry: ModelRegistry::new(),
            engine,
            state: Mutex::new(QueueState {
                queues: BTreeMap::new(),
                len: 0,
                admission: AdmissionController::new(config.queue_capacity, config.high_water),
                cursor: None,
                seq: 0,
                parked: 0,
                stopping: false,
            }),
            work: Condvar::new(),
            cache: Mutex::new(FeatureCache::new(config.cache_capacity, config.quant_scale)),
            stats: Mutex::new(Counters::default()),
            next_id: AtomicU64::new(0),
            clock: SimClock::new(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The model registry (deploy/rollback through this).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Convenience: deploy a model as the new active version.
    pub fn deploy(&self, model: impl Into<ServedModel>) -> ModelVersion {
        self.registry.deploy(model)
    }

    /// The simulated clock (tests and trace replay advance it).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Sets (or updates) a tenant's fairness weight: its relative slice
    /// of brownout admission shares and of batch slots. Unregistered
    /// tenants default to weight 1.
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        self.state
            .lock()
            .expect("server lock poisoned")
            .admission
            .set_tenant_weight(tenant, weight);
    }

    /// Total requests currently queued (all tenants).
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("server lock poisoned").len
    }

    /// The brownout-ladder rung admission currently sits on.
    pub fn brownout_level(&self) -> BrownoutLevel {
        self.state
            .lock()
            .expect("server lock poisoned")
            .admission
            .level()
    }

    /// Submits one data point for the default tenant with the default
    /// deadline budget.
    pub fn submit(&self, x: Vec<f64>) -> Result<ResponseHandle, Rejected> {
        self.submit_as(TenantId::DEFAULT, x, self.default_budget())
    }

    /// Submits one data point for the default tenant with an explicit
    /// deadline budget in simulated ns (`None` = no deadline).
    pub fn submit_with_budget(
        &self,
        x: Vec<f64>,
        budget_ns: Option<u64>,
    ) -> Result<ResponseHandle, Rejected> {
        self.submit_as(TenantId::DEFAULT, x, budget_ns)
    }

    /// Submits one data point on behalf of `tenant` with the default
    /// deadline budget.
    pub fn submit_for(&self, tenant: TenantId, x: Vec<f64>) -> Result<ResponseHandle, Rejected> {
        self.submit_as(tenant, x, self.default_budget())
    }

    fn default_budget(&self) -> Option<u64> {
        let budget = self.config.default_deadline_ns;
        if budget == 0 {
            None
        } else {
            Some(budget)
        }
    }

    /// The full submission form: one data point for `tenant` with an
    /// explicit deadline budget in simulated ns (`None` = no deadline —
    /// such slack traffic is the first deferred in a deep brownout).
    /// Admission control runs here, synchronously — a rejected request
    /// never enters a queue.
    pub fn submit_as(
        &self,
        tenant: TenantId,
        x: Vec<f64>,
        budget_ns: Option<u64>,
    ) -> Result<ResponseHandle, Rejected> {
        let Some((_, model)) = self.registry.active() else {
            return Err(Rejected::NoActiveModel);
        };
        let qubits = model.num_qubits();
        if x.is_empty() || !x.len().is_multiple_of(qubits) {
            return Err(self.count_rejection(
                tenant,
                Rejected::InvalidInput {
                    len: x.len(),
                    qubits,
                },
            ));
        }
        if let Some(index) = x
            .iter()
            .position(|v| !v.is_finite() || v.abs() > MAX_COORDINATE)
        {
            return Err(self.count_rejection(tenant, Rejected::InvalidValue { index }));
        }
        let verdict = {
            let mut state = self.state.lock().expect("server lock poisoned");
            // Checked under the queue lock so a submit can never slip a
            // request in after the worker's final drained-and-stopping
            // check — admitted implies answered.
            if state.stopping {
                return Err(Rejected::ShuttingDown);
            }
            match state.admission.admit(tenant, budget_ns.is_some()) {
                Err(e) => Err(e),
                Ok(()) => {
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    let arrival_ns = self.clock.now_ns();
                    let deadline_ns = match budget_ns {
                        Some(b) => arrival_ns.saturating_add(b),
                        None => u64::MAX,
                    };
                    let seq = state.seq;
                    state.seq += 1;
                    let slot = Arc::new(ReplySlot::default());
                    state
                        .queues
                        .entry(tenant)
                        .or_default()
                        .push(EdfEntry(Pending {
                            id,
                            tenant,
                            x,
                            arrival_ns,
                            deadline_ns,
                            seq,
                            reply: Responder(Some(Arc::clone(&slot))),
                        }));
                    state.len += 1;
                    // Counted while the queue lock is still held, so no
                    // worker can complete (count) this request before it
                    // is counted as submitted — the books always balance.
                    let mut stats = self.stats.lock().expect("server lock poisoned");
                    stats.submitted += 1;
                    let t = stats.tenant(tenant);
                    t.submitted += 1;
                    t.admitted += 1;
                    Ok((ResponseHandle { id, slot }, state.parked > 0))
                }
            }
        };
        match verdict {
            Ok((handle, wake)) => {
                if wake {
                    self.work.notify_one();
                }
                Ok(handle)
            }
            Err(rejection) => Err(self.count_rejection(tenant, rejection)),
        }
    }

    /// Records a client-visible rejection in the stats counters and
    /// hands it back. `NoActiveModel`/`ShuttingDown` are lifecycle
    /// conditions (nothing is deployed / the endpoint is going away),
    /// not request-accounting events, and stay uncounted.
    fn count_rejection(&self, tenant: TenantId, rejection: Rejected) -> Rejected {
        let mut stats = self.stats.lock().expect("server lock poisoned");
        let counted = match &rejection {
            Rejected::QueueFull { .. } => {
                stats.rejected_queue_full += 1;
                true
            }
            Rejected::Overloaded { .. } => {
                stats.rejected_overloaded += 1;
                true
            }
            Rejected::TenantOverShare { .. } => {
                stats.rejected_over_share += 1;
                true
            }
            Rejected::Deferred { .. } => {
                stats.rejected_deferred += 1;
                true
            }
            Rejected::InvalidInput { .. } | Rejected::InvalidValue { .. } => {
                stats.rejected_invalid += 1;
                true
            }
            Rejected::BackendUnavailable { .. } => {
                stats.rejected_backend += 1;
                true
            }
            Rejected::DeadlineExceeded { .. }
            | Rejected::NoActiveModel
            | Rejected::ShuttingDown => false,
        };
        if counted {
            let t = stats.tenant(tenant);
            t.submitted += 1;
            t.shed += 1;
        }
        rejection
    }

    /// Forms one micro-batch under the queue lock: batch slots are
    /// handed out weighted round-robin across the tenants that have
    /// queued work (each tenant takes up to `weight` slots per cycle,
    /// starting after the tenant the previous batch ended on), and each
    /// tenant contributes its earliest-deadline requests first. A
    /// flooding tenant therefore gets at most its weighted slice of
    /// every batch while others have work — queue *position* cannot be
    /// monopolized any more than queue *entry* can.
    fn form_batch(&self, state: &mut QueueState) -> Vec<Pending> {
        let take = state.len.min(self.config.max_batch);
        let mut batch: Vec<Pending> = Vec::with_capacity(take);
        while batch.len() < take {
            // Active tenants in cyclic id order, starting after the
            // cursor. Collected fresh each cycle because emptied
            // sub-queues are pruned as we go.
            let mut order: Vec<TenantId> = state.queues.keys().copied().collect();
            if let Some(cur) = state.cursor {
                let at = order.partition_point(|&t| t <= cur).min(order.len());
                order.rotate_left(at);
            }
            for tenant in order {
                if batch.len() >= take {
                    break;
                }
                let quota = state.admission.weight_of(tenant).max(1) as usize;
                let queue = state
                    .queues
                    .get_mut(&tenant)
                    .expect("active tenant has a queue");
                for _ in 0..quota {
                    if batch.len() >= take {
                        break;
                    }
                    match queue.pop() {
                        Some(EdfEntry(p)) => {
                            state.len -= 1;
                            state.admission.release(tenant);
                            state.cursor = Some(tenant);
                            batch.push(p);
                        }
                        None => break,
                    }
                }
                if queue.is_empty() {
                    state.queues.remove(&tenant);
                }
            }
        }
        batch
    }

    /// Pops and serves one micro-batch; returns the number of requests
    /// *dispatched* (answered with a prediction or a typed rejection) —
    /// 0 exactly when the queue was empty, so [`Self::drain`]
    /// terminates precisely when no work is left even if a whole batch
    /// expired on its deadlines.
    pub fn step(&self) -> usize {
        let batch: Vec<Pending> = {
            let mut state = self.state.lock().expect("server lock poisoned");
            self.form_batch(&mut state)
        };
        let dispatched = batch.len();
        if dispatched > 0 {
            self.run_batch(batch);
        }
        dispatched
    }

    /// Serves micro-batches until the queue is empty; returns the total
    /// number of requests dispatched.
    pub fn drain(&self) -> usize {
        let mut total = 0;
        loop {
            let dispatched = self.step();
            if dispatched == 0 {
                return total;
            }
            total += dispatched;
        }
    }

    /// Executes one formed micro-batch end to end and charges its
    /// simulated cost on the clock. The active model is resolved exactly
    /// once, here — a concurrent deploy affects only batches formed
    /// later (hot-swap: the old version drains).
    fn run_batch(&self, batch: Vec<Pending>) {
        let Some((version, model)) = self.registry.active() else {
            for p in batch {
                p.reply.send(Err(Rejected::NoActiveModel));
            }
            return;
        };
        let now = self.clock.now_ns();
        // Requests were validated against the model active at *submit*
        // time; a hot-swap in between may have changed the qubit count,
        // so re-validate against the model this batch actually serves —
        // a typed rejection, never a panic on the batcher thread.
        let qubits = model.num_qubits();
        let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
        let mut expired: Vec<TenantId> = Vec::new();
        let mut invalid: Vec<TenantId> = Vec::new();
        for p in batch {
            if now > p.deadline_ns {
                expired.push(p.tenant);
                p.reply.send(Err(Rejected::DeadlineExceeded {
                    deadline_ns: p.deadline_ns,
                    now_ns: now,
                }));
            } else if p.x.is_empty() || !p.x.len().is_multiple_of(qubits) {
                invalid.push(p.tenant);
                p.reply.send(Err(Rejected::InvalidInput {
                    len: p.x.len(),
                    qubits,
                }));
            } else {
                live.push(p);
            }
        }
        if !expired.is_empty() || !invalid.is_empty() {
            let mut stats = self.stats.lock().expect("server lock poisoned");
            stats.rejected_deadline += expired.len() as u64;
            stats.rejected_invalid += invalid.len() as u64;
            for t in expired.into_iter().chain(invalid) {
                stats.tenant(t).dropped += 1;
            }
        }
        if live.is_empty() {
            return;
        }

        // Cache phase: a hit is answered here, by the head reading the
        // cached row in place under the cache lock; misses are deduped
        // within the batch so each unique point is simulated once.
        let mut predictions: Vec<Option<Prediction>> = vec![None; live.len()];
        let mut hit: Vec<bool> = vec![false; live.len()];
        let mut miss_of: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut miss_keys: Vec<Vec<i64>> = Vec::new();
        let mut miss_requesters: Vec<Vec<usize>> = Vec::new();
        // Deploy-time fingerprint of this batch's generator (computed
        // once per deploy, not per batch).
        let fp = self
            .registry
            .fingerprint(version)
            .unwrap_or_else(|| model.generator_fingerprint());
        {
            let mut cache = self.cache.lock().expect("server lock poisoned");
            // Cached rows belong to one feature generator; the cache is
            // segmented by fingerprint, so lookups only ever see rows the
            // same generator produced — a hot-swap or rollback keeps
            // every version's rows warm without any flushing.
            for (i, p) in live.iter().enumerate() {
                let key = cache.quantize(&p.x);
                if let Some(row) = cache.get(fp, &key) {
                    predictions[i] = Some(model.predict_row(row));
                    hit[i] = true;
                } else {
                    match miss_of.get(&key) {
                        Some(&mi) => miss_requesters[mi].push(i),
                        None => {
                            let mi = miss_keys.len();
                            miss_of.insert(key.clone(), mi);
                            miss_keys.push(key);
                            miss_requesters.push(vec![i]);
                        }
                    }
                }
            }
        }

        // Compute phase (no server lock held): one standalone-seeded row
        // per unique miss, on the engine. The batch's deadline budget is
        // the tightest remaining budget across its live requests — pool
        // retries never chase an already-dead request.
        let miss_xs: Vec<&[f64]> = miss_requesters
            .iter()
            .map(|reqs| live[reqs[0]].x.as_slice())
            .collect();
        let budget_ns = live
            .iter()
            .map(|p| p.deadline_ns)
            .min()
            .filter(|&d| d != u64::MAX)
            .map(|d| d.saturating_sub(now));
        let mut backend_failed_jobs = 0u64;
        if !miss_xs.is_empty() {
            // Degradation ladder: the pool already failed over / hedged
            // internally; if it still could not complete the batch, fall
            // back to the in-process local engine, or — with fallback
            // disabled — shed exactly the requests whose rows are missing
            // (cache hits are served regardless).
            let computed = match self
                .engine
                .compute_rows(model.generator(), &miss_xs, budget_ns)
            {
                Ok(out) => {
                    let mut stats = self.stats.lock().expect("server lock poisoned");
                    stats.faults.absorb(&out.faults);
                    Some(out.rows)
                }
                Err(err) => {
                    let mut stats = self.stats.lock().expect("server lock poisoned");
                    stats.faults.absorb(&err.faults);
                    backend_failed_jobs = err.failed_jobs as u64;
                    if self.config.degraded_local_fallback {
                        stats.degraded_batches += 1;
                        drop(stats);
                        Some(model.generator().generate_rows_standalone(&miss_xs))
                    } else {
                        None
                    }
                }
            };
            if let Some(computed) = computed {
                debug_assert_eq!(computed.len(), miss_keys.len());
                // Each computed row is read once, its prediction shared
                // with the miss's within-batch duplicates, and then moved
                // into the cache. Rows tagged with their generator's
                // fingerprint stay valid forever — no tag re-check needed
                // even if a concurrent batch hot-swapped the active model
                // while we computed.
                let mut cache = self.cache.lock().expect("server lock poisoned");
                for ((key, row), requesters) in
                    miss_keys.into_iter().zip(computed).zip(&miss_requesters)
                {
                    let prediction = model.predict_row(&row);
                    for &i in requesters {
                        predictions[i] = Some(prediction);
                    }
                    cache.insert(fp, key, row);
                }
            }
        }

        // Bottom rung: requests whose rows never materialized are shed
        // with a typed error; everything else is answered below.
        let misses = miss_xs.len();
        drop(miss_xs);
        let mut survivors: Vec<(Pending, Prediction, bool)> = Vec::with_capacity(live.len());
        let mut shed_backend: Vec<TenantId> = Vec::new();
        for ((p, prediction), cache_hit) in live.into_iter().zip(predictions).zip(hit) {
            match prediction {
                Some(prediction) => survivors.push((p, prediction, cache_hit)),
                None => {
                    shed_backend.push(p.tenant);
                    p.reply.send(Err(Rejected::BackendUnavailable {
                        failed_jobs: backend_failed_jobs,
                    }));
                }
            }
        }
        if !shed_backend.is_empty() {
            let mut stats = self.stats.lock().expect("server lock poisoned");
            stats.rejected_backend += shed_backend.len() as u64;
            for t in shed_backend {
                stats.tenant(t).dropped += 1;
            }
        }
        if survivors.is_empty() {
            return;
        }

        // Account simulated time once per batch, then respond.
        let done = self
            .clock
            .advance_ns(batch_cost_ns(survivors.len(), misses));
        let served = survivors.len();
        let mut stats = self.stats.lock().expect("server lock poisoned");
        stats.batches += 1;
        stats.batch_rows += served as u64;
        stats.completed += served as u64;
        stats.unique_simulations += misses as u64;
        for (p, prediction, cache_hit) in survivors {
            let latency_ns = done.saturating_sub(p.arrival_ns);
            let t = stats.tenant(p.tenant);
            t.completed += 1;
            t.hist.record(latency_ns);
            if cache_hit {
                t.cache_hits += 1;
            }
            p.reply.send(Ok(Response {
                id: p.id,
                tenant: p.tenant,
                prediction,
                model: version,
                latency_ns,
                cache_hit,
            }));
        }
    }

    /// A consistent stats snapshot.
    pub fn stats(&self) -> ServerStats {
        let cache = self.cache.lock().expect("server lock poisoned").stats();
        let stats = self.stats.lock().expect("server lock poisoned");
        let per_tenant = stats
            .tenants
            .iter()
            .map(|(&tenant, t)| TenantSnapshot {
                tenant,
                submitted: t.submitted,
                admitted: t.admitted,
                completed: t.completed,
                shed: t.shed,
                dropped: t.dropped,
                cache_hits: t.cache_hits,
                p50_ms: t.hist.quantile_ns(0.50) / 1e6,
                p99_ms: t.hist.quantile_ns(0.99) / 1e6,
            })
            .collect();
        ServerStats {
            submitted: stats.submitted,
            completed: stats.completed,
            rejected_queue_full: stats.rejected_queue_full,
            rejected_overloaded: stats.rejected_overloaded,
            rejected_over_share: stats.rejected_over_share,
            rejected_deferred: stats.rejected_deferred,
            rejected_deadline: stats.rejected_deadline,
            rejected_invalid: stats.rejected_invalid,
            rejected_backend: stats.rejected_backend,
            batches: stats.batches,
            batch_rows: stats.batch_rows,
            unique_simulations: stats.unique_simulations,
            degraded_batches: stats.degraded_batches,
            faults: stats.faults,
            cache,
            per_tenant,
        }
    }

    /// Signals the worker loop to exit once the queue is drained.
    pub fn stop(&self) {
        self.state.lock().expect("server lock poisoned").stopping = true;
        self.work.notify_all();
    }

    /// The dedicated-thread drive loop: serve batches as they form,
    /// park when idle, drain fully on [`Server::stop`].
    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut state = self.state.lock().expect("server lock poisoned");
                while state.len == 0 && !state.stopping {
                    state.parked += 1;
                    state = self.work.wait(state).expect("server lock poisoned");
                    state.parked -= 1;
                }
                if state.len == 0 {
                    return; // stopping and drained
                }
                self.form_batch(&mut state)
            };
            self.run_batch(batch);
        }
    }
}

/// Spawns the batcher thread driving `server`. Join it after
/// [`Server::stop`]; every admitted request is answered before exit.
pub fn spawn_worker(server: Arc<Server>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("postvar-serve-batcher".to_string())
        .spawn(move || server.worker_loop())
        .expect("failed to spawn server worker")
}
