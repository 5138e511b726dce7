//! The batching scheduler at the heart of `parrot-serve`.
//!
//! [`Engine`] owns the per-tenant FIFO queues, the deficit round-robin
//! fairness state, the quality budgets, and the shared
//! [`BatchEvaluator`]. It is deliberately single-threaded and clocked by
//! *caller-supplied* microsecond timestamps: the daemon feeds it wall
//! time, the tests feed it a synthetic clock, and every
//! backpressure/timeout/fairness behaviour becomes exactly reproducible.
//! The server layer (`server.rs`) only adds sockets, threads, and a
//! mutex around this type.
//!
//! # Scheduling
//!
//! Tenants share one simulated NPU, so serving tenant B after tenant A
//! pays the context-switch cost measured in `tests/context_switch.rs`:
//! the config word stream of the outgoing tenant is saved and the
//! incoming one restored at one cycle per word
//! ([`NpuConfig::encoded_len`] each way). The scheduler therefore
//! batches per tenant — one flush serves up to
//! [`EngineConfig::max_batch`] invocations from a *single* queue — and
//! rotates tenants by deficit round-robin: each visit grants
//! `weight × quantum` credits, each served invocation spends one, so
//! long-run NPU share converges to the weight ratio while any single
//! flush stays dense enough for the batched SIMD kernel.
//!
//! # Degradation ladder
//!
//! Per request, in order: queue full → reject with retry-after (the
//! client's work is *not* lost, just deferred); deadline passed while
//! queued → timeout reply; tenant quality budget drained → execute the
//! *precise* region code instead of the NPU (graceful degradation, paper
//! §6's quality guarantees applied at serving time); otherwise → batched
//! NPU invocation, bit-identical to [`NpuConfig::evaluate`].

use crate::proto::{ErrorCode, InvokeMode};
use npu::{BatchEvaluator, NpuConfig};
use parrot::{ErrorBudget, RegionSpec};
use std::collections::{BTreeMap, HashMap, VecDeque};
use telemetry::{Histogram, ServingSummary, TenantServing};

/// Tuning knobs for the [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-tenant queue bound; a submit beyond it is rejected with
    /// backpressure instead of growing memory without limit.
    pub queue_cap: usize,
    /// Most invocations served from one tenant per flush. Defaults to
    /// [`ann::LANES`] so a full flush is exactly one full-width batch.
    pub max_batch: usize,
    /// Deadline applied when a request carries `deadline_us == 0`.
    pub default_deadline_us: u64,
    /// Back-off hint carried in rejection replies.
    pub retry_after_us: u64,
    /// Deficit round-robin credits granted per weight unit per visit.
    pub quantum: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_cap: 128,
            max_batch: ann::LANES,
            default_deadline_us: 1_000_000,
            retry_after_us: 500,
            quantum: 4,
        }
    }
}

/// One registered tenant: its trained NPU config, optional precise
/// region code (required for whole-region offload and for budget
/// degradation), scheduling weight, and quality budget.
pub struct TenantSpec {
    /// Queue / budget / config selector used on the wire.
    pub name: String,
    /// Deficit round-robin weight (≥ 1; long-run NPU share is
    /// proportional to it under saturation).
    pub weight: u32,
    /// The tenant's trained NPU configuration.
    pub config: NpuConfig,
    /// The original precise region, when available. Without it the
    /// tenant cannot request precise offload and cannot be degraded —
    /// a drained budget then keeps serving the NPU path (documented
    /// accuracy loss is better than no service at all).
    pub region: Option<RegionSpec>,
    /// Cumulative mean-absolute-error budget; drained → degrade.
    pub budget: ErrorBudget,
    /// Audit every Nth NPU invocation against the precise region to
    /// charge the budget (0 disables auditing). Mirrors the sampling
    /// quality guard in `crates/core/src/guard.rs`.
    pub sample_period: u64,
}

/// Result of [`Engine::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Accepted; a [`Completion`] with this token will follow.
    Enqueued {
        /// Engine-assigned completion token.
        token: u64,
    },
    /// Bounded queue full — backpressure, retry after the hint.
    Rejected {
        /// Suggested back-off, microseconds.
        retry_after_us: u64,
    },
    /// No tenant registered under that name.
    UnknownTenant,
    /// Input length does not match the tenant's topology.
    BadDimensions {
        /// The tenant topology's input arity.
        expected: usize,
        /// The submitted input length.
        got: usize,
    },
    /// Precise offload requested but the tenant has no region code.
    NoPrecisePath,
}

/// How one accepted request finished.
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionKind {
    /// Served with outputs.
    Done {
        /// The invocation's outputs.
        outputs: Vec<f32>,
        /// `true` when the precise CPU path ran (explicit offload or
        /// budget degradation), `false` for the batched NPU path.
        precise: bool,
        /// Time spent queued, microseconds.
        queued_us: u64,
    },
    /// Dropped: the deadline passed before service.
    TimedOut,
    /// Precise execution faulted.
    Failed {
        /// Failure class for the wire reply.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One finished request, matched to its submit by `token`.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Token returned by [`Engine::submit`].
    pub token: u64,
    /// Owning tenant's name.
    pub tenant: String,
    /// Client-chosen request id, echoed for the reply.
    pub request_id: u64,
    /// Outcome.
    pub kind: CompletionKind,
}

struct PendingInvocation {
    token: u64,
    request_id: u64,
    enqueued_us: u64,
    /// Absolute drop-dead time.
    deadline_us: u64,
    mode: InvokeMode,
    inputs: Vec<f32>,
}

#[derive(Default)]
struct TenantCounters {
    submitted: u64,
    completed: u64,
    npu_served: u64,
    precise_served: u64,
    rejected: u64,
    timed_out: u64,
}

struct TenantState {
    spec: TenantSpec,
    queue: VecDeque<PendingInvocation>,
    /// Deficit round-robin credit balance (invocations it may serve).
    deficit: u64,
    /// NPU invocations served so far, for the audit sample period.
    npu_invocations: u64,
    counters: TenantCounters,
    latency_us: Histogram,
}

/// The batching scheduler: per-tenant bounded FIFO queues in front of
/// one shared, time-multiplexed NPU. See the module docs for the
/// scheduling and degradation policies.
pub struct Engine {
    cfg: EngineConfig,
    tenants: Vec<TenantState>,
    by_name: HashMap<String, usize>,
    evaluator: BatchEvaluator,
    next_token: u64,
    /// Next tenant index the round-robin scan starts from.
    rr_cursor: usize,
    /// Tenant whose config currently occupies the simulated NPU.
    loaded_tenant: Option<usize>,
    requests_total: u64,
    protocol_errors: u64,
    batches: u64,
    batch_invocations: u64,
    context_switches: u64,
    context_switch_cycles: u64,
    queue_depth: Histogram,
    queue_wait_us: Histogram,
    batch_occupancy: Histogram,
    // Scratch buffers reused across flushes.
    flat_inputs: Vec<f32>,
    npu_outputs: Vec<f32>,
}

impl Engine {
    /// Builds an engine serving `tenants` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list, a duplicate tenant name, a zero
    /// weight, or a zero queue/batch capacity — all construction-time
    /// configuration bugs, not runtime events.
    pub fn new(cfg: EngineConfig, tenants: Vec<TenantSpec>) -> Engine {
        assert!(!tenants.is_empty(), "engine needs at least one tenant");
        assert!(cfg.queue_cap > 0, "queue capacity must be positive");
        assert!(cfg.max_batch > 0, "batch capacity must be positive");
        assert!(cfg.quantum > 0, "DRR quantum must be positive");
        let mut by_name = HashMap::new();
        let states: Vec<TenantState> = tenants
            .into_iter()
            .map(|spec| {
                assert!(spec.weight > 0, "tenant {} has zero weight", spec.name);
                let prev = by_name.insert(spec.name.clone(), by_name.len());
                assert!(prev.is_none(), "duplicate tenant name {}", spec.name);
                TenantState {
                    spec,
                    queue: VecDeque::new(),
                    deficit: 0,
                    npu_invocations: 0,
                    counters: TenantCounters::default(),
                    latency_us: Histogram::default(),
                }
            })
            .collect();
        Engine {
            cfg,
            tenants: states,
            by_name,
            evaluator: BatchEvaluator::new(),
            next_token: 1,
            rr_cursor: 0,
            loaded_tenant: None,
            requests_total: 0,
            protocol_errors: 0,
            batches: 0,
            batch_invocations: 0,
            context_switches: 0,
            context_switch_cycles: 0,
            queue_depth: Histogram::default(),
            queue_wait_us: Histogram::default(),
            batch_occupancy: Histogram::default(),
            flat_inputs: Vec::new(),
            npu_outputs: Vec::new(),
        }
    }

    /// Offers one request at virtual time `now_us`. `deadline_us` is
    /// *relative* (0 = the configured default). Accepted requests later
    /// surface as [`Completion`]s from [`flush`](Self::flush) or
    /// [`expire`](Self::expire).
    pub fn submit(
        &mut self,
        tenant: &str,
        request_id: u64,
        deadline_us: u64,
        mode: InvokeMode,
        inputs: Vec<f32>,
        now_us: u64,
    ) -> SubmitOutcome {
        self.requests_total += 1;
        let Some(&idx) = self.by_name.get(tenant) else {
            return SubmitOutcome::UnknownTenant;
        };
        let state = &mut self.tenants[idx];
        state.counters.submitted += 1;
        let expected = state.spec.config.topology().inputs();
        if inputs.len() != expected {
            return SubmitOutcome::BadDimensions {
                expected,
                got: inputs.len(),
            };
        }
        if mode == InvokeMode::Precise && state.spec.region.is_none() {
            return SubmitOutcome::NoPrecisePath;
        }
        if state.queue.len() >= self.cfg.queue_cap {
            state.counters.rejected += 1;
            return SubmitOutcome::Rejected {
                retry_after_us: self.cfg.retry_after_us,
            };
        }
        let relative = if deadline_us == 0 {
            self.cfg.default_deadline_us
        } else {
            deadline_us
        };
        let token = self.next_token;
        self.next_token += 1;
        state.queue.push_back(PendingInvocation {
            token,
            request_id,
            enqueued_us: now_us,
            deadline_us: now_us.saturating_add(relative),
            mode,
            inputs,
        });
        self.queue_depth.observe(state.queue.len() as f64);
        SubmitOutcome::Enqueued { token }
    }

    /// Counts one undecodable or invalid frame (kept here so the
    /// summary owns every counter the CI gate reads).
    pub fn record_protocol_error(&mut self) {
        self.protocol_errors += 1;
    }

    /// Drops every queued request whose deadline lies at or before
    /// `now_us`, appending a [`CompletionKind::TimedOut`] completion for
    /// each. Deterministic: depends only on queue contents and `now_us`.
    pub fn expire(&mut self, now_us: u64, out: &mut Vec<Completion>) {
        for state in &mut self.tenants {
            // Deadlines are not necessarily monotone in arrival order
            // (clients pick them), so filter the whole queue.
            let mut kept = VecDeque::with_capacity(state.queue.len());
            for item in state.queue.drain(..) {
                if item.deadline_us <= now_us {
                    state.counters.timed_out += 1;
                    out.push(Completion {
                        token: item.token,
                        tenant: state.spec.name.clone(),
                        request_id: item.request_id,
                        kind: CompletionKind::TimedOut,
                    });
                } else {
                    kept.push_back(item);
                }
            }
            state.queue = kept;
        }
    }

    /// Serves at most one tenant's batch at virtual time `now_us`,
    /// appending completions. Returns `true` when anything was served
    /// (call again to drain further tenants).
    ///
    /// Expired requests are timed out (never served) first, so a flush
    /// at time T observes exactly the queues a reaper running at T
    /// would leave behind.
    pub fn flush(&mut self, now_us: u64, out: &mut Vec<Completion>) -> bool {
        self.expire(now_us, out);
        let n = self.tenants.len();
        for step in 0..n {
            let idx = (self.rr_cursor + step) % n;
            if self.tenants[idx].queue.is_empty() {
                self.tenants[idx].deficit = 0;
                continue;
            }
            // Grant this visit's credits, serve as many as credits and
            // batch capacity allow, and resume the scan *after* this
            // tenant next time.
            let state = &mut self.tenants[idx];
            state.deficit = state
                .deficit
                .saturating_add(u64::from(state.spec.weight) * self.cfg.quantum);
            let n_serve = state
                .queue
                .len()
                .min(self.cfg.max_batch)
                .min(state.deficit as usize);
            state.deficit -= n_serve as u64;
            if state.queue.len() == n_serve {
                state.deficit = 0;
            }
            self.rr_cursor = (idx + 1) % n;
            self.serve_batch(idx, n_serve, now_us, out);
            return true;
        }
        false
    }

    /// Serves the first `n_serve` queued invocations of tenant `idx`.
    fn serve_batch(&mut self, idx: usize, n_serve: usize, now_us: u64, out: &mut Vec<Completion>) {
        let state = &mut self.tenants[idx];
        let items: Vec<PendingInvocation> = state.queue.drain(..n_serve).collect();
        let n_in = state.spec.config.topology().inputs();
        let n_out = state.spec.config.topology().outputs();

        // Route each invocation: explicit precise offload, budget
        // degradation (drained + region available), else NPU.
        let degrade = state.spec.budget.drained() && state.spec.region.is_some();
        let mut npu_items: Vec<PendingInvocation> = Vec::new();
        let mut precise_items: Vec<PendingInvocation> = Vec::new();
        for item in items {
            match item.mode {
                InvokeMode::Precise => precise_items.push(item),
                InvokeMode::Npu if degrade => precise_items.push(item),
                InvokeMode::Npu => npu_items.push(item),
            }
        }

        if !npu_items.is_empty() {
            // The simulated NPU is time-shared: loading this tenant's
            // config evicts the previous one, costing one cycle per
            // config word saved plus one per word restored (the cost
            // model pinned by tests/context_switch.rs).
            if self.loaded_tenant != Some(idx) {
                let save = self
                    .loaded_tenant
                    .map(|prev| self.tenants[prev].spec.config.encoded_len())
                    .unwrap_or(0);
                let restore = self.tenants[idx].spec.config.encoded_len();
                self.context_switches += 1;
                self.context_switch_cycles += (save + restore) as u64;
                self.loaded_tenant = Some(idx);
            }

            self.flat_inputs.clear();
            for item in &npu_items {
                self.flat_inputs.extend_from_slice(&item.inputs);
            }
            let state = &mut self.tenants[idx];
            self.evaluator
                .run_flat(&state.spec.config, &self.flat_inputs, &mut self.npu_outputs);
            self.batches += 1;
            self.batch_invocations += npu_items.len() as u64;
            self.batch_occupancy.observe(npu_items.len() as f64);
            debug_assert_eq!(self.npu_outputs.len(), npu_items.len() * n_out);
            debug_assert_eq!(self.flat_inputs.len(), npu_items.len() * n_in);

            for (i, item) in npu_items.into_iter().enumerate() {
                let outputs = self.npu_outputs[i * n_out..][..n_out].to_vec();
                // Sampled quality audit: every Nth NPU invocation also
                // runs the precise region and charges the mean absolute
                // output error to the tenant's budget.
                state.npu_invocations += 1;
                if state.spec.sample_period > 0
                    && state
                        .npu_invocations
                        .is_multiple_of(state.spec.sample_period)
                {
                    if let Some(region) = &state.spec.region {
                        let charge = match region.evaluate(&item.inputs) {
                            Ok(precise) => {
                                let sum: f64 = precise
                                    .iter()
                                    .zip(&outputs)
                                    .map(|(p, a)| f64::from((p - a).abs()))
                                    .sum();
                                sum / precise.len().max(1) as f64
                            }
                            // An unevaluable audit means quality is
                            // unverifiable — drain conservatively.
                            Err(_) => f64::NAN,
                        };
                        state.spec.budget.charge(charge);
                    }
                }
                let queued_us = now_us.saturating_sub(item.enqueued_us);
                state.counters.completed += 1;
                state.counters.npu_served += 1;
                state.latency_us.observe(queued_us as f64);
                self.queue_wait_us.observe(queued_us as f64);
                out.push(Completion {
                    token: item.token,
                    tenant: state.spec.name.clone(),
                    request_id: item.request_id,
                    kind: CompletionKind::Done {
                        outputs,
                        precise: false,
                        queued_us,
                    },
                });
            }
        }

        let state = &mut self.tenants[idx];
        for item in precise_items {
            let region = state
                .spec
                .region
                .as_ref()
                .expect("precise routing guarantees a region");
            let queued_us = now_us.saturating_sub(item.enqueued_us);
            match region.evaluate(&item.inputs) {
                Ok(outputs) => {
                    state.counters.completed += 1;
                    state.counters.precise_served += 1;
                    state.latency_us.observe(queued_us as f64);
                    self.queue_wait_us.observe(queued_us as f64);
                    out.push(Completion {
                        token: item.token,
                        tenant: state.spec.name.clone(),
                        request_id: item.request_id,
                        kind: CompletionKind::Done {
                            outputs,
                            precise: true,
                            queued_us,
                        },
                    });
                }
                Err(e) => out.push(Completion {
                    token: item.token,
                    tenant: state.spec.name.clone(),
                    request_id: item.request_id,
                    kind: CompletionKind::Failed {
                        code: ErrorCode::ExecutionFailed,
                        message: e.to_string(),
                    },
                }),
            }
        }
    }

    /// Total queued invocations across tenants.
    pub fn pending_total(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Whether some tenant already fills a whole flush.
    pub fn has_full_batch(&self) -> bool {
        self.tenants
            .iter()
            .any(|t| t.queue.len() >= self.cfg.max_batch)
    }

    /// Enqueue time of the oldest queued invocation, if any (drives the
    /// daemon's batch-window flush decision).
    pub fn oldest_enqueued_us(&self) -> Option<u64> {
        self.tenants
            .iter()
            .filter_map(|t| t.queue.front().map(|p| p.enqueued_us))
            .min()
    }

    /// Current queue depth of `tenant` (None for unknown names).
    pub fn queue_len(&self, tenant: &str) -> Option<usize> {
        self.by_name
            .get(tenant)
            .map(|&i| self.tenants[i].queue.len())
    }

    /// Whether `tenant`'s quality budget is drained.
    pub fn budget_drained(&self, tenant: &str) -> Option<bool> {
        self.by_name
            .get(tenant)
            .map(|&i| self.tenants[i].spec.budget.drained())
    }

    /// The tenant's NPU config (tests recompute reference outputs
    /// through it to check bit-identity).
    pub fn config_of(&self, tenant: &str) -> Option<&NpuConfig> {
        self.by_name
            .get(tenant)
            .map(|&i| &self.tenants[i].spec.config)
    }

    /// Queue-depth samples (observed at each accepted submit).
    pub fn queue_depth_hist(&self) -> &Histogram {
        &self.queue_depth
    }

    /// Time-in-queue samples for served invocations, microseconds.
    pub fn queue_wait_hist(&self) -> &Histogram {
        &self.queue_wait_us
    }

    /// Invocations-per-flush samples for NPU batches.
    pub fn batch_occupancy_hist(&self) -> &Histogram {
        &self.batch_occupancy
    }

    /// Snapshot of the serving accounting after `wall_us` of service.
    ///
    /// The fairness index is Jain's over weight-normalized completed
    /// throughput `x_i = completed_i / weight_i`, taken across tenants
    /// that were offered any load: `J = (Σx)² / (n·Σx²)`, 1.0 when every
    /// tenant got exactly its weighted share.
    pub fn summary(&self, wall_us: u64) -> ServingSummary {
        let mut completed = 0u64;
        let mut npu_served = 0u64;
        let mut precise_served = 0u64;
        let mut rejected = 0u64;
        let mut timed_out = 0u64;
        let mut shares: Vec<f64> = Vec::new();
        let mut tenants = BTreeMap::new();
        for t in &self.tenants {
            let c = &t.counters;
            completed += c.completed;
            npu_served += c.npu_served;
            precise_served += c.precise_served;
            rejected += c.rejected;
            timed_out += c.timed_out;
            if c.submitted > 0 {
                shares.push(c.completed as f64 / f64::from(t.spec.weight));
            }
            tenants.insert(
                t.spec.name.clone(),
                TenantServing {
                    weight: u64::from(t.spec.weight),
                    completed: c.completed,
                    npu_served: c.npu_served,
                    precise_served: c.precise_served,
                    rejected: c.rejected,
                    timed_out: c.timed_out,
                    p50_us: t.latency_us.p50(),
                    p99_us: t.latency_us.p99(),
                    p999_us: t.latency_us.p999(),
                },
            );
        }
        let sum: f64 = shares.iter().sum();
        let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
        ServingSummary {
            requests_total: self.requests_total,
            completed,
            npu_served,
            precise_served,
            rejected,
            timed_out,
            protocol_errors: self.protocol_errors,
            batches: self.batches,
            batch_occupancy_mean: if self.batches == 0 {
                0.0
            } else {
                self.batch_invocations as f64 / self.batches as f64
            },
            context_switches: self.context_switches,
            context_switch_cycles: self.context_switch_cycles,
            invocations_per_s: if wall_us == 0 {
                0.0
            } else {
                completed as f64 * 1e6 / wall_us as f64
            },
            fairness_index: if sum_sq > 0.0 {
                (sum * sum) / (shares.len() as f64 * sum_sq)
            } else {
                0.0
            },
            tenants,
        }
    }
}

/// Iterates [`Engine::flush`] until no tenant has queued work,
/// collecting all completions. Convenience for drain-on-shutdown and
/// for tests that want the steady state after a burst.
pub fn drain(engine: &mut Engine, now_us: u64, out: &mut Vec<Completion>) {
    while engine.flush(now_us, out) {}
}
