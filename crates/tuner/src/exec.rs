//! Plan-then-execute trial evaluation: batching, parallelism, and
//! memoization.
//!
//! "The dominant time requirement of our autotuner is testing candidate
//! algorithms by running them on training inputs" (§5.5.1). The tuner
//! therefore separates *planning* which trials a generation needs from
//! *executing* them: phases collect [`TrialRequest`]s and hand them to
//! an [`Evaluator`], which
//!
//! * executes whole batches on the work-stealing
//!   [`pb_runtime::pool::Pool`] (or sequentially, when forced), and
//! * memoizes outcomes in a fingerprint cache keyed on
//!   `(canonical config hash, n, seed)`, so duplicate candidates and
//!   mutate-then-revert configurations never re-execute a trial.
//!
//! Because trial seeds are a deterministic function of the input size
//! and trial index, and trials are pure under the virtual cost model,
//! parallel execution is **bit-identical** to sequential execution:
//! only the wall-clock schedule differs, never an outcome or a merge
//! order.
//!
//! The evaluator also implements [`TrialRunner`], so the adaptive
//! comparator's demand-driven extra trials (§5.5.1) flow through the
//! same cache — they execute immediately on the calling thread, the
//! single-trial fallback path.

use pb_config::{Config, Value};
use pb_runtime::parallel::parallel_gen;
use pb_runtime::pool::{Pool, PoolBatchStats};
use pb_runtime::{TraceNode, TrialOutcome, TrialRunner};
use pb_stats::OnlineStats;
use pb_trace::{Event, EventKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How an [`Evaluator`] executes a batch of trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Batches run on the global work-stealing pool.
    #[default]
    Parallel,
    /// Batches run one trial at a time on the calling thread (forced
    /// sequential mode; the determinism baseline).
    Sequential,
}

/// Structured classification of one failed trial execution attempt.
///
/// Trials are hostile territory: a candidate configuration can drive a
/// transform into a panic, an unbounded slowdown, or a NaN cost. The
/// evaluator turns each of those into a `TrialError` — counted,
/// retried, and ultimately quarantined — instead of letting it
/// propagate and kill the tuning run (or poison the work-stealing
/// pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialError {
    /// The trial panicked (caught via `catch_unwind`; the pool never
    /// sees the unwind).
    Panic,
    /// The trial completed but exceeded the soft deadline
    /// ([`FaultPolicy::deadline`]).
    Timeout,
    /// The trial reported a non-finite cost (NaN or ±inf `time`).
    NonFinite,
}

/// The evaluator's fault-handling policy: how many times a faulting
/// trial is retried (with deterministic backoff) before its outcome is
/// replaced by the quarantine sentinel
/// ([`TrialOutcome::QUARANTINED`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Retries after the first failed attempt (`2` means up to three
    /// attempts total).
    pub max_retries: u32,
    /// Soft deadline per attempt: an attempt whose wall time exceeds
    /// this counts as [`TrialError::Timeout`] even though it ran to
    /// completion. `None` (the default) disables the check — and its
    /// per-trial clock reads. Note that timeout classification depends
    /// on real time, so enabling it trades bit-reproducibility of the
    /// fault *counters* for protection against hangs; panic and
    /// non-finite classification are deterministic.
    pub deadline: Option<Duration>,
    /// Base of the deterministic linear backoff between attempts
    /// (attempt `k` sleeps `k × backoff`). Deterministic in *schedule*
    /// — how long is slept never influences any decision.
    pub backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 2,
            deadline: None,
            backoff: Duration::from_micros(100),
        }
    }
}

/// What the evaluator's memo cache is allowed to do with a recorded
/// outcome — the explicit form of the "wall-clock runners are never
/// memoized" rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoPolicy {
    /// Serve recorded outcomes verbatim. Sound only when trials are
    /// pure functions of `(config, n, seed)` — the virtual cost
    /// model.
    Replay,
    /// Never serve a recorded outcome: every request re-executes, so
    /// noisy (wall-clock) measurements are re-sampled rather than
    /// replayed. Replaying them would feed the comparator
    /// zero-variance copies of one measurement and turn one unlucky
    /// outlier into a permanent verdict.
    Resample,
}

impl MemoPolicy {
    /// The sound policy for a runner: [`MemoPolicy::Replay`] only when
    /// memoization was requested *and* the runner's trials are
    /// deterministic.
    pub fn for_runner(requested: bool, deterministic: bool) -> MemoPolicy {
        if requested && deterministic {
            MemoPolicy::Replay
        } else {
            MemoPolicy::Resample
        }
    }
}

/// One planned trial: a configuration to run at input size `n` with a
/// deterministic seed.
///
/// The configuration is shared (`Arc`) and its fingerprint is
/// computed once per plan, so a candidate's `min_trials` requests —
/// and `run_batch`'s internal bookkeeping — never re-clone or re-hash
/// the config.
#[derive(Debug, Clone)]
pub struct TrialRequest {
    config: Arc<Config>,
    fingerprint: u64,
    /// Input size.
    pub n: u64,
    /// Deterministic trial seed (derived from `n` and the trial
    /// index, shared across candidates).
    pub seed: u64,
}

impl TrialRequest {
    /// Plans one trial, fingerprinting the configuration.
    pub fn new(config: Arc<Config>, n: u64, seed: u64) -> Self {
        let fingerprint = config_fingerprint(&config);
        TrialRequest {
            config,
            fingerprint,
            n,
            seed,
        }
    }

    /// Plans a run of trials over `seeds` for one configuration,
    /// fingerprinting it once.
    pub fn batch_for(config: &Config, n: u64, seeds: impl Iterator<Item = u64>) -> Vec<Self> {
        let config = Arc::new(config.clone());
        let fingerprint = config_fingerprint(&config);
        seeds
            .map(|seed| TrialRequest {
                config: Arc::clone(&config),
                fingerprint,
                n,
                seed,
            })
            .collect()
    }

    /// The configuration to execute.
    pub fn config(&self) -> &Config {
        &self.config
    }
}

/// 64-bit FNV-1a over a configuration's canonical structure.
///
/// Canonical because [`Config`] stores its values in schema order; two
/// configurations reachable by different mutation paths but equal
/// value-for-value hash identically (the mutate-then-revert case).
/// Hashes the values directly — no serialization — because this runs
/// for every trial request and comparator draw.
pub fn config_fingerprint(config: &Config) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    // FNV-1a, one byte at a time, so every bit of `word` stirs.
    fn mix(hash: &mut u64, word: u64) {
        for shift in (0..64).step_by(8) {
            *hash ^= (word >> shift) & 0xFF;
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in config.transform().as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    for value in config.values() {
        match value {
            Value::Int(v) => {
                mix(&mut hash, 1);
                mix(&mut hash, *v as u64);
            }
            Value::Float(v) => {
                mix(&mut hash, 2);
                // `-0.0 == 0.0`: equal configs must fingerprint
                // identically, so normalize the sign of zero before
                // taking bits.
                let v = if *v == 0.0 { 0.0 } else { *v };
                mix(&mut hash, v.to_bits());
            }
            Value::Switch(v) => {
                mix(&mut hash, 3);
                mix(&mut hash, *v as u64);
            }
            Value::Tree(tree) => {
                mix(&mut hash, 4);
                mix(&mut hash, tree.top_choice() as u64);
                for level in tree.levels() {
                    mix(&mut hash, level.cutoff);
                    mix(&mut hash, level.choice as u64);
                }
            }
        }
    }
    hash
}

type CacheKey = (u64, u64, u64);

/// One memoized outcome, tagged with whether it was preloaded from a
/// cross-run sidecar (a *warm* entry) or produced in this run.
#[derive(Debug, Clone, Copy)]
struct CachedTrial {
    outcome: TrialOutcome,
    warm: bool,
}

/// The trial memo: `(config fingerprint, n, seed) → outcome`.
#[derive(Debug, Default)]
struct TrialCache {
    map: Mutex<HashMap<CacheKey, CachedTrial>>,
    hits: AtomicU64,
    /// Hits served by entries preloaded from a sidecar (cross-run
    /// reuse), counted separately from in-run hits.
    hits_warm: AtomicU64,
    misses: AtomicU64,
    /// Intra-batch duplicates: requests that shared another request's
    /// execution *within the same batch*. Not hits — nothing was in
    /// the cache when the batch was planned — and not misses — they
    /// did not execute a trial.
    coalesced: AtomicU64,
}

impl TrialCache {
    /// Counts one lookup hit against the right counter.
    fn count_hit(&self, cached: &CachedTrial) {
        if cached.warm {
            self.hits_warm.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// On-disk form of the trial memo: one sidecar per transform, keyed by
/// `(transform name, config fingerprint, n, seed)` and stamped with
/// the schema's fingerprint — a sidecar recorded against a different
/// tunable schema is rejected wholesale, since its config fingerprints
/// describe configurations of a different shape. The hashed `u64` keys
/// are stored as hex strings — they routinely exceed `i64::MAX`, which
/// JSON integers cannot carry losslessly.
#[derive(Debug, Serialize, Deserialize)]
struct SidecarFile {
    transform: String,
    schema: String,
    /// The pool thread budget the outcomes were measured under.
    /// Schedule-aware virtual cost models divide parallel work by
    /// `available_threads()`, so outcomes from a different budget are
    /// not comparable and the whole sidecar is rejected on mismatch.
    threads: usize,
    entries: Vec<SidecarEntry>,
}

/// FNV-1a over the schema's canonical serialized form: changes to the
/// tunable set, ranges, or defaults invalidate persisted sidecars.
/// (Changes to the transform's *implementation* cannot be detected
/// from here — delete the sidecar when the measured code changes.)
fn schema_fingerprint(schema: &pb_config::Schema) -> u64 {
    let canonical = serde_json::to_string(schema).expect("schemas serialize");
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in canonical.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One `(key, outcome)` pair of the sidecar.
#[derive(Debug, Serialize, Deserialize)]
struct SidecarEntry {
    fingerprint: String,
    n: u64,
    seed: String,
    time: f64,
    wall_seconds: f64,
    virtual_cost: f64,
    accuracy: f64,
}

/// Executes trials for the tuner: batched, optionally parallel,
/// optionally memoized.
///
/// Implements [`TrialRunner`] so existing demand-driven call sites
/// (the adaptive comparator, `ensure_tested`) transparently share the
/// cache.
pub struct Evaluator<'a> {
    runner: &'a dyn TrialRunner,
    mode: EvalMode,
    cache: Option<TrialCache>,
    /// Fault isolation policy applied around every trial execution.
    faults: FaultPolicy,
    /// Attempts that panicked (caught, never propagated).
    trial_panics: AtomicU64,
    /// Attempts that exceeded the soft deadline.
    trial_timeouts: AtomicU64,
    /// Attempts that reported a non-finite cost.
    trial_nonfinite: AtomicU64,
    /// Re-executions triggered by a faulting attempt.
    trial_retries: AtomicU64,
    /// Trials whose every attempt faulted: their outcome is the
    /// [`TrialOutcome::QUARANTINED`] sentinel.
    quarantined: AtomicU64,
    /// Pool batch traffic attributable to trial execution: the global
    /// pool's stats delta across every `execute`/single-trial window.
    /// Only the coordinator thread executes trials' windows, so the
    /// mutex is uncontended; in sequential mode the window also
    /// captures kernel batches the trials spawned at top level (the
    /// honest semantic: everything the pool did while trials ran).
    pool_trial: Mutex<PoolBatchStats>,
}

impl<'a> Evaluator<'a> {
    /// Wraps `runner`. `memoize` enables the trial cache — sound
    /// whenever trials are deterministic functions of
    /// `(config, n, seed)`, i.e. under the virtual cost model; disable
    /// it when tuning on wall-clock time, where repeated measurements
    /// genuinely differ. (The explicit form is
    /// [`Evaluator::with_memo_policy`].)
    pub fn new(runner: &'a dyn TrialRunner, mode: EvalMode, memoize: bool) -> Self {
        Self::with_memo_policy(
            runner,
            mode,
            if memoize {
                MemoPolicy::Replay
            } else {
                MemoPolicy::Resample
            },
        )
    }

    /// Wraps `runner` with an explicit cache policy; see
    /// [`MemoPolicy`] (and [`MemoPolicy::for_runner`] for the gate the
    /// tuner applies).
    pub fn with_memo_policy(runner: &'a dyn TrialRunner, mode: EvalMode, memo: MemoPolicy) -> Self {
        Evaluator {
            runner,
            mode,
            cache: (memo == MemoPolicy::Replay).then(TrialCache::default),
            faults: FaultPolicy::default(),
            trial_panics: AtomicU64::new(0),
            trial_timeouts: AtomicU64::new(0),
            trial_nonfinite: AtomicU64::new(0),
            trial_retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            pool_trial: Mutex::new(PoolBatchStats::default()),
        }
    }

    /// Replaces the fault isolation policy (builder-style).
    pub fn with_faults(mut self, faults: FaultPolicy) -> Self {
        self.faults = faults;
        self
    }

    /// The active execution mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// The active memoization policy.
    pub fn memo_policy(&self) -> MemoPolicy {
        if self.cache.is_some() {
            MemoPolicy::Replay
        } else {
            MemoPolicy::Resample
        }
    }

    /// The active fault isolation policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.faults
    }

    /// Trial attempts that panicked (caught and classified, never
    /// propagated to the pool or the tuning loop).
    pub fn trial_panics(&self) -> u64 {
        self.trial_panics.load(Ordering::Relaxed)
    }

    /// Trial attempts that exceeded [`FaultPolicy::deadline`].
    pub fn trial_timeouts(&self) -> u64 {
        self.trial_timeouts.load(Ordering::Relaxed)
    }

    /// Trial attempts that reported a non-finite cost.
    pub fn trial_nonfinite(&self) -> u64 {
        self.trial_nonfinite.load(Ordering::Relaxed)
    }

    /// Re-executions triggered by faulting attempts.
    pub fn trial_retries(&self) -> u64 {
        self.trial_retries.load(Ordering::Relaxed)
    }

    /// Trials that exhausted their retries and were recorded as
    /// [`TrialOutcome::QUARANTINED`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Accumulated pool batch traffic of this evaluator's trial
    /// execution windows (see the field docs). Subtracting it from a
    /// whole-run pool delta separates trial batches from the tuner's
    /// own kernel batches.
    pub fn pool_trial_stats(&self) -> PoolBatchStats {
        *self.pool_trial.lock().expect("pool stats poisoned")
    }

    /// Requests served from the cache without executing a trial
    /// (entries produced earlier in this run; warm sidecar entries are
    /// counted by [`Evaluator::cache_hits_warm`] instead).
    pub fn cache_hits(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.hits.load(Ordering::Relaxed))
    }

    /// Requests served by entries preloaded from a cross-run sidecar
    /// (see [`Evaluator::load_sidecar`]).
    pub fn cache_hits_warm(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.hits_warm.load(Ordering::Relaxed))
    }

    /// Requests that had to execute a trial.
    pub fn cache_misses(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.misses.load(Ordering::Relaxed))
    }

    /// Requests that duplicated another request in the same batch and
    /// shared its execution (neither a hit nor a miss).
    pub fn cache_coalesced(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.coalesced.load(Ordering::Relaxed))
    }

    /// Runs every request and returns outcomes in request order.
    ///
    /// Cache hits and duplicates *within* the batch (counted
    /// separately, as coalesced) never re-execute; the remaining
    /// unique trials run on the pool in parallel mode or in order in
    /// sequential mode. Identical results and identical final cache
    /// state either way.
    ///
    /// **Merge contract.** The pool may run the miss batch's trials on
    /// any thread in any order, but outcomes merge back strictly by
    /// request index below. That is what keeps decisions bit-identical
    /// between sequential and parallel mode and at any thread count:
    /// scheduling moves *where* a trial runs, never which outcome lands
    /// in which slot.
    pub fn run_batch(&self, requests: &[TrialRequest]) -> Vec<TrialOutcome> {
        let tracing = pb_trace::enabled();
        let (batch_seq, batch_start) = if tracing {
            (pb_trace::next_seq(), pb_trace::now_ns())
        } else {
            (0, 0)
        };
        let Some(cache) = &self.cache else {
            let outcomes = self.execute(requests);
            if tracing {
                pb_trace::record(Event::span(
                    EventKind::EvalBatch,
                    batch_seq,
                    0,
                    batch_start,
                    [requests.len() as u64, requests.len() as u64, 0, 0],
                ));
            }
            return outcomes;
        };

        let keys: Vec<CacheKey> = requests
            .iter()
            .map(|r| (r.fingerprint, r.n, r.seed))
            .collect();
        // Partition into already-cached slots and unique misses.
        let mut slots: Vec<Option<TrialOutcome>> = vec![None; requests.len()];
        // For non-cached requests: index into `miss_requests`.
        let mut pending: Vec<usize> = vec![usize::MAX; requests.len()];
        let mut miss_of_key: HashMap<CacheKey, usize> = HashMap::new();
        let mut miss_requests: Vec<TrialRequest> = Vec::new();
        let mut hits = 0;
        let mut hits_warm = 0;
        let mut coalesced = 0;
        {
            let map = cache.map.lock().expect("trial cache poisoned");
            for (i, (request, key)) in requests.iter().zip(&keys).enumerate() {
                if let Some(cached) = map.get(key) {
                    slots[i] = Some(cached.outcome);
                    if cached.warm {
                        hits_warm += 1;
                    } else {
                        hits += 1;
                    }
                } else if let Some(&mi) = miss_of_key.get(key) {
                    // Duplicate within the batch: executes once, but
                    // nothing was cached yet — count it as coalesced,
                    // not as a hit, so the reported hit rate reflects
                    // actual cache reuse.
                    pending[i] = mi;
                    coalesced += 1;
                } else {
                    let mi = miss_requests.len();
                    miss_of_key.insert(*key, mi);
                    miss_requests.push(request.clone());
                    pending[i] = mi;
                }
            }
        }
        cache.hits.fetch_add(hits, Ordering::Relaxed);
        cache.hits_warm.fetch_add(hits_warm, Ordering::Relaxed);
        cache.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        cache
            .misses
            .fetch_add(miss_requests.len() as u64, Ordering::Relaxed);

        let executed = self.execute(&miss_requests);
        if tracing {
            pb_trace::record(Event::span(
                EventKind::EvalBatch,
                batch_seq,
                0,
                batch_start,
                [
                    requests.len() as u64,
                    miss_requests.len() as u64,
                    hits + hits_warm,
                    coalesced,
                ],
            ));
        }
        {
            let mut map = cache.map.lock().expect("trial cache poisoned");
            for (key, &mi) in &miss_of_key {
                map.insert(
                    *key,
                    CachedTrial {
                        outcome: executed[mi],
                        warm: false,
                    },
                );
            }
        }

        slots
            .into_iter()
            .zip(pending)
            .map(|(slot, mi)| slot.unwrap_or_else(|| executed[mi]))
            .collect()
    }

    /// Executes every request (no cache involvement), parallel or
    /// sequential per the mode, windowing the pool's batch stats into
    /// [`Evaluator::pool_trial_stats`]. In parallel mode the request
    /// range fans out through `run_indexed`; each outcome is written to
    /// its request's index, so the result order is the request order.
    fn execute(&self, requests: &[TrialRequest]) -> Vec<TrialOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        let before = Pool::global().batch_stats();
        let trace_seq = if pb_trace::enabled() {
            pb_trace::next_seq()
        } else {
            0
        };
        let outcomes = match self.mode {
            EvalMode::Sequential => requests
                .iter()
                .enumerate()
                .map(|(i, r)| self.run_one(trace_seq, i, r))
                .collect(),
            // `parallel_gen` (not `parallel_map`) so each trial knows
            // its request index — the deterministic `idx` of its trace
            // event. Behaviorally identical: `parallel_map` is this
            // exact call.
            EvalMode::Parallel => match self.resample_waves(requests) {
                None => parallel_gen(requests.len(), 2, |i| {
                    self.run_one(trace_seq, i, &requests[i])
                }),
                Some(waves) => {
                    let mut ran: Vec<(usize, TrialOutcome)> = Vec::with_capacity(requests.len());
                    for wave in waves {
                        let outcomes = parallel_gen(wave.len(), 2, |j| {
                            self.run_one(trace_seq, wave[j], &requests[wave[j]])
                        });
                        ran.extend(wave.into_iter().zip(outcomes));
                    }
                    ran.sort_unstable_by_key(|&(i, _)| i);
                    ran.into_iter().map(|(_, outcome)| outcome).collect()
                }
            },
        };
        let delta = Pool::global().batch_stats().delta_since(&before);
        self.pool_trial
            .lock()
            .expect("pool stats poisoned")
            .absorb(&delta);
        outcomes
    }

    /// Without a cache, a batch may repeat a request, and a
    /// non-deterministic runner may answer each repeat differently in
    /// call order (a noisy runner numbers the re-samples of one
    /// coordinate). Sequential mode calls repeats in request order; to
    /// match it, parallel mode runs the `k`-th occurrence of every
    /// request in wave `k`, one wave after another. Returns the waves'
    /// request indices, or `None` when no request repeats (always the
    /// case with a cache, which coalesces repeats before execution).
    fn resample_waves(&self, requests: &[TrialRequest]) -> Option<Vec<Vec<usize>>> {
        if self.cache.is_some() {
            return None;
        }
        let mut seen: HashMap<CacheKey, usize> = HashMap::new();
        let mut waves: Vec<Vec<usize>> = vec![Vec::new()];
        for (i, r) in requests.iter().enumerate() {
            let occurrence = seen.entry((r.fingerprint, r.n, r.seed)).or_insert(0);
            if *occurrence == waves.len() {
                waves.push(Vec::new());
            }
            waves[*occurrence].push(i);
            *occurrence += 1;
        }
        (waves.len() > 1).then_some(waves)
    }

    /// Classifies a completed attempt: timed out, non-finite cost, or
    /// healthy (`None`).
    fn classify(&self, started: Option<Instant>, outcome: &TrialOutcome) -> Option<TrialError> {
        if let (Some(deadline), Some(started)) = (self.faults.deadline, started) {
            if started.elapsed() > deadline {
                return Some(TrialError::Timeout);
            }
        }
        if !outcome.time.is_finite() {
            return Some(TrialError::NonFinite);
        }
        None
    }

    /// Executes one trial attempt under full fault isolation: panics
    /// are caught (`catch_unwind` — the pool's unwind machinery never
    /// engages), soft-deadline overruns and non-finite costs are
    /// classified as [`TrialError`]s, and faulting attempts retry with
    /// deterministic linear backoff up to [`FaultPolicy::max_retries`]
    /// times. A trial whose every attempt faults is *quarantined*: its
    /// recorded outcome is the deterministic worst-cost sentinel
    /// [`TrialOutcome::QUARANTINED`], which loses every comparison and
    /// meets no accuracy target, so tournaments, arena contests, and
    /// merges degrade gracefully instead of aborting the run.
    fn guarded_run(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        let mut attempt: u32 = 0;
        loop {
            let started = self.faults.deadline.map(|_| Instant::now());
            let error =
                match catch_unwind(AssertUnwindSafe(|| self.runner.run_trial(config, n, seed))) {
                    Ok(outcome) => match self.classify(started, &outcome) {
                        None => return outcome,
                        Some(error) => error,
                    },
                    Err(_) => TrialError::Panic,
                };
            match error {
                TrialError::Panic => self.trial_panics.fetch_add(1, Ordering::Relaxed),
                TrialError::Timeout => self.trial_timeouts.fetch_add(1, Ordering::Relaxed),
                TrialError::NonFinite => self.trial_nonfinite.fetch_add(1, Ordering::Relaxed),
            };
            if attempt >= self.faults.max_retries {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                return TrialOutcome::QUARANTINED;
            }
            attempt += 1;
            self.trial_retries.fetch_add(1, Ordering::Relaxed);
            // Transient faults (a cold cache, a contended resource)
            // deserve breathing room; the schedule is a deterministic
            // function of the attempt number and never feeds back into
            // any decision.
            if !self.faults.backoff.is_zero() {
                std::thread::sleep(self.faults.backoff.saturating_mul(attempt));
            }
        }
    }

    /// Executes one demand-driven trial on the calling thread,
    /// windowing pool stats and tracing it like a one-request batch.
    fn run_single(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        let before = Pool::global().batch_stats();
        let trace_seq = if pb_trace::enabled() {
            pb_trace::next_seq()
        } else {
            0
        };
        let t0 = if trace_seq != 0 {
            pb_trace::now_ns()
        } else {
            0
        };
        let outcome = self.guarded_run(config, n, seed);
        if trace_seq != 0 {
            pb_trace::record(Event::span(
                EventKind::Trial,
                trace_seq,
                0,
                t0,
                [n, seed, outcome.virtual_cost as u64, 0],
            ));
        }
        let delta = Pool::global().batch_stats().delta_since(&before);
        self.pool_trial
            .lock()
            .expect("pool stats poisoned")
            .absorb(&delta);
        outcome
    }

    /// Runs one trial of a batch, tracing it when `trace_seq != 0`.
    fn run_one(&self, trace_seq: u64, index: usize, r: &TrialRequest) -> TrialOutcome {
        if trace_seq == 0 {
            return self.guarded_run(r.config(), r.n, r.seed);
        }
        let t0 = pb_trace::now_ns();
        let outcome = self.guarded_run(r.config(), r.n, r.seed);
        pb_trace::record(Event::span(
            EventKind::Trial,
            trace_seq,
            index as u64,
            t0,
            [r.n, r.seed, outcome.virtual_cost as u64, 0],
        ));
        outcome
    }

    /// Preloads the trial memo from a cross-run sidecar written by
    /// [`Evaluator::save_sidecar`], so a re-tuning run starts warm.
    /// Returns the number of entries loaded; 0 when the file is
    /// missing, malformed, recorded for a different transform, a
    /// different tunable schema, or a different pool thread budget
    /// (schedule-aware virtual costs embed it), or memoization is off
    /// — a cold start, never an error. Entries loaded here count their reuse
    /// as [`cache_hits_warm`](Evaluator::cache_hits_warm).
    ///
    /// Only sound when trials are deterministic functions of
    /// `(config, n, seed)` — the same condition as memoization
    /// itself; callers gate on [`TrialRunner::deterministic`]. A
    /// schema change invalidates the sidecar automatically; a change
    /// to the transform's *implementation* (or its cost model) does
    /// not alter the keys, so delete the sidecar when the measured
    /// code itself changes.
    pub fn load_sidecar(&self, path: &Path) -> usize {
        let Some(cache) = &self.cache else { return 0 };
        let Ok(text) = std::fs::read_to_string(path) else {
            return 0;
        };
        let file = match serde_json::from_str::<SidecarFile>(&text) {
            Ok(file) => file,
            Err(_) => {
                // A corrupted or truncated sidecar (a crashed writer
                // predating atomic renames, a bad disk, a manual edit)
                // must degrade to a cold start, not an aborted tuning
                // run — but silently ignoring real data loss helps
                // nobody, so say what happened (suppressible via
                // `PB_QUIET`).
                pb_runtime::diag_warn!(
                    "trial-cache sidecar {} is corrupted or truncated; starting cold",
                    path.display()
                );
                return 0;
            }
        };
        if file.transform != self.runner.name()
            || file.schema != format!("{:016x}", schema_fingerprint(self.runner.schema()))
            || file.threads != pb_runtime::parallel::available_threads()
        {
            return 0;
        }
        let mut map = cache.map.lock().expect("trial cache poisoned");
        let mut loaded = 0;
        for entry in file.entries {
            let (Ok(fingerprint), Ok(seed)) = (
                u64::from_str_radix(&entry.fingerprint, 16),
                u64::from_str_radix(&entry.seed, 16),
            ) else {
                continue;
            };
            let outcome = TrialOutcome {
                time: entry.time,
                wall_seconds: entry.wall_seconds,
                virtual_cost: entry.virtual_cost,
                accuracy: entry.accuracy,
            };
            if let std::collections::hash_map::Entry::Vacant(slot) =
                map.entry((fingerprint, entry.n, seed))
            {
                slot.insert(CachedTrial {
                    outcome,
                    warm: true,
                });
                loaded += 1;
            }
        }
        loaded
    }

    /// Writes the trial memo (warm and in-run entries alike) to
    /// `path` as a JSON sidecar keyed by
    /// `(transform name, config fingerprint, n, seed)`. A no-op when
    /// memoization is off. Entries with non-finite measurements are
    /// skipped — JSON cannot carry them losslessly.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the file.
    pub fn save_sidecar(&self, path: &Path) -> std::io::Result<()> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let mut entries: Vec<SidecarEntry> = {
            let map = cache.map.lock().expect("trial cache poisoned");
            map.iter()
                .filter(|(_, cached)| {
                    let o = &cached.outcome;
                    o.time.is_finite()
                        && o.wall_seconds.is_finite()
                        && o.virtual_cost.is_finite()
                        && o.accuracy.is_finite()
                })
                .map(|(&(fingerprint, n, seed), cached)| SidecarEntry {
                    fingerprint: format!("{fingerprint:016x}"),
                    n,
                    seed: format!("{seed:016x}"),
                    time: cached.outcome.time,
                    wall_seconds: cached.outcome.wall_seconds,
                    virtual_cost: cached.outcome.virtual_cost,
                    accuracy: cached.outcome.accuracy,
                })
                .collect()
        };
        // HashMap iteration order is arbitrary; sort so the sidecar is
        // byte-stable across runs with identical contents.
        entries.sort_by(|a, b| (&a.fingerprint, a.n, &a.seed).cmp(&(&b.fingerprint, b.n, &b.seed)));
        let file = SidecarFile {
            transform: self.runner.name().to_string(),
            schema: format!("{:016x}", schema_fingerprint(self.runner.schema())),
            threads: pb_runtime::parallel::available_threads(),
            entries,
        };
        let json = serde_json::to_string_pretty(&file)
            .expect("sidecar serialization cannot fail for finite entries");
        // Write-then-rename so an interrupted save (or two runs
        // sharing one path) can never leave a truncated sidecar: the
        // next load sees either the old file or the complete new one.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Mean accuracy of `config` over trials `0..trials` at size `n`
    /// (a batched replacement for probe candidates).
    pub fn mean_accuracy(&self, config: &Config, n: u64, trials: u64) -> f64 {
        let requests = TrialRequest::batch_for(
            config,
            n,
            (0..trials).map(|index| crate::candidate::trial_seed(n, index)),
        );
        let mut acc = OnlineStats::new();
        for outcome in self.run_batch(&requests) {
            acc.push(outcome.accuracy);
        }
        acc.mean()
    }
}

impl TrialRunner for Evaluator<'_> {
    fn name(&self) -> &str {
        self.runner.name()
    }

    fn schema(&self) -> &pb_config::Schema {
        self.runner.schema()
    }

    fn deterministic(&self) -> bool {
        self.runner.deterministic()
    }

    /// Single-trial execution: the fallback path for demand-driven
    /// draws. Served from the cache when possible; executes on the
    /// calling thread otherwise.
    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        let Some(cache) = &self.cache else {
            return self.run_single(config, n, seed);
        };
        let key = (config_fingerprint(config), n, seed);
        {
            let map = cache.map.lock().expect("trial cache poisoned");
            if let Some(cached) = map.get(&key) {
                cache.count_hit(cached);
                return cached.outcome;
            }
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = self.run_single(config, n, seed);
        cache.map.lock().expect("trial cache poisoned").insert(
            key,
            CachedTrial {
                outcome,
                warm: false,
            },
        );
        outcome
    }

    /// Traced runs are never cached (the trace is not memoized).
    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.runner.run_traced(config, n, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::trial_seed;
    use pb_config::{Schema, Value};
    use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
    use rand::rngs::SmallRng;

    struct Linear;

    impl Transform for Linear {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "linear"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("linear");
            s.add_accuracy_variable("v", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            let v = ctx.param("v").unwrap() as f64;
            ctx.charge(v * ctx.size() as f64);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            0.5
        }
    }

    fn request(config: &Config, n: u64, index: u64) -> TrialRequest {
        TrialRequest::new(Arc::new(config.clone()), n, trial_seed(n, index))
    }

    #[test]
    fn duplicate_config_hits_the_cache() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 1)];
        let first = eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 2);
        assert_eq!(eval.cache_hits(), 0);
        // A duplicate candidate re-requests the exact same trials.
        let second = eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 2, "no re-execution");
        assert_eq!(eval.cache_hits(), 2);
        assert_eq!(first, second);
    }

    #[test]
    fn duplicates_within_one_batch_execute_once() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let reqs = vec![
            request(&config, 8, 0),
            request(&config, 8, 0),
            request(&config, 8, 0),
        ];
        let out = eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 1);
        assert_eq!(
            eval.cache_hits(),
            0,
            "nothing was cached when the batch was planned"
        );
        assert_eq!(eval.cache_coalesced(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        // Re-running the same batch *is* cache reuse: all three hit.
        eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 1);
        assert_eq!(eval.cache_hits(), 3);
        assert_eq!(eval.cache_coalesced(), 2);
    }

    #[test]
    fn negative_zero_fingerprints_like_positive_zero() {
        let mut schema = Schema::new("zeroes");
        schema.add_float_param("f", -1.0, 1.0);
        let mut pos = schema.default_config();
        pos.set_by_name(&schema, "f", Value::Float(0.0)).unwrap();
        let mut neg = schema.default_config();
        neg.set_by_name(&schema, "f", Value::Float(-0.0)).unwrap();
        // The configs are equal …
        assert_eq!(pos, neg);
        // … so they must hit the same memo entry.
        assert_eq!(config_fingerprint(&pos), config_fingerprint(&neg));
        // A genuinely different float still fingerprints differently.
        let mut other = schema.default_config();
        other.set_by_name(&schema, "f", Value::Float(0.5)).unwrap();
        assert_ne!(config_fingerprint(&pos), config_fingerprint(&other));
    }

    #[test]
    fn mutation_changes_the_fingerprint() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let schema = runner.schema();
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let base = schema.default_config();
        eval.run_batch(&[request(&base, 8, 0)]);
        assert_eq!(eval.cache_misses(), 1);
        // A mutated config misses …
        let mut mutated = base.clone();
        mutated.set_by_name(schema, "v", Value::Int(7)).unwrap();
        assert_ne!(config_fingerprint(&base), config_fingerprint(&mutated));
        eval.run_batch(&[request(&mutated, 8, 0)]);
        assert_eq!(eval.cache_misses(), 2);
        // … but reverting the mutation hits again.
        let mut reverted = mutated.clone();
        reverted.set_by_name(schema, "v", Value::Int(1)).unwrap();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&reverted));
        eval.run_batch(&[request(&reverted, 8, 0)]);
        assert_eq!(eval.cache_misses(), 2);
        assert_eq!(eval.cache_hits(), 1);
    }

    #[test]
    fn demand_driven_single_trials_share_the_cache() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        eval.run_batch(&[request(&config, 16, 0)]);
        // The comparator-style single draw for the same trial hits.
        let outcome = eval.run_trial(&config, 16, trial_seed(16, 0));
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(outcome.time, 16.0);
    }

    #[test]
    fn memoization_can_be_disabled() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, false);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 0)];
        eval.run_batch(&reqs);
        eval.run_batch(&reqs);
        assert_eq!(eval.cache_hits(), 0);
        assert_eq!(eval.cache_misses(), 0);
    }

    /// A wall-clock-style runner whose answer is how many times the
    /// same `(n, seed)` was asked before: repeats differ, in call order.
    struct Resampling {
        schema: Schema,
        calls: Mutex<HashMap<(u64, u64), u64>>,
    }

    impl TrialRunner for Resampling {
        fn name(&self) -> &str {
            "resampling"
        }
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn run_trial(&self, _config: &Config, n: u64, seed: u64) -> TrialOutcome {
            // Widen the window in which repeats could overlap.
            std::thread::sleep(Duration::from_micros(200));
            let mut calls = self.calls.lock().unwrap();
            let count = calls.entry((n, seed)).or_insert(0);
            *count += 1;
            TrialOutcome {
                time: *count as f64,
                wall_seconds: 0.0,
                virtual_cost: 0.0,
                accuracy: 0.5,
            }
        }
        fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
            (self.run_trial(config, n, seed), TraceNode::default())
        }
    }

    #[test]
    fn parallel_resampling_matches_sequential_call_order() {
        let schema = Linear.schema();
        let config = schema.default_config();
        // Three distinct trials, each repeated eight times, interleaved.
        let reqs: Vec<TrialRequest> = (0..24).map(|i| request(&config, 8, i % 3)).collect();
        let run = |mode| {
            let runner = Resampling {
                schema: schema.clone(),
                calls: Mutex::new(HashMap::new()),
            };
            Evaluator::new(&runner, mode, false).run_batch(&reqs)
        };
        let sequential = run(EvalMode::Sequential);
        let times: Vec<f64> = sequential.iter().map(|o| o.time).collect();
        let expected: Vec<f64> = (0..24).map(|i| (i / 3 + 1) as f64).collect();
        assert_eq!(times, expected, "the k-th repeat sees k earlier calls");
        assert_eq!(run(EvalMode::Parallel), sequential);
    }

    #[test]
    fn sidecar_round_trips_the_memo() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 1)];
        let first = eval.run_batch(&reqs);
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_roundtrip_{}.json", std::process::id()));
        eval.save_sidecar(&path).unwrap();

        // A fresh evaluator preloads the sidecar and serves the same
        // requests without executing anything — counted as warm hits,
        // separate from in-run hits.
        let warm = Evaluator::new(&runner, EvalMode::Sequential, true);
        assert_eq!(warm.load_sidecar(&path), 2);
        let second = warm.run_batch(&reqs);
        assert_eq!(first, second);
        assert_eq!(warm.cache_misses(), 0);
        assert_eq!(warm.cache_hits(), 0);
        assert_eq!(warm.cache_hits_warm(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sidecar_is_keyed_by_transform_name() {
        struct Renamed;
        impl Transform for Renamed {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "renamed"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("renamed");
                s.add_accuracy_variable("v", 1, 100);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                ctx.charge(1.0);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        eval.run_batch(&[request(&config, 8, 0)]);
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_transform_{}.json", std::process::id()));
        eval.save_sidecar(&path).unwrap();
        // Another transform's evaluator must not warm from it.
        let other_runner = TransformRunner::new(Renamed, CostModel::Virtual);
        let other = Evaluator::new(&other_runner, EvalMode::Sequential, true);
        assert_eq!(other.load_sidecar(&path), 0);
        // Same transform name but a changed tunable schema: the stale
        // measurements describe configurations of a different shape
        // and must be rejected wholesale.
        struct LinearWider;
        impl Transform for LinearWider {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "linear"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("linear");
                s.add_accuracy_variable("v", 1, 200);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                ctx.charge(1.0);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let wider_runner = TransformRunner::new(LinearWider, CostModel::Virtual);
        let wider = Evaluator::new(&wider_runner, EvalMode::Sequential, true);
        assert_eq!(wider.load_sidecar(&path), 0);
        // A different pool thread budget: schedule-aware virtual costs
        // divide by it, so the recorded outcomes are not comparable.
        let threads = pb_runtime::parallel::available_threads();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace(
            &format!("\"threads\": {threads}"),
            &format!("\"threads\": {}", threads + 1),
        );
        assert_ne!(text, tampered, "threads field must be present");
        std::fs::write(&path, tampered).unwrap();
        let same = Evaluator::new(&runner, EvalMode::Sequential, true);
        assert_eq!(same.load_sidecar(&path), 0);
        // A missing file and a disabled cache are cold starts, not
        // errors.
        let _ = std::fs::remove_file(&path);
        assert_eq!(eval.load_sidecar(&path), 0);
        let uncached = Evaluator::new(&runner, EvalMode::Sequential, false);
        assert_eq!(uncached.load_sidecar(&path), 0);
    }

    /// Panics while fewer than `fail_first` calls have been made, then
    /// behaves like `Linear`. `&self`-mutable via an atomic so the
    /// object-safe `Transform` interface stays untouched.
    struct Flaky {
        fail_first: u64,
        calls: AtomicU64,
    }

    impl Flaky {
        fn new(fail_first: u64) -> Self {
            Flaky {
                fail_first,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Transform for Flaky {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "flaky"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("flaky");
            s.add_accuracy_variable("v", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                panic!("injected trial panic (test)");
            }
            ctx.charge(ctx.size() as f64);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            0.5
        }
    }

    fn quiet_faults(max_retries: u32) -> FaultPolicy {
        FaultPolicy {
            max_retries,
            deadline: None,
            backoff: Duration::ZERO,
        }
    }

    #[test]
    fn transient_panic_recovers_after_retry() {
        let runner = TransformRunner::new(Flaky::new(1), CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true).with_faults(quiet_faults(2));
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(out[0].time, 8.0, "the retry produced a healthy outcome");
        assert_eq!(eval.trial_panics(), 1);
        assert_eq!(eval.trial_retries(), 1);
        assert_eq!(eval.quarantined(), 0);
        // The healthy (post-retry) outcome is what got memoized.
        let again = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(again[0], out[0]);
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(eval.trial_panics(), 1, "no re-execution, no new faults");
    }

    #[test]
    fn exhausted_retries_quarantine_with_the_sentinel() {
        let runner = TransformRunner::new(Flaky::new(u64::MAX), CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true).with_faults(quiet_faults(2));
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert!(out[0].is_quarantined());
        assert_eq!(eval.trial_panics(), 3, "initial attempt + two retries");
        assert_eq!(eval.trial_retries(), 2);
        assert_eq!(eval.quarantined(), 1);
        // The sentinel is non-finite, so a sidecar save skips it.
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_quarantine_{}.json", std::process::id()));
        eval.save_sidecar(&path).unwrap();
        let warm = Evaluator::new(&runner, EvalMode::Sequential, true);
        assert_eq!(warm.load_sidecar(&path), 0, "sentinels never persist");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_costs_are_classified_and_quarantined() {
        struct NanCost;
        impl Transform for NanCost {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "nan_cost"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("nan_cost");
                s.add_accuracy_variable("v", 1, 100);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                ctx.charge(f64::NAN);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let runner = TransformRunner::new(NanCost, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true).with_faults(quiet_faults(1));
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert!(out[0].is_quarantined());
        assert_eq!(eval.trial_nonfinite(), 2);
        assert_eq!(eval.trial_panics(), 0);
        assert_eq!(eval.quarantined(), 1);
    }

    #[test]
    fn slow_trials_trip_the_soft_deadline() {
        struct Slow;
        impl Transform for Slow {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "slow"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("slow");
                s.add_accuracy_variable("v", 1, 100);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                std::thread::sleep(Duration::from_millis(5));
                ctx.charge(1.0);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let runner = TransformRunner::new(Slow, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true).with_faults(FaultPolicy {
            max_retries: 1,
            deadline: Some(Duration::from_micros(100)),
            backoff: Duration::ZERO,
        });
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert!(
            out[0].is_quarantined(),
            "every attempt overran the deadline"
        );
        assert_eq!(eval.trial_timeouts(), 2);
        assert_eq!(eval.quarantined(), 1);
    }

    #[test]
    fn memo_policy_gate_replays_only_deterministic_runners() {
        assert_eq!(MemoPolicy::for_runner(true, true), MemoPolicy::Replay);
        assert_eq!(MemoPolicy::for_runner(true, false), MemoPolicy::Resample);
        assert_eq!(MemoPolicy::for_runner(false, true), MemoPolicy::Resample);
        assert_eq!(MemoPolicy::for_runner(false, false), MemoPolicy::Resample);
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::with_memo_policy(&runner, EvalMode::Sequential, MemoPolicy::Replay);
        assert_eq!(eval.memo_policy(), MemoPolicy::Replay);
        let eval = Evaluator::with_memo_policy(&runner, EvalMode::Sequential, MemoPolicy::Resample);
        assert_eq!(eval.memo_policy(), MemoPolicy::Resample);
    }

    #[test]
    fn wall_clock_trials_resample_through_the_evaluator() {
        // The wall-clock satellite: real measurements flow through
        // `run_batch`/`run_trial` under `MemoPolicy::Resample`, every
        // request re-executes, and outcomes stay finite.
        let runner = TransformRunner::new(Linear, CostModel::WallClock);
        let memo = MemoPolicy::for_runner(true, runner.deterministic());
        assert_eq!(memo, MemoPolicy::Resample);
        let eval = Evaluator::with_memo_policy(&runner, EvalMode::Sequential, memo);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 0)];
        for outcome in eval.run_batch(&reqs) {
            assert!(outcome.time.is_finite());
            assert_eq!(outcome.time, outcome.wall_seconds);
        }
        // Demand-driven draws re-execute too: no hits, no misses
        // counted (there is no cache at all).
        let _ = eval.run_trial(&config, 8, trial_seed(8, 0));
        assert_eq!(eval.cache_hits(), 0);
        assert_eq!(eval.cache_misses(), 0);
        assert_eq!(eval.quarantined(), 0);
    }

    #[test]
    fn corrupted_sidecar_starts_cold() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_corrupt_{}.json", std::process::id()));
        // Truncated JSON — the classic torn write.
        std::fs::write(&path, "{\"transform\": \"linear\", \"entr").unwrap();
        assert_eq!(eval.load_sidecar(&path), 0);
        // The evaluator is fully usable afterwards.
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(out[0].time, 8.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let config = runner.schema().default_config();
        let reqs: Vec<TrialRequest> = (0..64).map(|i| request(&config, 32, i)).collect();
        let seq = Evaluator::new(&runner, EvalMode::Sequential, true).run_batch(&reqs);
        let par = Evaluator::new(&runner, EvalMode::Parallel, true).run_batch(&reqs);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            // `wall_seconds` is a real clock measurement and differs
            // run to run even sequentially; everything the tuner
            // consumes must agree bitwise.
            assert_eq!(s.time, p.time);
            assert_eq!(s.virtual_cost, p.virtual_cost);
            assert_eq!(s.accuracy, p.accuracy);
        }
    }
}
