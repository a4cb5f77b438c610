//! # dta-serve — content-addressed simulation service
//!
//! The simulator is deterministic: a [`SimJob`] value maps to exactly
//! one [`JobResult`], bit for bit. This crate exploits that by putting a
//! service boundary in front of `dta_core::run_job`:
//!
//! * **Job queue** — [`Service::submit`] for single jobs,
//!   [`Service::run_grid`] for sweep grids (scheduled onto the
//!   `--sweep-threads` work-stealing pool, [`pool::par_map_with`]);
//! * **Result cache** — in-memory LRU plus an optional on-disk store of
//!   canonical-JSON results keyed by [`JobKey`] ([`cache`]);
//! * **In-flight dedup** — identical jobs submitted concurrently
//!   simulate once; followers block on the leader's flight and receive
//!   the same `Arc`'d result, observability stream included
//!   ([`JobOutput::obs`]), so every subscriber of one key reads the
//!   same records (the dedup suite pins this).
//!
//! ## Supervision (host-fault model)
//!
//! The service stays up when an individual run does not:
//!
//! * **Panic isolation** — leaders execute under `catch_unwind`; a
//!   panicking run becomes a typed [`JobError::HostPanic`] completion
//!   instead of tearing down the submitter, the batch, or a lock.
//! * **Leader failover** — when a leader's attempt panics, the waiting
//!   subscriber with the lowest ticket (arrival order — deterministic)
//!   is elected to re-run the job, with bounded attempts and
//!   exponential backoff between them. When nobody is waiting, the
//!   original submitter retries itself under the same budget.
//! * **Wait watchdog** — flight waiting uses `Condvar::wait_timeout`;
//!   a submitter whose leader neither finishes nor fails within
//!   [`ServiceConfig::wait_watchdog`] resolves to a typed
//!   [`JobError::Timeout`] instead of hanging forever.
//! * **Deadlines** — a per-job wall-clock budget
//!   ([`ServiceConfig::deadline`], overridable per submission) runs the
//!   job on a supervised executor thread; on expiry the submitter gets
//!   a typed [`JobError::Timeout`] while `max_cycles` remains the
//!   *deterministic* backstop. If the abandoned run later completes
//!   deterministically, its result is still banked in the cache.
//! * **Admission control** — at most [`ServiceConfig::max_running`]
//!   executions run concurrently; beyond that leaders wait in a bounded
//!   queue ([`ServiceConfig::max_queued`]) and past *that* the job is
//!   shed with a typed [`JobError::Overloaded`] instead of blocking
//!   unboundedly.
//!
//! Host-side outcomes (panics, timeouts, shed load) are **never
//! cached** — only deterministic results are content-addressable — and
//! corrupt disk entries are quarantined and re-simulated while real
//! I/O failures degrade the service to memory-only operation
//! ([`cache::DiskStore`]). [`Service::health`] exposes the supervision
//! counters.
//!
//! Wall-clock time is measured *around* the cache (`Completion::wall_ms`)
//! and never stored inside a result, so cached and fresh results stay
//! byte-identical while warm-vs-cold timing remains visible to callers.

use dta_core::{run_job, JobResult, SimJob, JOB_FORMAT_VERSION};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub mod cache;
pub mod pool;

// Re-exported so thin clients need only a `dta-serve` dependency to
// build jobs and consume results.
pub use dta_core::{JobError, JobKey, JobOutput, SimJob as Job};

use cache::{DiskStore, Load, LruCache};

/// How a submission was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheStatus {
    /// Simulated by this submission (the leader).
    Miss,
    /// Served from the in-memory LRU.
    Memory,
    /// Served from the on-disk store (and promoted to memory).
    Disk,
    /// Coalesced onto an identical in-flight job; no simulation ran for
    /// this submission.
    Coalesced,
}

impl CacheStatus {
    /// Did this submission avoid a simulation of its own?
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheStatus::Miss)
    }

    /// Stable label for reports (`BENCH_*.json`).
    pub fn label(&self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Memory => "memory",
            CacheStatus::Disk => "disk",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

/// One satisfied submission.
pub struct Completion {
    /// The job's result (shared with the cache and with coalesced
    /// submitters). Host-side outcomes (panic / timeout / overload)
    /// arrive here as typed errors but are never cached.
    pub result: Arc<JobResult>,
    /// How it was satisfied.
    pub status: CacheStatus,
    /// Wall-clock milliseconds from submission to delivery — simulation
    /// time for a leader, lookup time for a hit, wait time for a
    /// coalesced follower.
    pub wall_ms: f64,
}

/// Monotonic service counters (snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted (every `submit*` call).
    pub submitted: u64,
    /// Execution attempts started — the executor run count the dedup
    /// suite asserts on (equals jobs simulated when nothing panics).
    pub executed: u64,
    /// Submissions served from the in-memory LRU.
    pub hits_memory: u64,
    /// Submissions served from the on-disk store.
    pub hits_disk: u64,
    /// Submissions coalesced onto an in-flight identical job.
    pub coalesced: u64,
}

impl ServiceStats {
    /// Fraction of submissions that avoided a simulation.
    pub fn hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.hits_memory + self.hits_disk + self.coalesced) as f64 / self.submitted as f64
    }
}

/// Supervision counters (snapshot) — the host-fault ledger surfaced in
/// `BENCH_serve.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Execution attempts started (same counter as
    /// [`ServiceStats::executed`]).
    pub executions: u64,
    /// Submissions coalesced onto an in-flight identical job.
    pub coalesced_waits: u64,
    /// Re-executions after a panicking attempt (leader failover).
    pub retries: u64,
    /// Panicking execution attempts caught and isolated.
    pub host_panics: u64,
    /// Jobs that exceeded their wall-clock deadline.
    pub timeouts: u64,
    /// Waiters released by the in-flight wait watchdog.
    pub watchdog_trips: u64,
    /// Jobs shed at admission with [`JobError::Overloaded`].
    pub sheds: u64,
    /// Corrupt disk entries quarantined (then re-simulated).
    pub quarantines: u64,
    /// Real disk I/O failures observed.
    pub disk_errors: u64,
    /// Deterministic results banked by an execution its submitter had
    /// already abandoned (deadline expiry).
    pub late_results: u64,
    /// Whether the disk store has been disabled (memory-only mode)
    /// after an I/O failure.
    pub disk_degraded: bool,
}

impl ServiceHealth {
    /// JSON form for `BENCH_serve.json` (declaration order).
    pub fn to_json(&self) -> dta_json::Json {
        use dta_json::{u64_json, Json};
        Json::obj([
            ("executions", u64_json(self.executions)),
            ("coalesced_waits", u64_json(self.coalesced_waits)),
            ("retries", u64_json(self.retries)),
            ("host_panics", u64_json(self.host_panics)),
            ("timeouts", u64_json(self.timeouts)),
            ("watchdog_trips", u64_json(self.watchdog_trips)),
            ("sheds", u64_json(self.sheds)),
            ("quarantines", u64_json(self.quarantines)),
            ("disk_errors", u64_json(self.disk_errors)),
            ("late_results", u64_json(self.late_results)),
            ("disk_degraded", Json::Bool(self.disk_degraded)),
        ])
    }
}

/// The execution function a service runs jobs through. Defaults to
/// [`dta_core::run_job`]; injectable via [`ServiceConfig::runner`] so
/// the chaos suite (and, later, remote executors) can wrap or replace
/// the simulator.
pub type Runner = dyn Fn(&SimJob) -> JobResult + Send + Sync;

/// Service construction knobs.
pub struct ServiceConfig {
    /// Batch-executor workers for [`Service::run_grid`] (the
    /// `--sweep-threads` value; 1 = sequential).
    pub threads: usize,
    /// In-memory LRU capacity, in results.
    pub memory_capacity: usize,
    /// Root of the on-disk store (`None` = memory only).
    pub disk_dir: Option<std::path::PathBuf>,
    /// Default per-job wall-clock budget (`None` = no deadline). The
    /// deterministic backstop remains the job's own `max_cycles`.
    pub deadline: Option<Duration>,
    /// Upper bound on any single submission's wait — for a flight
    /// leader to finish, or for an admission slot. Generous by default
    /// (5 minutes); it exists so no submitter can hang forever.
    pub wait_watchdog: Duration,
    /// Execution attempts per flight before a panicking job is given up
    /// as [`JobError::HostPanic`] (min 1).
    pub max_attempts: u32,
    /// Backoff before retry attempt *n* is `retry_backoff · 2^(n-2)`.
    pub retry_backoff: Duration,
    /// Concurrent executions admitted (0 = derive `max(2·threads, 8)`).
    pub max_running: usize,
    /// Leaders waiting for an execution slot beyond `max_running`;
    /// past this bound submissions shed with [`JobError::Overloaded`].
    pub max_queued: usize,
    /// Execution function override (`None` = the real simulator).
    pub runner: Option<Arc<Runner>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 1,
            memory_capacity: 512,
            disk_dir: None,
            deadline: None,
            wait_watchdog: Duration::from_secs(300),
            max_attempts: 3,
            retry_backoff: Duration::from_millis(10),
            max_running: 0,
            max_queued: 256,
            runner: None,
        }
    }
}

/// Locks a mutex, recovering from poisoning. No service lock is ever
/// held across job execution (the only code that can panic), so
/// poisoning is unreachable in practice — but supervision code must not
/// turn a caught panic into a poisoned-lock cascade.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A leader's promise to concurrent submitters of the same key, plus
/// the failover-election state.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Default)]
struct FlightState {
    /// The final answer, once some attempt produced one.
    done: Option<Arc<JobResult>>,
    /// Set when the current leader's attempt panicked and a successor
    /// must take over.
    needs_leader: bool,
    /// Execution attempts started for this flight.
    attempts: u32,
    /// Rendered payload of the most recent panic.
    last_panic: String,
    /// The currently waiting subscribers' tickets, in arrival order. On
    /// failover the *lowest* waiting ticket is elected — a rule that is
    /// deterministic given the arrival order.
    waiters: BTreeSet<u64>,
    next_ticket: u64,
}

impl Flight {
    fn leading() -> Arc<Flight> {
        let flight = Flight {
            state: Mutex::new(FlightState::default()),
            cv: Condvar::new(),
        };
        lock(&flight.state).attempts = 1;
        Arc::new(flight)
    }

    fn fulfil(&self, result: Arc<JobResult>) {
        lock(&self.state).done = Some(result);
        self.cv.notify_all();
    }
}

/// How a stint in [`Inner::wait_on_flight`] ended.
enum Waited {
    /// Some attempt finished; here is the shared result.
    Done(Arc<JobResult>),
    /// The previous leader panicked and *this* waiter has been elected
    /// to run attempt number `.0`.
    Lead(u32),
    /// The wait watchdog expired with the flight still unresolved.
    WatchdogExpired,
}

/// Cache and in-flight set behind ONE mutex: the hit check, the
/// coalesce check, and the leader election happen atomically, so two
/// concurrent submissions of one key can never both become leaders
/// (which would double-simulate and break the executor run-count
/// guarantee).
struct Registry {
    cache: LruCache,
    inflight: HashMap<u128, Arc<Flight>>,
}

enum Plan {
    Hit(Arc<JobResult>, CacheStatus),
    Wait(Arc<Flight>),
    Lead(Arc<Flight>),
}

/// Admission book-keeping: executions running, leaders queued.
#[derive(Default)]
struct Admission {
    running: usize,
    queued: usize,
}

enum Admit {
    Run,
    Shed { queued: u64, limit: u64 },
}

/// How one execution attempt ended.
enum Exec {
    Done(Arc<JobResult>),
    TimedOut(Duration),
    Panicked(String),
}

struct Inner {
    threads: usize,
    registry: Mutex<Registry>,
    disk: Option<DiskStore>,
    disk_degraded: AtomicBool,
    runner: Arc<Runner>,
    deadline: Option<Duration>,
    wait_watchdog: Duration,
    max_attempts: u32,
    retry_backoff: Duration,
    max_running: usize,
    max_queued: usize,
    admission: Mutex<Admission>,
    admission_cv: Condvar,
    submitted: AtomicU64,
    executed: AtomicU64,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    coalesced: AtomicU64,
    retries: AtomicU64,
    host_panics: AtomicU64,
    timeouts: AtomicU64,
    watchdog_trips: AtomicU64,
    sheds: AtomicU64,
    quarantines: AtomicU64,
    disk_errors: AtomicU64,
    late_results: AtomicU64,
}

/// The simulation service. `Sync`: share one instance (e.g. behind a
/// `OnceLock`) across every sweep in a process to deduplicate work
/// globally.
pub struct Service {
    inner: Arc<Inner>,
}

/// Builds a host-side completion result (never cached).
fn host_result(key: JobKey, err: JobError) -> Arc<JobResult> {
    Arc::new(JobResult {
        format: JOB_FORMAT_VERSION,
        key,
        outcome: Err(err),
    })
}

impl Service {
    /// Builds a service. Disk-store creation failures degrade to a
    /// memory-only service (the cache is an optimisation, never a
    /// correctness dependency); the error is counted and reported on
    /// stderr.
    pub fn new(config: ServiceConfig) -> Service {
        let mut disk_errors = 0;
        let disk = config.disk_dir.as_deref().and_then(|dir| {
            DiskStore::new(dir)
                .map_err(|e| {
                    disk_errors = 1;
                    eprintln!("dta-serve: disk cache at {} disabled: {e}", dir.display());
                })
                .ok()
        });
        let threads = config.threads.max(1);
        let max_running = if config.max_running == 0 {
            (threads * 2).max(8)
        } else {
            config.max_running
        };
        Service {
            inner: Arc::new(Inner {
                threads,
                registry: Mutex::new(Registry {
                    cache: LruCache::new(config.memory_capacity),
                    inflight: HashMap::new(),
                }),
                disk,
                disk_degraded: AtomicBool::new(false),
                runner: config.runner.unwrap_or_else(|| Arc::new(run_job)),
                deadline: config.deadline,
                wait_watchdog: config.wait_watchdog,
                max_attempts: config.max_attempts.max(1),
                retry_backoff: config.retry_backoff,
                max_running,
                max_queued: config.max_queued,
                admission: Mutex::new(Admission::default()),
                admission_cv: Condvar::new(),
                submitted: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                hits_memory: AtomicU64::new(0),
                hits_disk: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                host_panics: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                watchdog_trips: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                quarantines: AtomicU64::new(0),
                disk_errors: AtomicU64::new(disk_errors),
                late_results: AtomicU64::new(0),
            }),
        }
    }

    /// A memory-only service with default capacity.
    pub fn in_memory(threads: usize) -> Service {
        Service::new(ServiceConfig {
            threads,
            ..ServiceConfig::default()
        })
    }

    /// A service with an on-disk store at `dir`.
    pub fn with_disk(threads: usize, dir: &Path) -> Service {
        Service::new(ServiceConfig {
            threads,
            disk_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        })
    }

    /// Batch-executor worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let i = &self.inner;
        ServiceStats {
            submitted: i.submitted.load(Ordering::Relaxed),
            executed: i.executed.load(Ordering::Relaxed),
            hits_memory: i.hits_memory.load(Ordering::Relaxed),
            hits_disk: i.hits_disk.load(Ordering::Relaxed),
            coalesced: i.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Supervision-counter snapshot.
    pub fn health(&self) -> ServiceHealth {
        let i = &self.inner;
        ServiceHealth {
            executions: i.executed.load(Ordering::Relaxed),
            coalesced_waits: i.coalesced.load(Ordering::Relaxed),
            retries: i.retries.load(Ordering::Relaxed),
            host_panics: i.host_panics.load(Ordering::Relaxed),
            timeouts: i.timeouts.load(Ordering::Relaxed),
            watchdog_trips: i.watchdog_trips.load(Ordering::Relaxed),
            sheds: i.sheds.load(Ordering::Relaxed),
            quarantines: i.quarantines.load(Ordering::Relaxed),
            disk_errors: i.disk_errors.load(Ordering::Relaxed),
            late_results: i.late_results.load(Ordering::Relaxed),
            disk_degraded: i.disk_degraded.load(Ordering::Relaxed),
        }
    }

    /// Submits one job under the service-default deadline.
    pub fn submit(&self, job: &SimJob) -> Completion {
        self.inner.submit_full(job, self.inner.deadline)
    }

    /// Submits one job with an explicit wall-clock budget (`None`
    /// disables the deadline for this submission regardless of the
    /// service default).
    pub fn submit_with_deadline(&self, job: &SimJob, deadline: Option<Duration>) -> Completion {
        self.inner.submit_full(job, deadline)
    }

    /// Runs a sweep grid on the batch-executor pool, returning
    /// completions in grid order. Duplicate points inside one grid
    /// simulate once (dedup applies within a grid exactly as across
    /// submissions), and a panicking point resolves to a typed
    /// [`JobError::HostPanic`] completion while the rest of the batch
    /// completes.
    pub fn run_grid(&self, jobs: &[SimJob]) -> Vec<Completion> {
        let outcomes = pool::try_par_map_with(self.inner.threads, jobs, |job| self.submit(job));
        jobs.iter()
            .zip(outcomes)
            .map(|(job, outcome)| match outcome {
                Ok(done) => done,
                // `submit` already isolates execution panics; reaching
                // this arm means the service machinery itself panicked.
                // Still: per-item typed failure, not a dead batch.
                Err(message) => Completion {
                    result: host_result(
                        job.key(),
                        JobError::HostPanic {
                            message,
                            attempts: 1,
                        },
                    ),
                    status: CacheStatus::Miss,
                    wall_ms: 0.0,
                },
            })
            .collect()
    }
}

impl Inner {
    fn submit_full(self: &Arc<Self>, job: &SimJob, deadline: Option<Duration>) -> Completion {
        let start = Instant::now();
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let key = job.key();

        let plan = {
            let mut reg = lock(&self.registry);
            if let Some(hit) = reg.cache.get(key) {
                self.hits_memory.fetch_add(1, Ordering::Relaxed);
                Plan::Hit(hit, CacheStatus::Memory)
            } else if let Some(flight) = reg.inflight.get(&key.0) {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Plan::Wait(Arc::clone(flight))
            } else if let Some(loaded) = self.disk_load(key) {
                // Rare (once per key per process) and cheap relative to a
                // simulation, so loading under the registry lock is fine
                // and keeps leader election atomic.
                let loaded = Arc::new(loaded);
                reg.cache.insert(key, Arc::clone(&loaded));
                self.hits_disk.fetch_add(1, Ordering::Relaxed);
                Plan::Hit(loaded, CacheStatus::Disk)
            } else {
                let flight = Flight::leading();
                reg.inflight.insert(key.0, Arc::clone(&flight));
                Plan::Lead(flight)
            }
        };

        match plan {
            Plan::Hit(result, status) => Completion {
                result,
                status,
                wall_ms: ms_since(start),
            },
            Plan::Wait(flight) => self.follow(job, deadline, key, &flight, start),
            Plan::Lead(flight) => self.lead(job, deadline, key, &flight, 1, start),
        }
    }

    /// Waits on an in-flight leader; on failover election this follower
    /// becomes the next leader.
    fn follow(
        self: &Arc<Self>,
        job: &SimJob,
        deadline: Option<Duration>,
        key: JobKey,
        flight: &Arc<Flight>,
        start: Instant,
    ) -> Completion {
        match self.wait_on_flight(flight, start) {
            Waited::Done(result) => Completion {
                result,
                status: CacheStatus::Coalesced,
                wall_ms: ms_since(start),
            },
            Waited::Lead(attempt) => {
                // Exponential backoff before re-running: 1·b, 2·b, 4·b…
                // for attempts 2, 3, 4…
                let backoff = self
                    .retry_backoff
                    .saturating_mul(1u32 << (attempt.saturating_sub(2)).min(16));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                self.lead(job, deadline, key, flight, attempt, start)
            }
            Waited::WatchdogExpired => {
                self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
                // Clear the zombie flight (if it is still the one we
                // waited on) so the next submitter starts fresh instead
                // of queueing behind a stuck leader.
                {
                    let mut reg = lock(&self.registry);
                    if reg
                        .inflight
                        .get(&key.0)
                        .is_some_and(|f| Arc::ptr_eq(f, flight))
                    {
                        reg.inflight.remove(&key.0);
                    }
                }
                let budget_ms = self.wait_watchdog.as_millis() as u64;
                Completion {
                    result: host_result(
                        key,
                        JobError::Timeout {
                            budget_ms,
                            message: "in-flight wait watchdog expired".into(),
                        },
                    ),
                    status: CacheStatus::Coalesced,
                    wall_ms: ms_since(start),
                }
            }
        }
    }

    /// Executes attempt `attempt` of a flight as its leader.
    fn lead(
        self: &Arc<Self>,
        job: &SimJob,
        deadline: Option<Duration>,
        key: JobKey,
        flight: &Arc<Flight>,
        attempt: u32,
        start: Instant,
    ) -> Completion {
        match self.admit(start) {
            Admit::Run => {}
            Admit::Shed { queued, limit } => {
                self.sheds.fetch_add(1, Ordering::Relaxed);
                let result = host_result(key, JobError::Overloaded { queued, limit });
                self.finish_flight(key, flight, &result);
                return Completion {
                    result,
                    status: CacheStatus::Miss,
                    wall_ms: ms_since(start),
                };
            }
        }

        self.executed.fetch_add(1, Ordering::Relaxed);
        if attempt > 1 {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }

        match self.execute(job, deadline, key) {
            Exec::Done(result) => {
                self.finish_flight(key, flight, &result);
                Completion {
                    result,
                    status: CacheStatus::Miss,
                    wall_ms: ms_since(start),
                }
            }
            Exec::TimedOut(budget) => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                let result = host_result(
                    key,
                    JobError::Timeout {
                        budget_ms: budget.as_millis() as u64,
                        message: "job exceeded its host deadline".into(),
                    },
                );
                self.finish_flight(key, flight, &result);
                Completion {
                    result,
                    status: CacheStatus::Miss,
                    wall_ms: ms_since(start),
                }
            }
            Exec::Panicked(message) => {
                self.host_panics.fetch_add(1, Ordering::Relaxed);
                let exhausted = {
                    let mut st = lock(&flight.state);
                    st.last_panic = message.clone();
                    if st.attempts >= self.max_attempts {
                        true
                    } else {
                        // Hand leadership to the lowest-ticket waiter
                        // (or to ourselves, below, when nobody waits).
                        st.needs_leader = true;
                        false
                    }
                };
                if exhausted {
                    let result = host_result(
                        key,
                        JobError::HostPanic {
                            message,
                            attempts: attempt,
                        },
                    );
                    self.finish_flight(key, flight, &result);
                    return Completion {
                        result,
                        status: CacheStatus::Miss,
                        wall_ms: ms_since(start),
                    };
                }
                flight.cv.notify_all();
                // This submitter still needs an answer: join the
                // election pool. With no other waiters it elects itself
                // and retries (after backoff); otherwise an existing
                // waiter — which arrived earlier, hence lower ticket —
                // takes over.
                self.follow(job, deadline, key, flight, start)
            }
        }
    }

    /// Runs one execution attempt, inline (no deadline) or on a
    /// supervised executor thread (with deadline). The admission slot
    /// is released when the *execution* ends, even if the submitter has
    /// already abandoned it.
    fn execute(self: &Arc<Self>, job: &SimJob, deadline: Option<Duration>, key: JobKey) -> Exec {
        let Some(budget) = deadline else {
            let runner = Arc::clone(&self.runner);
            let outcome = catch_unwind(AssertUnwindSafe(|| runner(job)));
            self.release_slot();
            return match outcome {
                Ok(result) => Exec::Done(Arc::new(result)),
                Err(payload) => Exec::Panicked(pool::panic_message(&*payload)),
            };
        };

        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(self);
        let job = job.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("dta-serve-run-{}", &key.hex()[..8]))
            .spawn(move || {
                let runner = Arc::clone(&inner.runner);
                let outcome = catch_unwind(AssertUnwindSafe(|| runner(&job)));
                inner.release_slot();
                match outcome {
                    Ok(result) => {
                        let result = Arc::new(result);
                        if tx.send(Exec::Done(Arc::clone(&result))).is_err()
                            && !result.is_host_side()
                        {
                            // The submitter gave up at the deadline, but
                            // the run finished deterministically — bank
                            // it so future submitters hit the cache.
                            inner.late_results.fetch_add(1, Ordering::Relaxed);
                            let mut reg = lock(&inner.registry);
                            reg.cache.insert(key, Arc::clone(&result));
                            drop(reg);
                            inner.disk_store(&result);
                        }
                    }
                    Err(payload) => {
                        let _ = tx.send(Exec::Panicked(pool::panic_message(&*payload)));
                    }
                }
            });
        if spawned.is_err() {
            // Could not spawn an executor thread (resource exhaustion):
            // the slot is still ours — release it and report overload
            // upwards as a panic-class host failure.
            self.release_slot();
            return Exec::Panicked("failed to spawn executor thread".into());
        }
        match rx.recv_timeout(budget) {
            Ok(exec) => exec,
            Err(mpsc::RecvTimeoutError::Timeout) => Exec::TimedOut(budget),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Exec::Panicked("executor thread died without reporting".into())
            }
        }
    }

    /// Publishes a flight's final answer: cache deterministic results,
    /// drop the in-flight entry (if it is still this flight), wake every
    /// waiter.
    fn finish_flight(self: &Arc<Self>, key: JobKey, flight: &Arc<Flight>, result: &Arc<JobResult>) {
        let cacheable = !result.is_host_side();
        {
            let mut reg = lock(&self.registry);
            if cacheable {
                reg.cache.insert(key, Arc::clone(result));
            }
            if reg
                .inflight
                .get(&key.0)
                .is_some_and(|f| Arc::ptr_eq(f, flight))
            {
                reg.inflight.remove(&key.0);
            }
        }
        if cacheable {
            self.disk_store(result);
        }
        flight.fulfil(Arc::clone(result));
    }

    /// Blocks on a flight with the `Condvar::wait_timeout` watchdog,
    /// participating in failover election.
    fn wait_on_flight(&self, flight: &Flight, start: Instant) -> Waited {
        let mut st = lock(&flight.state);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiters.insert(ticket);
        loop {
            if let Some(result) = &st.done {
                let result = Arc::clone(result);
                st.waiters.remove(&ticket);
                return Waited::Done(result);
            }
            if st.needs_leader && st.waiters.first() == Some(&ticket) {
                st.needs_leader = false;
                st.attempts += 1;
                let attempt = st.attempts;
                st.waiters.remove(&ticket);
                return Waited::Lead(attempt);
            }
            let remaining = self.wait_watchdog.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                st.waiters.remove(&ticket);
                return Waited::WatchdogExpired;
            }
            let (guard, _) = flight
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Acquires an execution slot, queueing (bounded) when the service
    /// is saturated. Sheds on a full queue or on watchdog expiry.
    fn admit(&self, start: Instant) -> Admit {
        let mut adm = lock(&self.admission);
        if adm.running < self.max_running {
            adm.running += 1;
            return Admit::Run;
        }
        if adm.queued >= self.max_queued {
            return Admit::Shed {
                queued: adm.queued as u64,
                limit: self.max_queued as u64,
            };
        }
        adm.queued += 1;
        loop {
            let remaining = self.wait_watchdog.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                adm.queued -= 1;
                return Admit::Shed {
                    queued: adm.queued as u64,
                    limit: self.max_queued as u64,
                };
            }
            let (guard, _) = self
                .admission_cv
                .wait_timeout(adm, remaining)
                .unwrap_or_else(|e| e.into_inner());
            adm = guard;
            if adm.running < self.max_running {
                adm.queued -= 1;
                adm.running += 1;
                return Admit::Run;
            }
        }
    }

    /// Returns an execution slot and wakes queued leaders.
    fn release_slot(&self) {
        let mut adm = lock(&self.admission);
        adm.running = adm.running.saturating_sub(1);
        let queued = adm.queued;
        drop(adm);
        if queued > 0 {
            self.admission_cv.notify_all();
        }
    }

    /// Disk lookup with quarantine accounting and I/O-failure
    /// degradation. `None` covers absence, corruption, and a degraded
    /// store alike — the caller just simulates.
    fn disk_load(&self, key: JobKey) -> Option<JobResult> {
        if self.disk_degraded.load(Ordering::Relaxed) {
            return None;
        }
        match self.disk.as_ref()?.load(key) {
            Load::Hit(result) => Some(*result),
            Load::Miss => None,
            Load::Quarantined { reason } => {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "dta-serve: quarantined corrupt cache entry {} ({reason}); re-simulating",
                    key.hex()
                );
                None
            }
            Load::Error(e) => {
                self.degrade_disk("read", &e);
                None
            }
        }
    }

    /// Best-effort persist; failures degrade the service to memory-only.
    fn disk_store(&self, result: &Arc<JobResult>) {
        if self.disk_degraded.load(Ordering::Relaxed) {
            return;
        }
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(result) {
                self.degrade_disk("write", &e);
            }
        }
    }

    fn degrade_disk(&self, what: &str, e: &std::io::Error) {
        self.disk_errors.fetch_add(1, Ordering::Relaxed);
        if !self.disk_degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "dta-serve: disk store {what} failed ({e}); degrading to memory-only operation"
            );
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
