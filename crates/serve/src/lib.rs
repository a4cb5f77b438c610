//! # dta-serve — content-addressed simulation service
//!
//! The simulator is deterministic: a [`SimJob`] value maps to exactly
//! one [`JobResult`], bit for bit. This crate exploits that by putting a
//! service boundary in front of `dta_core::run_job`:
//!
//! * **Job queue** — [`Service::submit`] for single jobs,
//!   [`Service::run_grid`] for sweep grids (scheduled onto the
//!   `--sweep-threads` work-stealing pool, [`pool::try_par_map_with`]);
//! * **Result cache** — in-memory LRU plus an optional on-disk store of
//!   canonical-JSON results keyed by [`JobKey`] ([`cache`]);
//! * **In-flight dedup** — identical jobs submitted concurrently
//!   simulate once; followers block on the leader's flight and receive
//!   the same `Arc`'d result, observability stream included
//!   ([`JobOutput::obs`]), so every subscriber of one key reads the
//!   same records (the dedup suite pins this).
//!
//! ## Panic isolation
//!
//! Each flight executes exactly once. The leader runs the job under
//! `catch_unwind`; a panicking run becomes a typed
//! [`JobError::HostPanic`] completion for the leader and every coalesced
//! follower instead of tearing down a submitter, the batch, or a lock.
//! A job panics deterministically, so nothing re-runs it, and the
//! deterministic budget on a run is its own `max_cycles`. The leader
//! resolves its flight from a drop guard, so followers, which wait
//! without a timeout, are woken even if the leader's own path unwinds.
//!
//! Host-side outcomes are **never cached** — only deterministic results
//! are content-addressable — and corrupt disk entries are quarantined
//! and re-simulated while real I/O failures degrade the service to
//! memory-only operation ([`cache::DiskStore`]). [`Service::health`]
//! exposes these counters.
//!
//! Wall-clock time is measured *around* the cache (`Completion::wall_ms`)
//! and never stored inside a result, so cached and fresh results stay
//! byte-identical while warm-vs-cold timing remains visible to callers.

use dta_core::{run_job, JobResult, SimJob, JOB_FORMAT_VERSION};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

pub mod cache;
pub mod pool;

// Re-exported so thin clients need only a `dta-serve` dependency to
// build jobs and consume results.
pub use dta_core::{JobError, JobKey, JobOutput, SimJob as Job};

use cache::{DiskStore, Load, LruCache};

/// In-memory LRU capacity, in results.
const MEMORY_CAPACITY: usize = 512;

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
    /// submitters). A panicking run arrives here as a typed
    /// [`JobError::HostPanic`] but is never cached.
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
    /// Jobs submitted (every `submit` call).
    pub submitted: u64,
    /// Executions started — the executor run count the dedup suite
    /// asserts on (one per simulated flight).
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

/// Host-fault counters (snapshot) — the ledger surfaced in
/// `BENCH_serve.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Executions started (same counter as [`ServiceStats::executed`]).
    pub executions: u64,
    /// Submissions coalesced onto an in-flight identical job.
    pub coalesced_waits: u64,
    /// Panicking executions caught and isolated.
    pub host_panics: u64,
    /// Corrupt disk entries quarantined (then re-simulated).
    pub quarantines: u64,
    /// Real disk I/O failures observed.
    pub disk_errors: u64,
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
            ("host_panics", u64_json(self.host_panics)),
            ("quarantines", u64_json(self.quarantines)),
            ("disk_errors", u64_json(self.disk_errors)),
            ("disk_degraded", Json::Bool(self.disk_degraded)),
        ])
    }
}

/// The execution function a service runs jobs through. Defaults to
/// [`dta_core::run_job`]; injectable via [`ServiceConfig::runner`] so
/// the chaos suite can wrap the simulator with injected panics.
pub type Runner = dyn Fn(&SimJob) -> JobResult + Send + Sync;

/// Service construction knobs.
#[derive(Default)]
pub struct ServiceConfig {
    /// Batch-executor workers for [`Service::run_grid`] (the
    /// `--sweep-threads` value; 0 and 1 = sequential).
    pub threads: usize,
    /// Root of the on-disk store (`None` = memory only).
    pub disk_dir: Option<std::path::PathBuf>,
    /// Execution function override (`None` = the real simulator).
    pub runner: Option<Arc<Runner>>,
}

/// Locks a mutex, recovering from poisoning. No service lock is ever
/// held across job execution (the only code that can panic), so
/// poisoning is unreachable in practice — but panic isolation must not
/// turn a caught panic into a poisoned-lock cascade.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A leader's promise to concurrent submitters of the same key: empty
/// until the leader publishes its one result.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Arc<JobResult>>>,
    cv: Condvar,
}

impl Flight {
    /// Blocks until the leader publishes.
    fn wait(&self) -> Arc<JobResult> {
        let done = lock(&self.done);
        let done = self
            .cv
            .wait_while(done, |done| done.is_none())
            .unwrap_or_else(|e| e.into_inner());
        Arc::clone(done.as_ref().expect("woken with a published result"))
    }
}

/// Cache and in-flight set behind ONE mutex: the hit check, the
/// coalesce check, and the choice of leader happen atomically, so two
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

/// The simulation service. `Sync`: share one instance (e.g. behind a
/// `OnceLock`) across every sweep in a process to deduplicate work
/// globally.
pub struct Service {
    threads: usize,
    registry: Mutex<Registry>,
    disk: Option<DiskStore>,
    disk_degraded: AtomicBool,
    runner: Arc<Runner>,
    submitted: AtomicU64,
    executed: AtomicU64,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    coalesced: AtomicU64,
    host_panics: AtomicU64,
    quarantines: AtomicU64,
    disk_errors: AtomicU64,
}

/// Builds a host-side completion result (never cached).
fn host_panic(key: JobKey, message: String) -> Arc<JobResult> {
    Arc::new(JobResult {
        format: JOB_FORMAT_VERSION,
        key,
        outcome: Err(JobError::HostPanic { message }),
    })
}

/// A leader's obligation to resolve its flight. Dropping it publishes
/// `result`, or a [`JobError::HostPanic`] when the leader's path
/// unwound before setting one, so no follower waits forever.
struct Publish<'a> {
    service: &'a Service,
    key: JobKey,
    flight: &'a Flight,
    result: Option<Arc<JobResult>>,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or_else(|| {
            host_panic(self.key, "flight leader unwound before publishing".into())
        });
        self.service.finish_flight(self.key, self.flight, result);
    }
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
        Service {
            threads: config.threads.max(1),
            registry: Mutex::new(Registry {
                cache: LruCache::new(MEMORY_CAPACITY),
                inflight: HashMap::new(),
            }),
            disk,
            disk_degraded: AtomicBool::new(false),
            runner: config.runner.unwrap_or_else(|| Arc::new(run_job)),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            hits_memory: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            host_panics: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            disk_errors: AtomicU64::new(disk_errors),
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
        self.threads
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            hits_memory: self.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Host-fault counter snapshot.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth {
            executions: self.executed.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced.load(Ordering::Relaxed),
            host_panics: self.host_panics.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            disk_degraded: self.disk_degraded.load(Ordering::Relaxed),
        }
    }

    /// Submits one job: a cache hit, a wait on an identical in-flight
    /// job, or one execution as that key's leader.
    pub fn submit(&self, job: &SimJob) -> Completion {
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
                // and keeps the choice of leader atomic.
                let loaded = Arc::new(loaded);
                reg.cache.insert(key, Arc::clone(&loaded));
                self.hits_disk.fetch_add(1, Ordering::Relaxed);
                Plan::Hit(loaded, CacheStatus::Disk)
            } else {
                let flight = Arc::new(Flight::default());
                reg.inflight.insert(key.0, Arc::clone(&flight));
                Plan::Lead(flight)
            }
        };

        let (result, status) = match plan {
            Plan::Hit(result, status) => (result, status),
            Plan::Wait(flight) => (flight.wait(), CacheStatus::Coalesced),
            Plan::Lead(flight) => (self.lead(job, key, &flight), CacheStatus::Miss),
        };
        Completion {
            result,
            status,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Runs a sweep grid on the batch-executor pool, returning
    /// completions in grid order. Duplicate points inside one grid
    /// simulate once (dedup applies within a grid exactly as across
    /// submissions), and a panicking point resolves to a typed
    /// [`JobError::HostPanic`] completion while the rest of the batch
    /// completes.
    pub fn run_grid(&self, jobs: &[SimJob]) -> Vec<Completion> {
        let outcomes = pool::try_par_map_with(self.threads, jobs, |job| self.submit(job));
        jobs.iter()
            .zip(outcomes)
            .map(|(job, outcome)| match outcome {
                Ok(done) => done,
                // `submit` already isolates execution panics; reaching
                // this arm means the service machinery itself panicked.
                // Still: per-item typed failure, not a dead batch.
                Err(message) => Completion {
                    result: host_panic(job.key(), message),
                    status: CacheStatus::Miss,
                    wall_ms: 0.0,
                },
            })
            .collect()
    }

    /// Executes a flight's one run as its leader and publishes the
    /// outcome to every follower.
    fn lead(&self, job: &SimJob, key: JobKey, flight: &Flight) -> Arc<JobResult> {
        let mut publish = Publish {
            service: self,
            key,
            flight,
            result: None,
        };
        self.executed.fetch_add(1, Ordering::Relaxed);
        let result = match catch_unwind(AssertUnwindSafe(|| (self.runner)(job))) {
            Ok(result) => Arc::new(result),
            Err(payload) => {
                self.host_panics.fetch_add(1, Ordering::Relaxed);
                host_panic(key, pool::panic_message(&*payload))
            }
        };
        publish.result = Some(Arc::clone(&result));
        result
    }

    /// Publishes a flight's answer: cache deterministic results, drop
    /// the in-flight entry, wake every follower.
    fn finish_flight(&self, key: JobKey, flight: &Flight, result: Arc<JobResult>) {
        let cacheable = !result.is_host_side();
        {
            let mut reg = lock(&self.registry);
            if cacheable {
                reg.cache.insert(key, Arc::clone(&result));
            }
            reg.inflight.remove(&key.0);
        }
        if cacheable {
            self.disk_store(&result);
        }
        *lock(&flight.done) = Some(result);
        flight.cv.notify_all();
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
