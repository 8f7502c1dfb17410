//! The system under test, built the way each workload deploys it, and
//! driven only through its public entry points.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use ucad::{
    Admission, Alert, DurabilityConfig, ServeConfig, ServeObserver, ServeStats, ShardedOnlineUcad,
    ShutdownReport, SubmitOutcome, Ucad, UcadError,
};
use ucad_dbsim::LogRecord;
use ucad_model::CacheStats;
use ucad_net::{NetDaemon, NetRouter, NetServeConfig};
use ucad_tenant::{TenantRegistry, TenantShardPool};

use crate::workload::Workload;

/// Engine parallelism: two shards in process, or two daemons of one shard
/// (`tenant-fleet` runs one pool shard beside its cold-loading submitter).
pub const SHARDS: usize = 2;

/// Tenant-fleet resident budget: one model fewer than tenants.
const TENANT_BUDGET: usize = 2;

/// The serve configuration every workload uses: the default (score cache
/// on at its default capacity, `Streaming` mode, `Block` overload) with
/// the shard count set.
pub fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::default()
    }
}

/// Completion times of submitted records, keyed by the global arrival
/// sequence the serving side stamps on each record (dense from 0 per
/// target).
pub struct Completions {
    origin: Instant,
    done: Vec<AtomicU64>,
}

impl Completions {
    /// Slots for the first `capacity` sequence numbers; later ones are not
    /// recorded.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Completions {
            origin,
            done: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// When record `seq` was scored, ns since the origin.
    pub fn completed_ns(&self, seq: u64) -> Option<u64> {
        let v = self.done.get(seq as usize)?.load(Ordering::Relaxed);
        (v != 0).then(|| v - 1)
    }
}

impl ServeObserver for Completions {
    fn on_scored(&self, seq: u64) {
        if let Some(cell) = self.done.get(seq as usize) {
            let ns = self.origin.elapsed().as_nanos() as u64;
            cell.store(ns + 1, Ordering::Relaxed);
        }
    }
}

/// A daemon thread and its stop flag.
pub struct Daemon {
    stop: Arc<AtomicBool>,
    join: JoinHandle<Result<ShutdownReport, UcadError>>,
}

/// One deployment of the serving system.
pub enum Target {
    /// In-process sharded engine.
    Engine(ShardedOnlineUcad),
    /// Router in front of loopback daemons, each with its own WAL dir.
    Routed {
        /// The front door.
        router: NetRouter,
        /// Daemon threads.
        daemons: Vec<Daemon>,
        /// Durable state of daemon `i`.
        dirs: Vec<PathBuf>,
    },
    /// Multi-tenant shard pool over an on-disk registry.
    Fleet(TenantShardPool),
}

impl Target {
    /// Builds the deployment of `workload` serving `system`, keeping
    /// on-disk state under `dir`.
    pub fn build(
        workload: Workload,
        system: &Ucad,
        dir: &Path,
        observer: Option<Arc<dyn ServeObserver>>,
    ) -> Result<Target, UcadError> {
        match workload {
            Workload::FreshStream | Workload::RecurringStream => {
                ShardedOnlineUcad::try_new_observed(system.clone(), serve_config(SHARDS), observer)
                    .map(Target::Engine)
            }
            Workload::RoutedDurable => {
                let mut addrs = Vec::new();
                let mut daemons = Vec::new();
                let mut dirs = Vec::new();
                for i in 0..SHARDS {
                    let wal = dir.join(format!("daemon-{i}"));
                    let cfg = NetServeConfig::builder()
                        .addr("127.0.0.1:0")
                        .serve(serve_config(1))
                        .durability(Target::durability(&wal))
                        .build()?;
                    let daemon = NetDaemon::bind_full(system.clone(), cfg, observer.clone(), None)?;
                    let (addr, stop, join) = daemon.spawn();
                    addrs.push(addr.to_string());
                    daemons.push(Daemon { stop, join });
                    dirs.push(wal);
                }
                let router = NetRouter::connect(&addrs, serve_config(SHARDS).seed)?;
                Ok(Target::Routed {
                    router,
                    daemons,
                    dirs,
                })
            }
            Workload::TenantFleet => {
                // One shard: the pool cold-loads models on the submitting
                // thread, so that thread is the engine's second busy one.
                let cfg = serve_config(1);
                let mut registry = TenantRegistry::open(dir, TENANT_BUDGET, cfg.cache_capacity)?;
                for tenant in 1..=workload.tenants() as u64 {
                    registry.register(tenant, &format!("tenant-{tenant}"), system)?;
                }
                let pool = TenantShardPool::new_observed(
                    registry,
                    cfg,
                    observer,
                    ucad_tenant::DEFAULT_TENANT_LABEL_LIMIT,
                )?;
                Ok(Target::Fleet(pool))
            }
        }
    }

    /// The durability of a `routed-durable` daemon logging under `dir`:
    /// appends reach the OS on every record and are fsynced at the drain,
    /// snapshot and shutdown barriers. (Fsync per record on a shared
    /// virtual disk stalls submits for up to hundreds of ms, a spread no
    /// bound could hold; the `wal.sync_us_*` probes time the fsync itself.)
    pub fn durability(dir: &Path) -> DurabilityConfig {
        DurabilityConfig::new(dir).fsync_every(0)
    }

    /// Submits one record of `tenant`.
    pub fn submit(&mut self, tenant: u64, record: &LogRecord) -> Result<SubmitOutcome, UcadError> {
        match self {
            Target::Engine(e) => Admission::try_submit(e, record),
            Target::Routed { router, .. } => router.try_submit(record),
            Target::Fleet(pool) => pool.try_submit(tenant, record),
        }
    }

    /// Closes a session of `tenant`.
    pub fn close(&mut self, tenant: u64, session_id: u64) -> Result<(), UcadError> {
        match self {
            Target::Engine(e) => Admission::close_session(e, session_id),
            Target::Routed { router, .. } => router.close_session(session_id),
            Target::Fleet(pool) => pool.close_session(tenant, session_id),
        }
    }

    /// Flushes, then drains every alert raised since the last drain in
    /// global arrival order.
    pub fn drain(&mut self) -> Result<Vec<Alert>, UcadError> {
        match self {
            Target::Engine(e) => Admission::drain_alerts(e),
            Target::Routed { router, .. } => router.drain_alerts(),
            Target::Fleet(pool) => pool.drain_alerts(),
        }
    }

    /// Flushes, then snapshots the serving counters.
    pub fn stats(&mut self) -> Result<ServeStats, UcadError> {
        match self {
            Target::Engine(e) => Admission::stats(e),
            Target::Routed { router, .. } => router.stats(),
            Target::Fleet(pool) => pool.stats(),
        }
    }

    /// Score-cache `(hits, lookups, evictions)` summed over every cache
    /// the target holds; `None` when it holds none.
    pub fn cache_counts(&mut self) -> Result<Option<(u64, u64, u64)>, UcadError> {
        let stats: Vec<CacheStats> = match self {
            Target::Fleet(pool) => {
                let mut all = Vec::new();
                for tenant in pool.registry().known_tenants() {
                    let handle = pool.registry_mut().activate(tenant)?;
                    all.extend(handle.cache.map(|c| c.stats()));
                }
                all
            }
            _ => self.stats()?.cache.into_iter().collect(),
        };
        Ok((!stats.is_empty()).then(|| {
            stats.iter().fold((0, 0, 0), |(h, l, e), s| {
                (h + s.hits, l + s.hits + s.misses, e + s.evictions)
            })
        }))
    }

    /// Prometheus exposition of the target's serving metrics.
    pub fn render_metrics(&mut self) -> Result<String, UcadError> {
        match self {
            Target::Engine(e) => Admission::render_metrics(e),
            Target::Routed { router, .. } => router.render_metrics(),
            Target::Fleet(pool) => Ok(pool.render_metrics()),
        }
    }

    /// The tenant registry's `(cold loads, evictions)`, zero elsewhere.
    pub fn tenant_counters(&self) -> (u64, u64) {
        match self {
            Target::Fleet(pool) => (pool.registry().cold_loads(), pool.registry().evictions()),
            _ => (0, 0),
        }
    }

    /// On-disk state of the target's durable daemons.
    pub fn wal_dirs(&self) -> Vec<PathBuf> {
        match self {
            Target::Routed { dirs, .. } => dirs.clone(),
            _ => Vec::new(),
        }
    }

    /// Stops the target and waits for every thread it started. On-disk
    /// state is left in place for recovery; the caller removes it.
    pub fn shutdown(self) -> Result<(), UcadError> {
        match self {
            Target::Engine(e) => {
                let report = e.shutdown();
                if let Some((shard, msg)) = report.worker_panics.first() {
                    return Err(UcadError::protocol(format!(
                        "shard {shard} panicked: {msg}"
                    )));
                }
                Ok(())
            }
            Target::Routed {
                router, daemons, ..
            } => {
                let shut = router.shutdown();
                let mut first_err = shut.err();
                for d in daemons {
                    d.stop.store(true, Ordering::SeqCst);
                    match d.join.join() {
                        Ok(Ok(_)) => {}
                        Ok(Err(e)) => {
                            first_err.get_or_insert(e);
                        }
                        Err(_) => {
                            first_err.get_or_insert(UcadError::protocol("daemon thread panicked"));
                        }
                    }
                }
                first_err.map_or(Ok(()), Err)
            }
            Target::Fleet(pool) => pool.shutdown().map(drop),
        }
    }
}
