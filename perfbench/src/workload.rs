//! The four traffic shapes and the seeded generator that produces them.
//!
//! Traffic comes in rounds: a batch of sessions whose records are
//! interleaved round-robin, the concurrent-application pattern the engine
//! serves. Round `k` of a seed is the same whatever the workload that
//! consumes it, so `fresh-stream` and `routed-durable` see identical
//! records and must drain identical alerts. One session in ten is an
//! injected A1–A3 anomaly, labelled, so alert quality is measurable.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ucad_dbsim::LogRecord;
use ucad_trace::{AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process engine, every session newly generated: the model forward
    /// dominates.
    FreshStream,
    /// In-process engine, sessions replay a small pool of workflows (one
    /// replaced by a fresh session per 40 served): the score cache absorbs
    /// the forward, the serve path dominates.
    RecurringStream,
    /// `FreshStream` traffic through the router to two durable loopback
    /// daemons: frames, socket round trips and WAL fsyncs.
    RoutedDurable,
    /// Three tenants with Zipf-skewed traffic (exact 1/k shares per round)
    /// behind one shard pool whose resident budget holds two models: LRU
    /// cold loads in the stream.
    TenantFleet,
}

/// How the records of a workload are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// Every session newly generated.
    Fresh,
    /// Normal sessions replay a small pool of generated sessions, one of
    /// which is replaced by a fresh session per [`POOL_TURNOVER`] served.
    Recurring,
}

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in its order. `tenant-fleet`
    /// runs by name but is left out: its throughput and peak RSS spread
    /// 0.24 and 0.22 of their medians over ten seeds, at the largest
    /// bound a gated metric may carry.
    #[cfg(test)]
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::FreshStream,
        Workload::RecurringStream,
        Workload::RoutedDurable,
    ];

    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::FreshStream,
        Workload::RecurringStream,
        Workload::RoutedDurable,
        Workload::TenantFleet,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshStream => "fresh-stream",
            Workload::RecurringStream => "recurring-stream",
            Workload::RoutedDurable => "routed-durable",
            Workload::TenantFleet => "tenant-fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Record source.
    pub fn shape(self) -> TrafficShape {
        match self {
            Workload::RecurringStream => TrafficShape::Recurring,
            _ => TrafficShape::Fresh,
        }
    }

    /// Tenants the traffic is spread over.
    pub fn tenants(self) -> usize {
        match self {
            Workload::TenantFleet => 3,
            _ => 1,
        }
    }

    /// Fixed open-loop arrival rate, records/s: about a third of the
    /// closed-loop capacity measured on a 2-vCPU host before this
    /// benchmark existed. Never derived at run time, so a faster program
    /// shows as lower latency at the same load.
    pub fn open_loop_rps(self) -> f64 {
        match self {
            Workload::FreshStream => 2_400.0,
            Workload::RecurringStream => 20_000.0,
            Workload::RoutedDurable => 1_100.0,
            Workload::TenantFleet => 800.0,
        }
    }

    /// Sessions per round. `recurring-stream` scores a round of 40 in about
    /// 15 ms, where the per-round drain barrier and thread wake-ups set
    /// the pace and the run-to-run spread (0.21 of the median over ten
    /// seeds); rounds of 160 amortise them. Other workloads keep rounds
    /// short, so the median over rounds has many samples.
    pub fn round_sessions(self) -> usize {
        match self {
            Workload::RecurringStream => 160,
            _ => 40,
        }
    }

    /// Latency limit of `slo_attain`, ms from scheduled arrival to scored.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::FreshStream => 20.0,
            Workload::RecurringStream => 10.0,
            Workload::RoutedDurable => 20.0,
            Workload::TenantFleet => 50.0,
        }
    }
}

/// Injected anomalies per round: one session in this many.
pub const ANOMALY_EVERY: usize = 10;

/// Normal sessions in the `recurring-stream` replay pool.
pub const RECURRING_POOL: usize = 10;

/// Sessions served per pool workflow replaced by a fresh one.
pub const POOL_TURNOVER: usize = 40;

/// One session of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// Session id, unique across the run.
    pub id: u64,
    /// Tenant the session belongs to (1-based).
    pub tenant: u64,
    /// Ground truth: an injected anomaly.
    pub abnormal: bool,
    /// Index of the session's last record in the round.
    pub last_record: usize,
}

/// A batch of interleaved sessions.
#[derive(Debug, Clone)]
pub struct Round {
    /// `(tenant, record)` in submission order.
    pub records: Vec<(u64, LogRecord)>,
    /// The sessions, in order of first record.
    pub sessions: Vec<SessionInfo>,
}

/// Seeded round generator.
pub struct Traffic {
    shape: TrafficShape,
    spec: ScenarioSpec,
    gen: SessionGenerator,
    rng: StdRng,
    pool: Vec<Session>,
    /// Shuffles tenant slots on `tenant-fleet`; the session stream
    /// draws from `rng` alone, so it matches the other workloads'.
    tenant_rng: Option<StdRng>,
    tenants: usize,
    round_sessions: usize,
    next_id: u64,
    rounds: usize,
    replaced: usize,
}

impl Traffic {
    /// The traffic of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let spec = ScenarioSpec::commenting();
        let mut gen = SessionGenerator::new(spec.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7AFF_1C00);
        let pool = match workload.shape() {
            TrafficShape::Recurring => (0..RECURRING_POOL)
                .map(|_| gen.normal_session(&mut rng).session)
                .collect(),
            TrafficShape::Fresh => Vec::new(),
        };
        let tenant_rng = (workload.tenants() > 1).then(|| StdRng::seed_from_u64(seed ^ 0x7E_4A47));
        Traffic {
            shape: workload.shape(),
            spec,
            gen,
            rng,
            pool,
            tenant_rng,
            tenants: workload.tenants(),
            round_sessions: workload.round_sessions(),
            next_id: 1_000_000,
            rounds: 0,
            replaced: 0,
        }
    }

    fn base_session(&mut self) -> Session {
        match self.shape {
            TrafficShape::Fresh => self.gen.normal_session(&mut self.rng).session,
            TrafficShape::Recurring => {
                let i = self.rng.gen_range(0..self.pool.len());
                self.pool[i].clone()
            }
        }
    }

    /// One session: normal, or an injected anomaly of `kind` (0, 1, 2 for
    /// A1 privilege abuse, A2 credential stealing, A3 misoperation).
    fn session(&mut self, anomaly: Option<usize>) -> Session {
        let base = self.base_session();
        let Some(kind) = anomaly else {
            return base;
        };
        let synth = AnomalySynthesizer::new(&self.spec);
        let labelled = match kind {
            0 => synth.privilege_abuse(&base, &mut self.gen, &mut self.rng),
            1 => synth.credential_stealing(&base, &mut self.gen, &mut self.rng),
            _ => synth.misoperation(&mut self.gen, &mut self.rng),
        };
        labelled.session
    }

    /// The next round of [`Workload::round_sessions`] sessions.
    pub fn next_round(&mut self) -> Round {
        // The recurring pool drifts slowly, so alert quality averages over
        // many workflows while the working set stays inside the cache. A
        // replayed workflow alerts on every replay or on none, so the
        // drift is per session served, not per round.
        if self.shape == TrafficShape::Recurring && self.rounds > 0 {
            for _ in 0..self.round_sessions / POOL_TURNOVER {
                let slot = self.replaced % self.pool.len();
                self.pool[slot] = self.gen.normal_session(&mut self.rng).session;
                self.replaced += 1;
            }
        }
        self.rounds += 1;
        // One anomaly per ANOMALY_EVERY sessions, at seeded positions,
        // kinds in rotation: the labelled mix does not vary from seed to
        // seed.
        let n = self.round_sessions;
        let mut anomaly_at = vec![None; n];
        let mut slots: Vec<usize> = (0..n).collect();
        slots.shuffle(&mut self.rng);
        for (i, &slot) in slots.iter().take(n / ANOMALY_EVERY).enumerate() {
            anomaly_at[slot] = Some((self.rounds + i) % 3);
        }
        // Tenants in exact Zipf shares at seeded positions, so the cold-load
        // rate does not swing with a sampled tenant mix.
        let mut tenant_at: Vec<u64> = zipf_counts(n, self.tenants)
            .into_iter()
            .zip(1u64..)
            .flat_map(|(count, tenant)| std::iter::repeat_n(tenant, count))
            .collect();
        if let Some(rng) = self.tenant_rng.as_mut() {
            tenant_at.shuffle(rng);
        }
        let mut queues: Vec<(SessionInfo, Vec<LogRecord>)> = Vec::with_capacity(n);
        for (anomaly, tenant) in anomaly_at.into_iter().zip(tenant_at) {
            let abnormal = anomaly.is_some();
            let mut session = self.session(anomaly);
            session.id = self.next_id;
            self.next_id += 1;
            let info = SessionInfo {
                id: session.id,
                tenant,
                abnormal,
                last_record: 0,
            };
            queues.push((info, records_of(&session)));
        }
        let total: usize = queues.iter().map(|(_, q)| q.len()).sum();
        let longest = queues.iter().map(|(_, q)| q.len()).max().unwrap_or(0);
        let mut records = Vec::with_capacity(total);
        for i in 0..longest {
            for (info, q) in &mut queues {
                if let Some(r) = q.get(i) {
                    info.last_record = records.len();
                    records.push((info.tenant, r.clone()));
                }
            }
        }
        Round {
            records,
            sessions: queues.into_iter().map(|(info, _)| info).collect(),
        }
    }
}

/// Sessions per tenant in a round of `n`: Zipf (s = 1) shares in
/// proportion to `1/k`, rounded by largest remainder so they sum to `n`.
pub fn zipf_counts(n: usize, tenants: usize) -> Vec<usize> {
    let total: f64 = (1..=tenants).map(|k| 1.0 / k as f64).sum();
    let exact: Vec<f64> = (1..=tenants)
        .map(|k| n as f64 / (k as f64 * total))
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..tenants).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// The audit records of a session, in order.
pub fn records_of(session: &Session) -> Vec<LogRecord> {
    session
        .ops
        .iter()
        .map(|op| LogRecord {
            timestamp: op.timestamp,
            user: session.user.clone(),
            client_ip: session.client_ip.clone(),
            session_id: session.id,
            sql: op.sql.clone(),
            table: op.table.clone(),
            op: op.kind,
            rows: 0,
        })
        .collect()
}

/// Scheduled arrival offsets (ns from the start of the open loop) of `n`
/// records at a constant `rps`. A pure function of its arguments: the
/// program's speed never feeds back into the schedule, which is what keeps
/// the latency measurement free of coordinated omission.
pub fn arrivals(n: usize, rps: f64) -> Vec<u64> {
    assert!(rps > 0.0, "arrival rate must be positive");
    (0..n)
        .map(|i| (i as f64 * 1e9 / rps).round() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn arrival_schedule_is_monotone_at_the_mean_rate() {
        for rps in [900.0, 1_600.0, 12_000.0] {
            let n = 5_000;
            let a = arrivals(n, rps);
            assert_eq!(a[0], 0);
            assert!(a.windows(2).all(|w| w[1] > w[0]), "arrivals must advance");
            let mean = (n - 1) as f64 / (a[n - 1] as f64 / 1e9);
            assert!((mean - rps).abs() / rps < 1e-6, "mean {mean} vs {rps}");
        }
    }

    #[test]
    fn same_seed_same_rounds_across_workloads() {
        let mut a = Traffic::new(Workload::FreshStream, 7);
        let mut b = Traffic::new(Workload::RoutedDurable, 7);
        let (ra, rb) = (a.next_round(), b.next_round());
        assert_eq!(ra.records.len(), rb.records.len());
        assert!(ra
            .records
            .iter()
            .zip(&rb.records)
            .all(|(x, y)| x.1.sql == y.1.sql));
        assert_eq!(ra.sessions, rb.sessions);
        let mut c = Traffic::new(Workload::FreshStream, 8);
        let rc = c.next_round();
        assert!(ra
            .records
            .iter()
            .zip(&rc.records)
            .any(|(x, y)| x.1.sql != y.1.sql));
    }

    #[test]
    fn zipf_counts_fill_the_round_in_zipf_shares() {
        assert_eq!(zipf_counts(40, 3), vec![22, 11, 7]);
        assert_eq!(zipf_counts(40, 1), vec![40]);
        assert_eq!(zipf_counts(7, 3).iter().sum::<usize>(), 7);
    }

    #[test]
    fn rounds_interleave_sessions_and_mark_last_records() {
        let mut t = Traffic::new(Workload::TenantFleet, 3);
        let round = t.next_round();
        let n = Workload::TenantFleet.round_sessions();
        assert_eq!(round.sessions.len(), n);
        for s in &round.sessions {
            let (tenant, last) = &round.records[s.last_record];
            assert_eq!(last.session_id, s.id);
            assert_eq!(*tenant, s.tenant);
            assert!((1..=3).contains(&s.tenant));
            assert!(round.records[s.last_record + 1..]
                .iter()
                .all(|(_, r)| r.session_id != s.id));
        }
        let abnormal = round.sessions.iter().filter(|s| s.abnormal).count();
        assert_eq!(abnormal, n / ANOMALY_EVERY);
        let per_tenant: Vec<usize> = (1..=3)
            .map(|t| round.sessions.iter().filter(|s| s.tenant == t).count())
            .collect();
        assert_eq!(per_tenant, zipf_counts(n, 3));
    }
}
