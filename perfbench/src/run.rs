//! One benchmark run: set-up, closed loop, open loop, output checks and,
//! on a traced run, the layer probes.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ucad::{Alert, ServeObserver, ShardedOnlineUcad, SubmitOutcome, Ucad, UcadConfig, UcadError};
use ucad_trace::{generate_raw_log, ScenarioSpec, Session};

use crate::check::{first_difference, Quality, Sample};
use crate::probes;
use crate::report::PER_LAYER;
use crate::stats::{median, quantile, reportable_quantile, sorted};
use crate::target::{serve_config, Completions, Target, SHARDS};
use crate::trace::Tracer;
use crate::workload::{arrivals, Round, Traffic, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` spent in the closed loop; the open loop takes the
/// rest.
const CLOSED_SHARE: f64 = 0.6;
/// Fewest closed-loop rounds per run (four of each kind on a traced run).
const MIN_ROUNDS: usize = 8;
/// Reference-check budget per phase, records.
const SAMPLE_RECORDS: usize = 1_000;
/// Seed of the training log. Fixed, so every run and every workload serves
/// the same paper model and `--seed` varies only the traffic.
const TRAIN_SEED: u64 = 42;
/// Where runs keep scratch state, traces and the row log.
pub const OUT_DIR: &str = ".perfbench_out";

/// What the command line asked for.
pub struct Args {
    /// Traffic shape and deployment.
    pub workload: Workload,
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds (closed plus open loop).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Sample counts behind the values.
    pub samples: BTreeMap<String, f64>,
    /// Records submitted.
    pub attempted: u64,
    /// Records shed, errored or never scored.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Measured {
    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn sample(&mut self, name: &str, count: usize) {
        self.samples.insert(name.to_string(), count as f64);
    }
}

/// Per-outcome submission counts.
#[derive(Debug, Default, Clone, Copy)]
struct Accounting {
    submitted: u64,
    accepted: u64,
    shed: u64,
    degraded: u64,
    errors: u64,
}

impl Accounting {
    fn count(&mut self, outcome: &Result<SubmitOutcome, UcadError>) {
        self.submitted += 1;
        match outcome {
            Ok(SubmitOutcome::Accepted) => self.accepted += 1,
            Ok(SubmitOutcome::Shed) => self.shed += 1,
            Ok(SubmitOutcome::Degraded) => self.degraded += 1,
            Err(_) => self.errors += 1,
        }
    }

    /// `accepted + shed + degraded == submitted`, both as the generator
    /// counted it and in the target's own counters.
    fn reconcile(&self, target: &mut Target, phase: &str) -> Result<(), String> {
        let stats = target.stats().map_err(|e| format!("{phase} stats: {e}"))?;
        let counted = stats.records() + stats.records_shed + stats.records_degraded;
        let mine = self.accepted + self.shed + self.degraded;
        if mine + self.errors != self.submitted || counted != mine {
            return Err(format!(
                "{phase} accounting: submitted {} = accepted {} + shed {} + degraded {} + errors {}, target counted {counted}",
                self.submitted, self.accepted, self.shed, self.degraded, self.errors
            ));
        }
        Ok(())
    }
}

fn ucad_err(what: &'static str) -> impl Fn(UcadError) -> String {
    move |err| format!("{what}: {err}")
}

fn global_counter(name: &str) -> u64 {
    ucad_obs::global().counter(name, &[]).get()
}

/// Sums every sample of Prometheus family `name` in `text`.
fn prometheus_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let family = series.split('{').next()?;
            (family == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .fold(0.0, |a, b| a + b)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Median of span durations in ms, 0 without spans.
fn span_ms(tracer: &Tracer, name: &str, q: f64) -> f64 {
    quantile(&tracer.durations_us(name), q).unwrap_or(0.0) / 1e3
}

/// The Scenario-I training log (354 normal sessions plus 10% noise for
/// the preprocessing to remove) and the system trained on it.
fn train() -> (Vec<Session>, Ucad, ucad::UcadTrainReport) {
    let spec = ScenarioSpec::commenting();
    let raw = generate_raw_log(&spec, spec.default_train_sessions, 0.1, TRAIN_SEED);
    let (system, report) = Ucad::train(&raw.sessions, UcadConfig::scenario1());
    (raw.sessions, system, report)
}

/// Cuts a run of rounds to its first `n` records, keeping each session
/// whose records survive and re-marking its last record.
fn truncate_rounds(rounds: Vec<Round>, mut n: usize) -> Vec<Round> {
    let mut out = Vec::new();
    for mut round in rounds {
        if n == 0 {
            break;
        }
        if round.records.len() > n {
            round.records.truncate(n);
            round
                .sessions
                .retain(|s| round.records.iter().any(|(_, r)| r.session_id == s.id));
            for s in &mut round.sessions {
                s.last_record = round
                    .records
                    .iter()
                    .rposition(|(_, r)| r.session_id == s.id)
                    .expect("retained sessions have records");
            }
        }
        n -= round.records.len();
        out.push(round);
    }
    out
}

/// State shared by the phases of one run.
struct Ctx<'a> {
    args: &'a Args,
    scratch: PathBuf,
    tracer: Tracer,
    m: Measured,
    system: Ucad,
    traffic: Traffic,
    quality: Quality,
    shed: u64,
    restarts: u64,
}

/// Runs `args`, returning what it measured. `Err` is a failure to run at
/// all; failed output checks are listed in [`Measured::failures`].
pub fn run(args: &Args) -> Result<Measured, String> {
    let scratch = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = run_in(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(args: &Args, scratch: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let (training, system, target) = setup(args.workload, scratch, &mut m)?;
    let mut ctx = Ctx {
        args,
        scratch: scratch.to_path_buf(),
        tracer: Tracer::new(false),
        m,
        system,
        traffic: Traffic::new(args.workload, args.seed),
        quality: Quality::default(),
        shed: 0,
        restarts: 0,
    };
    let (closed, first_round) = closed_loop(&mut ctx, target)?;
    let open = open_loop(&mut ctx)?;

    let Ctx {
        mut m,
        quality,
        system,
        mut tracer,
        shed,
        restarts,
        ..
    } = ctx;
    m.attempted = closed.submitted + open.acct.submitted;
    m.failed = closed.shed + closed.errors + open.acct.shed + open.acct.errors + open.never_scored;
    m.put(
        "serve.failed_ratio",
        m.failed as f64 / m.attempted.max(1) as f64,
    );
    m.put("serve.shed", shed as f64);
    m.put("serve.worker_restarts", restarts as f64);
    m.put("alert_f1", quality.f1());
    m.sample("sessions_tp", quality.tp as usize);
    m.sample("sessions_fp", quality.fp as usize);
    m.sample("sessions_fn", quality.fn_ as usize);
    for (phase, sample) in [("closed_loop", &closed.sample), ("open_loop", &open.sample)] {
        m.sample(&format!("reference_records_{phase}"), sample.records());
        if let Err(msg) = sample.verify(&system) {
            m.failures.push(format!("{phase}: {msg}"));
        }
    }
    if args.workload == Workload::RoutedDurable {
        check_routed(&mut m, &mut tracer, &system, &first_round, &open)?;
    }
    if args.trace {
        layer_probes(
            &mut m,
            &mut tracer,
            args,
            scratch,
            &system,
            &training,
            &open.rounds,
        )?;
    }
    m.put("peak_rss_mb", crate::report::peak_rss_mb().unwrap_or(0.0));
    Ok(m)
}

/// Generates the training log, trains and builds the deployment,
/// [`SETUP_REPS`] times; `setup_s` is the median and the last deployment
/// serves.
fn setup(
    workload: Workload,
    scratch: &Path,
    m: &mut Measured,
) -> Result<(Vec<Session>, Ucad, Target), String> {
    let mut times = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (training, system, report) = train();
        let target = Target::build(
            workload,
            &system,
            &scratch.join(format!("setup-{rep}")),
            None,
        )
        .map_err(ucad_err("build"))?;
        times.push(t0.elapsed().as_secs_f64());
        let epochs: f64 = report.model.epoch_secs.iter().sum();
        let windows = report.model.windows * report.model.epoch_secs.len();
        m.put("train.windows_per_s", windows as f64 / epochs.max(1e-9));
        if let Some((_, _, old)) = built.replace((training, system, target)) {
            Target::shutdown(old).map_err(ucad_err("shutdown"))?;
        }
    }
    m.put("setup_s", median(&times).expect("set-ups ran"));
    m.sample("setups", times.len());
    Ok(built.expect("at least one set-up"))
}

/// Closed-loop counts and the reference sample.
struct ClosedOutcome {
    submitted: u64,
    shed: u64,
    errors: u64,
    sample: Sample,
}

/// Rounds submitted as fast as they are accepted, then closed and
/// drained; `throughput_rps` is the median per-round rate. A traced run
/// alternates untraced and traced rounds, and the difference of their
/// medians is the tracing overhead.
fn closed_loop(
    ctx: &mut Ctx,
    mut target: Target,
) -> Result<(ClosedOutcome, (Round, Vec<Alert>)), String> {
    let budget = ctx.args.seconds * CLOSED_SHARE;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut acct = Accounting::default();
    let mut sample = Sample::new(SAMPLE_RECORDS);
    let mut first_round = None;
    let forwards_before = global_counter("ucad_model_forward_total");
    let (mut busy, mut rounds) = (0.0, 0usize);
    while busy < budget || rounds < MIN_ROUNDS {
        let round = ctx.traffic.next_round();
        let tracer = &mut ctx.tracer;
        tracer.set_enabled(ctx.args.trace && rounds % 2 == 1);
        let t0 = Instant::now();
        let span = tracer.begin("closed.round", rounds as u64);
        for (tenant, record) in &round.records {
            let s = tracer.begin("closed.submit", record.session_id);
            let outcome = target.submit(*tenant, record);
            tracer.end(s);
            acct.count(&outcome);
        }
        for s in &round.sessions {
            let c = tracer.begin("closed.close", s.id);
            target.close(s.tenant, s.id).map_err(ucad_err("close"))?;
            tracer.end(c);
        }
        let d = tracer.begin("closed.drain", rounds as u64);
        let alerts = target.drain().map_err(ucad_err("drain"))?;
        tracer.end(d);
        tracer.end(span);
        let dt = t0.elapsed().as_secs_f64();
        busy += dt;
        let rate = round.records.len() as f64 / dt;
        if tracer.enabled() {
            &mut traced
        } else {
            &mut plain
        }
        .push(rate);
        ctx.quality.add(&round, &alerts);
        sample.add(&round, &alerts);
        first_round.get_or_insert((round, alerts));
        rounds += 1;
    }
    ctx.tracer.set_enabled(false);

    let m = &mut ctx.m;
    if let Err(msg) = acct.reconcile(&mut target, "closed loop") {
        m.failures.push(msg);
    }
    let throughput = median(&plain).expect("rounds ran");
    m.put("throughput_rps", throughput);
    // Within-run spread of the round rates, for the row only.
    let rates = sorted(plain);
    m.put(
        "throughput_rps.q1",
        quantile(&rates, 0.25).expect("rounds ran"),
    );
    m.put(
        "throughput_rps.q3",
        quantile(&rates, 0.75).expect("rounds ran"),
    );
    if let Some(t) = median(&traced) {
        m.put("trace.throughput_rps", t);
        m.put("trace.overhead_ratio", 1.0 - t / throughput);
    }
    m.sample("closed_rounds", rounds);
    m.sample("closed_records", acct.submitted as usize);
    m.put(
        "model.forwards",
        (global_counter("ucad_model_forward_total") - forwards_before) as f64,
    );
    if ctx.args.trace {
        m.put("serve.drain_ms", span_ms(&ctx.tracer, "closed.drain", 0.5));
    }
    // Tenant counters first: summing the tenants' caches activates them.
    let (cold_loads, evictions) = target.tenant_counters();
    m.put("tenant.cold_loads", cold_loads as f64);
    m.put("tenant.evictions", evictions as f64);
    if let Some((hits, lookups, evictions)) =
        target.cache_counts().map_err(ucad_err("cache stats"))?
    {
        m.put("cache.hits", hits as f64);
        m.put("cache.lookups", lookups as f64);
        m.put("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
        m.put("cache.evictions", evictions as f64);
    }
    let text = target.render_metrics().map_err(ucad_err("metrics"))?;
    m.put("wal.fsyncs", prometheus_sum(&text, "ucad_wal_fsyncs_total"));
    let stats = target.stats().map_err(ucad_err("stats"))?;
    ctx.shed += stats.records_shed;
    ctx.restarts += stats.worker_restarts;
    target.shutdown().map_err(ucad_err("shutdown"))?;
    let outcome = ClosedOutcome {
        submitted: acct.submitted,
        shed: acct.shed,
        errors: acct.errors,
        sample,
    };
    Ok((outcome, first_round.expect("rounds ran")))
}

/// Open-loop counts, the reference sample, and what recovery needs.
struct OpenOutcome {
    acct: Accounting,
    never_scored: u64,
    sample: Sample,
    rounds: Vec<Round>,
    wal_dirs: Vec<PathBuf>,
}

/// One open-loop arrival: tenant, record, and the `(tenant, session)`
/// pairs whose last record it is.
type Scheduled<'a> = (u64, &'a ucad_dbsim::LogRecord, Vec<(u64, u64)>);

/// A fixed-rate schedule against a fresh deployment, each record timed
/// from its scheduled arrival to `on_scored`. The generator sleeps to each
/// deadline and sends a late record at once.
fn open_loop(ctx: &mut Ctx) -> Result<OpenOutcome, String> {
    let workload = ctx.args.workload;
    let rate = workload.open_loop_rps();
    let n = (rate * ctx.args.seconds * (1.0 - CLOSED_SHARE)).round() as usize;
    let mut rounds = Vec::new();
    let mut generated = 0usize;
    while generated < n {
        let round = ctx.traffic.next_round();
        generated += round.records.len();
        rounds.push(round);
    }
    let rounds = truncate_rounds(rounds, n);
    // The flat schedule: each record with the sessions it is the last of.
    let mut stream: Vec<Scheduled> = Vec::with_capacity(n);
    for round in &rounds {
        let base = stream.len();
        stream.extend(round.records.iter().map(|(t, r)| (*t, r, Vec::new())));
        for s in &round.sessions {
            stream[base + s.last_record].2.push((s.tenant, s.id));
        }
    }

    let origin = Instant::now();
    let completions = Arc::new(Completions::new(origin, n));
    let observer = Some(completions.clone() as Arc<dyn ServeObserver>);
    let mut target = Target::build(workload, &ctx.system, &ctx.scratch.join("open"), observer)
        .map_err(ucad_err("build"))?;
    let retries_before = global_counter("ucad_net_retries_total");
    let reconnects_before = global_counter("ucad_net_reconnects_total");
    let due = arrivals(n, rate);
    let start_ns = origin.elapsed().as_nanos() as u64 + 1_000_000;
    let mut late_ms = Vec::with_capacity(n);
    let mut returned_ns = Vec::with_capacity(n);
    let mut scorable = Vec::with_capacity(n);
    let mut acct = Accounting::default();
    let tracer = &mut ctx.tracer;
    tracer.set_enabled(ctx.args.trace);
    for (i, (tenant, record, closes)) in stream.iter().enumerate() {
        let deadline = start_ns + due[i];
        let now = origin.elapsed().as_nanos() as u64;
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
        let sent = origin.elapsed().as_nanos() as u64;
        late_ms.push(sent.saturating_sub(deadline) as f64 / 1e6);
        let s = tracer.begin("open.submit", i as u64);
        let outcome = target.submit(*tenant, record);
        tracer.end(s);
        returned_ns.push(origin.elapsed().as_nanos() as u64);
        acct.count(&outcome);
        scorable.push(matches!(
            outcome,
            Ok(SubmitOutcome::Accepted | SubmitOutcome::Degraded)
        ));
        for (tenant, id) in closes {
            target.close(*tenant, *id).map_err(ucad_err("close"))?;
        }
    }
    let d = tracer.begin("open.drain", 0);
    let alerts = target.drain().map_err(ucad_err("drain"))?;
    tracer.end(d);
    tracer.set_enabled(false);

    let m = &mut ctx.m;
    if let Err(msg) = acct.reconcile(&mut target, "open loop") {
        m.failures.push(msg);
    }
    let stats = target.stats().map_err(ucad_err("stats"))?;
    ctx.shed += stats.records_shed;
    ctx.restarts += stats.worker_restarts;
    m.put(
        "net.retries",
        (global_counter("ucad_net_retries_total") - retries_before) as f64,
    );
    m.put(
        "net.reconnects",
        (global_counter("ucad_net_reconnects_total") - reconnects_before) as f64,
    );
    let wal_dirs = target.wal_dirs();
    target.shutdown().map_err(ucad_err("shutdown"))?;

    // Latency over every scored record; a record shed, failed or never
    // scored misses the limit.
    let limit_ms = workload.latency_limit_ms();
    let (mut latencies, mut queue_score) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut never_scored = 0u64;
    for (seq, &ok) in scorable.iter().enumerate() {
        match completions.completed_ns(seq as u64) {
            Some(done) if ok => {
                latencies.push(done.saturating_sub(start_ns + due[seq]) as f64 / 1e6);
                queue_score.push(done.saturating_sub(returned_ns[seq]) as f64 / 1e6);
            }
            None if ok => never_scored += 1,
            _ => {}
        }
    }
    if never_scored > 0 {
        m.failures
            .push(format!("{never_scored} accepted records were never scored"));
    }
    let within = latencies.iter().filter(|&&ms| ms <= limit_ms).count();
    m.put("slo_attain", within as f64 / n.max(1) as f64);
    let latencies = sorted(latencies);
    if let Some(p50) = reportable_quantile(&latencies, 0.5) {
        m.put("lat_p50_ms", p50);
    }
    if let Some(p99) = reportable_quantile(&latencies, 0.99) {
        m.put("lat_p99_ms", p99);
    }
    m.sample("open_records", n);
    m.sample("latency_samples", latencies.len());
    m.put(
        "gen.late_p99_ms",
        quantile(&sorted(late_ms), 0.99).unwrap_or(0.0),
    );
    let queue_score = sorted(queue_score);
    m.put(
        "serve.queue_score_ms_p50",
        quantile(&queue_score, 0.5).unwrap_or(0.0),
    );
    m.put(
        "serve.queue_score_ms_p99",
        quantile(&queue_score, 0.99).unwrap_or(0.0),
    );

    let mut sample = Sample::new(SAMPLE_RECORDS);
    for round in &rounds {
        let ids: HashSet<u64> = round.sessions.iter().map(|s| s.id).collect();
        let mine: Vec<Alert> = alerts
            .iter()
            .filter(|a| ids.contains(&a.session_id))
            .cloned()
            .collect();
        ctx.quality.add(round, &mine);
        sample.add(round, &mine);
    }
    Ok(OpenOutcome {
        acct,
        never_scored,
        sample,
        rounds,
        wal_dirs,
    })
}

/// `routed-durable` only: the first round must drain what the in-process
/// engine of `fresh-stream` drains on the same records; then one daemon's
/// WAL is recovered, which replays by rescoring and must re-raise no alert
/// already drained.
fn check_routed(
    m: &mut Measured,
    tracer: &mut Tracer,
    system: &Ucad,
    (round, routed): &(Round, Vec<Alert>),
    open: &OpenOutcome,
) -> Result<(), String> {
    let mut engine = ShardedOnlineUcad::try_new(system.clone(), serve_config(SHARDS))
        .map_err(ucad_err("engine"))?;
    for (_, r) in &round.records {
        engine.try_submit(r).map_err(ucad_err("submit"))?;
    }
    for s in &round.sessions {
        engine.close_session(s.id);
    }
    let in_process = engine.drain_alerts();
    engine.shutdown();
    if let Some(msg) = first_difference(&in_process, routed) {
        m.failures.push(format!("routed vs in-process: {msg}"));
    }

    let wal_bytes: u64 = open.wal_dirs.iter().map(|d| dir_bytes(d)).sum();
    m.put(
        "wal.bytes_per_record",
        wal_bytes as f64 / open.acct.accepted.max(1) as f64,
    );
    let t0 = Instant::now();
    let span = tracer.begin("wal.recover", 0);
    let durability = Target::durability(&open.wal_dirs[0]);
    let mut recovered = ShardedOnlineUcad::recover(system.clone(), serve_config(1), durability)
        .map_err(ucad_err("recover"))?;
    tracer.end(span);
    m.put("wal.recover_s", t0.elapsed().as_secs_f64());
    let again = recovered.drain_alerts();
    recovered.shutdown();
    if !again.is_empty() {
        m.failures
            .push(format!("recovery re-raised {} drained alerts", again.len()));
    }
    Ok(())
}

/// The traced run's layer probes, then the span dump and self-time table.
/// Metrics of layers this workload does not route through read 0.
fn layer_probes(
    m: &mut Measured,
    tracer: &mut Tracer,
    args: &Args,
    scratch: &Path,
    system: &Ucad,
    training: &[Session],
    rounds: &[Round],
) -> Result<(), String> {
    tracer.set_enabled(true);
    let records: Vec<_> = rounds
        .iter()
        .flat_map(|r| r.records.iter().map(|(_, rec)| rec.clone()))
        .collect();
    let sessions = Session::from_log_records(&records);
    let mut v = probes::Values::new();
    probes::preprocess(tracer, system, &records, &sessions, &mut v);
    probes::model_and_cache(tracer, system, &sessions, &mut v);
    probes::scenario2_forward(tracer, args.seed, &mut v);
    probes::detect(tracer, system, &sessions, &mut v);
    probes::train_step(tracer, system, training, &mut v);
    // Every workload times cold tenant activation, so the tenant layer is
    // measured on the benchmarked workloads too.
    let tenants = Workload::TenantFleet.tenants() as u64;
    probes::cold_activation(tracer, system, tenants, &scratch.join("cold-probe"), &mut v)
        .map_err(ucad_err("tenant probe"))?;
    let submit = tracer.durations_us("open.submit");
    let p50 = quantile(&submit, 0.5).unwrap_or(0.0);
    let p99 = quantile(&submit, 0.99).unwrap_or(0.0);
    v.insert("serve.submit_us_p50".into(), p50);
    v.insert("serve.submit_us_p99".into(), p99);
    match args.workload {
        Workload::RoutedDurable => {
            probes::wal(tracer, &records, &scratch.join("wal-probe"), &mut v)
                .map_err(ucad_err("wal probe"))?;
            probes::frames(tracer, &records, &mut v).map_err(ucad_err("frame probe"))?;
            // Every routed submit is one synchronous round trip.
            v.insert("net.submit_rtt_us_p50".into(), p50);
            v.insert("net.submit_rtt_us_p99".into(), p99);
        }
        Workload::FreshStream | Workload::RecurringStream | Workload::TenantFleet => {}
    }
    m.values.extend(v);
    // Layers off this workload's path read 0; an unsupported latency
    // percentile stays omitted.
    for spec in PER_LAYER.iter().filter(|s| !s.name.starts_with("lat_")) {
        m.values.entry(spec.name.to_string()).or_insert(0.0);
    }
    tracer.set_enabled(false);

    let path = PathBuf::from(OUT_DIR).join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("self time by span ({}):", path.display());
    println!(
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for st in tracer.self_times() {
        println!(
            "{:<24} {:>9} {:>12.3} {:>12.3}",
            st.name, st.count, st.total_ms, st.self_ms
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SessionInfo;

    #[test]
    fn prometheus_sum_adds_every_series_of_a_family() {
        let text = "# HELP x\nucad_wal_fsyncs_total{shard=\"0\"} 3\nucad_wal_fsyncs_total{shard=\"1\"} 4\nucad_wal_fsyncs_total_other 9\n";
        assert_eq!(prometheus_sum(text, "ucad_wal_fsyncs_total"), 7.0);
        assert_eq!(prometheus_sum(text, "missing"), 0.0);
    }

    #[test]
    fn truncation_keeps_whole_prefix_and_remarks_last_records() {
        let record = |id: u64| ucad_dbsim::LogRecord {
            timestamp: 0,
            user: "u".into(),
            client_ip: "ip".into(),
            session_id: id,
            sql: "SELECT 1".into(),
            table: "t".into(),
            op: ucad_dbsim::OpKind::Select,
            rows: 0,
        };
        let info = |id: u64, last_record: usize| SessionInfo {
            id,
            tenant: 1,
            abnormal: false,
            last_record,
        };
        // Sessions 1 and 2 interleaved: 1 2 1 2 1.
        let round = Round {
            records: [1, 2, 1, 2, 1].iter().map(|&id| (1, record(id))).collect(),
            sessions: vec![info(1, 4), info(2, 3)],
        };
        let cut = truncate_rounds(vec![round.clone(), round], 3);
        assert_eq!(cut.len(), 1);
        assert_eq!(cut[0].records.len(), 3);
        assert_eq!(cut[0].sessions, vec![info(1, 2), info(2, 1)]);
    }
}
