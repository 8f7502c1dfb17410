//! Layer probes of the traced run: the benchmark calls each layer's public
//! functions on this workload's inputs inside a span, and the span
//! durations become the per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use ucad::{Detector, ScoreCache, ServeConfig, TransDas, TransDasConfig, Ucad, UcadError};
use ucad_dbsim::LogRecord;
use ucad_net::protocol::{decode_frame, decode_message, encode_message};
use ucad_net::{FrameKind, Request};
use ucad_tenant::TenantRegistry;
use ucad_trace::{ScenarioSpec, Session};
use ucad_wal::{SegmentedWal, WalOptions};

use crate::stats::quantile;
use crate::trace::Tracer;

/// Windows fed to the forward and cache probes.
const FORWARD_WINDOWS: usize = 1_500;
/// Sessions fed to the transform and detect probes.
const PROBE_SESSIONS: usize = 64;
/// Records fed to the abstraction, frame and WAL probes.
const PROBE_RECORDS: usize = 2_000;
/// WAL appends (each followed by a sync) in the WAL probe.
const WAL_APPENDS: usize = 300;
/// Scenario-II-shaped forwards.
const S2_FORWARDS: usize = 12;
/// Training steps timed.
const TRAIN_STEPS: usize = 8;
/// Cold activations timed.
const COLD_ACTIVATIONS: usize = 24;

/// Named values a probe produced.
pub type Values = BTreeMap<String, f64>;

fn put(values: &mut Values, name: &str, value: f64) {
    values.insert(name.to_string(), value);
}

/// Quantile `q` of the durations of span `name` in µs (0 when none).
fn span_us(tracer: &Tracer, name: &str, q: f64) -> f64 {
    quantile(&tracer.durations_us(name), q).unwrap_or(0.0)
}

/// FLOPs of one evaluation forward plus the score projection: per block
/// the Q/K/V and output projections and the two FFN layers (12·L·h²) and
/// attention scores and mixing (4·L²·h); then `O·Mᵀ` (2·L·h·V).
/// Softmax and layer norm are not counted.
pub fn forward_flops(cfg: &TransDasConfig) -> f64 {
    let (l, h, v) = (cfg.window as f64, cfg.hidden as f64, cfg.vocab_size as f64);
    cfg.blocks as f64 * (12.0 * l * h * h + 4.0 * l * l * h) + 2.0 * l * h * v
}

/// Preprocessing: SQL abstraction per record, session transform.
pub fn preprocess(
    tracer: &mut Tracer,
    system: &Ucad,
    records: &[LogRecord],
    sessions: &[Session],
    out: &mut Values,
) {
    for r in records.iter().take(PROBE_RECORDS) {
        tracer.span("preprocess.abstract", r.session_id, || {
            black_box(ucad_preprocess::abstract_statement(black_box(&r.sql)))
        });
    }
    for s in sessions.iter().take(PROBE_SESSIONS) {
        tracer.span("preprocess.transform", s.id, || {
            black_box(system.preprocessor.transform(black_box(s)))
        });
    }
    put(
        out,
        "preprocess.abstract_us_p50",
        span_us(tracer, "preprocess.abstract", 0.5),
    );
    put(
        out,
        "preprocess.transform_us_p50",
        span_us(tracer, "preprocess.transform", 0.5),
    );
}

/// Forward and score cache over the windows the streaming path scores
/// (each position's preceding context), in stream order: a lookup per
/// window, and a forward plus insert on a miss.
pub fn model_and_cache(tracer: &mut Tracer, system: &Ucad, sessions: &[Session], out: &mut Values) {
    let model = &system.model;
    let cache = ScoreCache::new(ServeConfig::default().cache_capacity);
    let min_context = system.detector.min_context.max(1);
    let mut windows = 0usize;
    'sessions: for s in sessions {
        let keys = system.preprocessor.transform(s);
        for t in min_context..keys.len() {
            if windows == FORWARD_WINDOWS {
                break 'sessions;
            }
            windows += 1;
            let padded = model.pad_window(&keys[..t]);
            let hit = tracer.span("cache.get", s.id, || cache.get(&padded));
            if hit.is_none() {
                let scores = tracer.span("model.forward", s.id, || model.position_scores(&padded));
                tracer.span("cache.insert", s.id, || {
                    cache.insert(padded, Arc::new(scores))
                });
            }
        }
    }
    let p50 = span_us(tracer, "model.forward", 0.5);
    put(out, "model.forward_us_p50", p50);
    put(
        out,
        "model.forward_us_p99",
        span_us(tracer, "model.forward", 0.99),
    );
    put(
        out,
        "model.forward_gflops",
        forward_flops(&model.cfg) / (p50 * 1e3).max(1e-9),
    );
    put(out, "cache.get_us_p50", span_us(tracer, "cache.get", 0.5));
}

/// A forward of the paper's Scenario-II shape (h=64, L=100, 8 heads, 6
/// blocks) on an untrained model: forward cost does not depend on the
/// weights.
pub fn scenario2_forward(tracer: &mut Tracer, seed: u64, out: &mut Values) {
    let vocab = ScenarioSpec::location_service().templates.len() + 1;
    let model = TransDas::new(TransDasConfig::scenario2(vocab));
    let mut state = seed | 1;
    for i in 0..S2_FORWARDS {
        let window: Vec<u32> = (0..model.cfg.window)
            .map(|_| {
                state = ucad::splitmix64(state);
                1 + (state % (vocab as u64 - 1)) as u32
            })
            .collect();
        tracer.span("model.forward.s2", i as u64, || {
            black_box(model.position_scores(&window))
        });
    }
    let p50 = span_us(tracer, "model.forward.s2", 0.5);
    put(out, "model.forward_us.s2", p50);
    put(
        out,
        "model.forward_gflops.s2",
        forward_flops(&model.cfg) / (p50 * 1e3).max(1e-9),
    );
}

/// Session detection through `Detector::detect_session_cached` with a
/// fresh memo.
pub fn detect(tracer: &mut Tracer, system: &Ucad, sessions: &[Session], out: &mut Values) {
    let detector = Detector::new(&system.model, system.detector);
    let cache = ScoreCache::new(ServeConfig::default().cache_capacity);
    for s in sessions.iter().take(PROBE_SESSIONS) {
        let keys = system.preprocessor.transform(s);
        tracer.span("detect.session", s.id, || {
            black_box(detector.detect_session_cached(&keys, Some(&cache)))
        });
    }
    put(
        out,
        "detect.session_us_p50",
        span_us(tracer, "detect.session", 0.5),
    );
}

/// Training steps (`TransDas::loss_and_grad`) on batches of the training
/// log's windows.
pub fn train_step(tracer: &mut Tracer, system: &Ucad, training: &[Session], out: &mut Values) {
    let mut model = system.model.clone();
    let tokenized: Vec<Vec<u32>> = training
        .iter()
        .map(|s| system.preprocessor.transform(s))
        .collect();
    let windows = model.extract_windows(&tokenized);
    for (i, batch) in windows
        .chunks(model.cfg.batch_size)
        .take(TRAIN_STEPS)
        .enumerate()
    {
        tracer.span("train.step", i as u64, || {
            black_box(model.loss_and_grad(batch, i as u64))
        });
    }
    put(
        out,
        "train.step_ms_p50",
        span_us(tracer, "train.step", 0.5) / 1e3,
    );
}

/// WAL append and sync of record-sized payloads in a scratch log.
pub fn wal(
    tracer: &mut Tracer,
    records: &[LogRecord],
    dir: &Path,
    out: &mut Values,
) -> Result<(), UcadError> {
    let opts = WalOptions {
        fsync_every: 0,
        ..WalOptions::default()
    };
    let (mut log, _) = SegmentedWal::open(dir, opts, Default::default())?;
    for (i, r) in records.iter().take(WAL_APPENDS).enumerate() {
        let payload = serde_json::to_string(r)
            .expect("records serialize")
            .into_bytes();
        tracer.span("wal.append", i as u64, || log.append(&payload))?;
        tracer.span("wal.sync", i as u64, || log.sync())?;
    }
    put(out, "wal.append_us_p50", span_us(tracer, "wal.append", 0.5));
    put(out, "wal.sync_us_p50", span_us(tracer, "wal.sync", 0.5));
    put(out, "wal.sync_us_p99", span_us(tracer, "wal.sync", 0.99));
    Ok(())
}

/// Submit-frame encode and decode.
pub fn frames(
    tracer: &mut Tracer,
    records: &[LogRecord],
    out: &mut Values,
) -> Result<(), UcadError> {
    let mut bytes_total = 0usize;
    let mut n = 0usize;
    for (i, r) in records.iter().take(PROBE_RECORDS).enumerate() {
        let request = Request::Submit {
            seq: Some(i as u64),
            record: r.clone(),
        };
        let frame = tracer.span("net.encode", i as u64, || {
            encode_message(FrameKind::Request, &request)
        });
        bytes_total += frame.len();
        n += 1;
        let decoded = tracer.span("net.decode", i as u64, || -> Result<Request, UcadError> {
            let (_, payload, _) = decode_frame(&frame)?
                .ok_or_else(|| UcadError::protocol("incomplete frame".to_string()))?;
            decode_message(&payload)
        })?;
        if decoded != request {
            return Err(UcadError::protocol("frame did not round-trip".to_string()));
        }
    }
    put(out, "net.encode_us_p50", span_us(tracer, "net.encode", 0.5));
    put(out, "net.decode_us_p50", span_us(tracer, "net.decode", 0.5));
    put(
        out,
        "net.bytes_per_record",
        bytes_total as f64 / n.max(1) as f64,
    );
    Ok(())
}

/// Cold activations: a registry with a budget of one model, so every
/// activation of a different tenant loads profile and checkpoint from
/// disk.
pub fn cold_activation(
    tracer: &mut Tracer,
    system: &Ucad,
    tenants: u64,
    dir: &Path,
    out: &mut Values,
) -> Result<(), UcadError> {
    let mut registry = TenantRegistry::open(dir, 1, ServeConfig::default().cache_capacity)?;
    for t in 1..=tenants {
        registry.register(t, &format!("probe-{t}"), system)?;
    }
    for i in 0..COLD_ACTIVATIONS {
        let tenant = 1 + (i as u64 % tenants);
        debug_assert!(!registry.is_resident(tenant));
        tracer.span("tenant.activate_cold", tenant, || registry.activate(tenant))?;
    }
    put(
        out,
        "tenant.activate_cold_ms_p50",
        span_us(tracer, "tenant.activate_cold", 0.5) / 1e3,
    );
    Ok(())
}
