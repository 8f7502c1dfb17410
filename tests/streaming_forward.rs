//! Bit-identity wall for the streaming scoring path: the context-trimmed,
//! last-row forward behind [`TransDas::next_scores_cached_flagged`] must
//! reproduce the last row of the full `L x vocab` score matrix
//! (`position_scores(pad_window(ctx)).row(L - 1)`) bit for bit, with and
//! without the score memo, for every mask mode, the positional base
//! transformer, the Scenario-I and Scenario-II shapes, and 1, 2 and 4 pool
//! threads. A second wall shares one [`ScoreCache`] between a Block and a
//! Streaming detector: neither may ever be handed the other's entry.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use ucad_model::{
    DetectionMode, Detector, DetectorConfig, MaskMode, OpVerdict, ScoreCache, ScoreKind, TransDas,
    TransDasConfig,
};
use ucad_pool::{with_pool, Pool};

/// Shared pools at the thread counts the wall sweeps.
fn pools() -> &'static [Arc<Pool>] {
    static POOLS: OnceLock<Vec<Arc<Pool>>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 4].iter().map(|&t| Arc::new(Pool::new(t))).collect())
}

/// Scenario-I-shaped models (h=10, 2 heads, 6 blocks, L=30), one per mask
/// mode plus the positional base transformer. Scores are a pure function
/// of the weights, so freshly initialized models exercise every stage.
fn scenario1_models() -> &'static [(&'static str, TransDas)] {
    static MODELS: OnceLock<Vec<(&'static str, TransDas)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let base = TransDasConfig {
            threads: 1,
            ..TransDasConfig::scenario1(24)
        };
        let with_mask = |mask| TransDas::new(TransDasConfig { mask, ..base });
        vec![
            ("trans-das", with_mask(MaskMode::TransDas)),
            ("causal", with_mask(MaskMode::Causal)),
            ("full", with_mask(MaskMode::Full)),
            (
                "base-transformer",
                TransDas::new(base.into_base_transformer()),
            ),
        ]
    })
}

/// A Scenario-II-shaped model (h=64, 8 heads, 6 blocks, L=100).
fn scenario2_model() -> &'static TransDas {
    static MODEL: OnceLock<TransDas> = OnceLock::new();
    MODEL.get_or_init(|| {
        TransDas::new(TransDasConfig {
            threads: 1,
            ..TransDasConfig::scenario2(40)
        })
    })
}

/// The context shapes every case covers, built against the model window.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Fewer keys than the window: mostly `k0` padding.
    Short,
    /// Exactly one window of keys: no padding.
    ExactlyL,
    /// More keys than the window: tail-truncated.
    Longer,
    /// Only `k0` keys (including the empty context).
    AllK0,
    /// One to three unknown statements, then known keys.
    LeadingUnknown,
    /// Known keys with one unknown statement inside.
    MidK0,
    /// Any length, with unknown statements scattered at random.
    Scattered,
}

const SHAPES: [Shape; 7] = [
    Shape::Short,
    Shape::ExactlyL,
    Shape::Longer,
    Shape::AllK0,
    Shape::LeadingUnknown,
    Shape::MidK0,
    Shape::Scattered,
];

fn context(shape: Shape, window: usize, vocab: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = vocab as u32;
    let keys = |n: usize, rng: &mut StdRng| -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(1..vocab)).collect()
    };
    match shape {
        Shape::Short => {
            let n = rng.gen_range(0..window);
            keys(n, &mut rng)
        }
        Shape::ExactlyL => keys(window, &mut rng),
        Shape::Longer => {
            let n = rng.gen_range(window + 1..=2 * window);
            keys(n, &mut rng)
        }
        Shape::AllK0 => vec![0; rng.gen_range(0..=window + 2)],
        Shape::LeadingUnknown => {
            let unknown = rng.gen_range(1..=3);
            let known = rng.gen_range(1..=window - unknown);
            let mut ctx = vec![0; unknown];
            ctx.extend(keys(known, &mut rng));
            ctx
        }
        Shape::MidK0 => {
            let n = rng.gen_range(3..=2 * window);
            let mut ctx = keys(n, &mut rng);
            let at = rng.gen_range(1..n - 1);
            ctx[at] = 0;
            ctx
        }
        Shape::Scattered => {
            let n = rng.gen_range(0..=2 * window);
            (0..n)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        0
                    } else {
                        rng.gen_range(1..vocab)
                    }
                })
                .collect()
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks one context against the full-forward reference at every pool
/// size: uncached, cache miss and cache hit must all return its bits.
fn assert_last_row_exact(name: &str, model: &TransDas, ctx: &[u32]) {
    let l = model.cfg.window;
    let reference = with_pool(Arc::clone(&pools()[0]), || {
        let full = model.position_scores(&model.pad_window(ctx));
        bits(full.row(l - 1))
    });
    for pool in pools() {
        with_pool(Arc::clone(pool), || {
            let threads = pool.threads();
            let uncached = model.next_scores(ctx);
            assert_eq!(
                bits(&uncached),
                reference,
                "{name}: uncached last row diverged at {threads} thread(s) for {ctx:?}"
            );
            let cache = ScoreCache::new(4);
            let (miss, miss_flag) = model.next_scores_cached_flagged(ctx, Some(&cache));
            let (hit, hit_flag) = model.next_scores_cached_flagged(ctx, Some(&cache));
            assert_eq!((miss_flag, hit_flag), (Some(false), Some(true)));
            assert_eq!(miss.shape(), (1, model.cfg.vocab_size));
            assert_eq!(bits(miss.data()), reference, "{name}: cache miss diverged");
            assert_eq!(bits(hit.data()), reference, "{name}: cache hit diverged");
            let (plain, flag) = model.next_scores_cached_flagged(ctx, None);
            assert_eq!(flag, None);
            assert_eq!(
                bits(plain.data()),
                reference,
                "{name}: no-cache path diverged"
            );
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn scenario1_last_row_is_bit_identical_to_the_full_forward(seed in any::<u64>()) {
        for (name, model) in scenario1_models() {
            for (i, &shape) in SHAPES.iter().enumerate() {
                let ctx = context(shape, model.cfg.window, model.cfg.vocab_size, seed ^ i as u64);
                assert_last_row_exact(name, model, &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn scenario2_last_row_is_bit_identical_to_the_full_forward(seed in any::<u64>()) {
        let model = scenario2_model();
        for (i, &shape) in SHAPES.iter().enumerate() {
            let ctx = context(shape, model.cfg.window, model.cfg.vocab_size, seed ^ i as u64);
            assert_last_row_exact("scenario2", model, &ctx);
        }
    }
}

/// Sessions long enough that Block windows and streaming contexts share
/// padded windows (a Block window `keys[t - L..t]` is the streaming context
/// of position `t`), so a leak between the two entry kinds would surface.
fn sessions(vocab: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..60)
        .map(|_| {
            let len = rng.gen_range(0..70);
            (0..len)
                .map(|_| {
                    if rng.gen_range(0..60) == 0 {
                        0
                    } else {
                        rng.gen_range(1..vocab as u32)
                    }
                })
                .collect()
        })
        .collect()
}

/// A verdict walk without its cache-hit flags, which legitimately differ
/// between a shared and a separate cache: position, verdict, rank and the
/// score's bits.
type Walk = Vec<(usize, OpVerdict, Option<usize>, Option<u32>)>;

fn walk(detector: &Detector, keys: &[u32], cache: &ScoreCache) -> Walk {
    detector
        .run_verdicts_detail(keys, 0, Some(cache))
        .iter()
        .map(|d| (d.position, d.verdict, d.rank, d.score.map(f32::to_bits)))
        .collect()
}

#[test]
fn shared_cache_keeps_block_and_streaming_entries_apart() {
    let (_, model) = &scenario1_models()[0];
    // A top-p just under the vocabulary passes every known key, so both
    // walks run deep into long sessions and cross the windows they share;
    // ranks and scores are still compared exactly.
    let detector = |mode| {
        Detector::new(
            model,
            DetectorConfig::builder()
                .top_p(model.cfg.vocab_size - 2)
                .mode(mode)
                .build()
                .expect("valid detector config"),
        )
    };
    let block = detector(DetectionMode::Block);
    let streaming = detector(DetectionMode::Streaming);
    let sessions = sessions(model.cfg.vocab_size);

    let (block_cache, streaming_cache) = (ScoreCache::new(4096), ScoreCache::new(4096));
    let shared = ScoreCache::new(4096);
    let mut abnormal = 0;
    for keys in &sessions {
        let separate = (
            walk(&block, keys, &block_cache),
            walk(&streaming, keys, &streaming_cache),
        );
        // Streaming, then Block, then both again: a Block window equal to a
        // streaming context is looked up after the other kind was inserted
        // under the same padded window, and both kinds are then re-hit.
        let s1 = walk(&streaming, keys, &shared);
        let b1 = walk(&block, keys, &shared);
        let b2 = walk(&block, keys, &shared);
        let s2 = walk(&streaming, keys, &shared);
        assert_eq!(
            (&b1, &s1),
            (&separate.0, &separate.1),
            "shared cache changed a verdict"
        );
        assert_eq!(
            (&b2, &s2),
            (&separate.0, &separate.1),
            "shared cache hit changed a verdict"
        );
        assert_eq!(
            streaming.detect_session_cached(keys, Some(&shared)),
            streaming.detect_session(keys)
        );
        abnormal += usize::from(separate.1.last().is_some_and(|v| v.1.is_abnormal()));
    }
    assert!(
        abnormal > 0 && abnormal < sessions.len(),
        "vacuous verdicts: {abnormal}"
    );

    // Every resident entry has its own kind's shape, and some padded
    // windows are resident as both kinds: the collision the wall guards.
    let (l, v) = (model.cfg.window, model.cfg.vocab_size);
    let mut both = 0;
    for keys in &sessions {
        for t in 1..=keys.len() {
            let padded = model.pad_window(&keys[..t]);
            let positions = shared.get_as(ScoreKind::Positions, &padded);
            let next_row = shared.get_as(ScoreKind::NextRow, &padded);
            if let Some(p) = &positions {
                assert_eq!(p.shape(), (l, v), "Block entry with the wrong shape");
            }
            if let Some(r) = &next_row {
                assert_eq!(r.shape(), (1, v), "Streaming entry with the wrong shape");
            }
            both += usize::from(positions.is_some() && next_row.is_some());
        }
    }
    assert!(
        both > 0,
        "no padded window is cached as both kinds: the wall is vacuous"
    );
    assert_eq!(shared.stats().evictions, 0);
}
