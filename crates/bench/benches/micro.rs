//! Criterion micro-benchmarks of the hot control-plane paths: the solver
//! (the §5.7 <100 ms claim in bench form), ODA, PASM sampling,
//! tokenizing, embeddings, vector search, feature extraction, classifier
//! inference, oracle labelling, a drift retrain, the per-job prompt path
//! (generation, completion scoring, a cascade judgement) and raw event
//! throughput. Each text-path case that a generated prompt can skip
//! (embedding, features, prediction) is timed twice: from the text, which
//! it tokenizes and hashes, and from the `Prompt`, which replays the
//! pre-hashed tokens of the pieces it drew (the `_carried` cases).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use argus_classifier::{label_prompts, train, FeatureExtractor, TrainerConfig};
use argus_core::{oda, AllocationProblem, Discriminator, OracleDiscriminator};
use argus_des::{EventQueue, SimTime};
use argus_embed::embed;
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_prompts::{tokenize, DriftSchedule, PromptGenerator};
use argus_quality::QualityOracle;
use argus_vdb::{FlatIndex, LshIndex, ShardedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_solver(c: &mut Criterion) {
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    for workers in [8usize, 32] {
        let problem = AllocationProblem::from_ladder(
            ladder,
            GpuArch::A100,
            0.02,
            workers,
            0.8 * 26.9 * workers as f64,
        );
        c.bench_function(&format!("solver_exact_{workers}w"), |b| {
            b.iter(|| black_box(problem.solve_exact()))
        });
    }
    let problem = AllocationProblem::from_ladder(ladder, GpuArch::A100, 0.02, 8, 170.0);
    c.bench_function("solver_milp_8w", |b| {
        b.iter(|| black_box(problem.solve_milp().unwrap()))
    });
}

fn bench_oda(c: &mut Criterion) {
    let phi = [0.45, 0.20, 0.15, 0.10, 0.07, 0.03];
    let omega = [0.05, 0.10, 0.15, 0.20, 0.25, 0.25];
    c.bench_function("oda_6_levels", |b| {
        b.iter(|| black_box(oda(&phi, &omega).unwrap()))
    });
    let pasm = oda(&phi, &omega).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("pasm_sample", |b| {
        b.iter(|| black_box(pasm.sample(0, &mut rng)))
    });
}

/// Cycles through `items`, so a cached text path is timed over a prompt
/// stream rather than an all-hit repeat of one prompt.
fn cycle<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T {
    let mut i = 0;
    move || {
        i = (i + 1) % items.len();
        &items[i]
    }
}

fn bench_embedding_and_vdb(c: &mut Criterion) {
    let prompts = PromptGenerator::new(1).generate_batch(768);
    let mut next = cycle(&prompts);
    c.bench_function("tokenize", |b| b.iter(|| black_box(tokenize(&next().text))));
    let mut next = cycle(&prompts);
    c.bench_function("embed_prompt", |b| {
        b.iter(|| black_box(embed(&next().text)))
    });
    let mut next = cycle(&prompts);
    c.bench_function("embed_prompt_carried", |b| {
        b.iter(|| black_box(embed(next())))
    });
    // Twelve tokens a text, none repeated across the 480k, so every
    // token-direction lookup misses: the no-reuse cost of `embed`.
    let mut id = 0u64;
    let unseen: Vec<String> = (0..40_000)
        .map(|_| {
            let words: Vec<String> = (0..12)
                .map(|_| {
                    id += 1;
                    format!("w{id:x}z")
                })
                .collect();
            words.join(" ")
        })
        .collect();
    let mut next = cycle(&unseen);
    c.bench_function("embed_unseen_tokens", |b| {
        b.iter(|| black_box(embed(next())))
    });
    // The retrieval planes at the shapes the runs build: 768 entries in
    // an exact flat scan, in 8-bit LSH, and over 8 shards × 2 replicas
    // of 8-bit LSH with load-following caps.
    let embeddings: Vec<_> = prompts.iter().map(|p| embed(&p.text)).collect();
    let mut flat = FlatIndex::with_capacity_limit(768);
    let mut lsh = LshIndex::with_capacity_limit(8, 42, 768);
    let mut sharded = ShardedIndex::new(8, 2, 42, |_, _| {
        LshIndex::with_capacity_limit(8, 42, 768 / 8)
    })
    .with_capacity_rebalance(768, 256);
    for (i, e) in embeddings.iter().enumerate() {
        flat.insert(e.clone(), i as u64);
        lsh.insert(e.clone(), i as u64);
        sharded.insert(e.clone(), i as u64);
    }
    let mut next = cycle(&embeddings);
    c.bench_function("vdb_nearest_768", |b| {
        b.iter(|| black_box(flat.nearest(next())))
    });
    let mut next = cycle(&embeddings);
    c.bench_function("lsh_nearest_768", |b| {
        b.iter(|| black_box(lsh.nearest(next())))
    });
    let mut next = cycle(&embeddings);
    c.bench_function("sharded_nearest_8x2", |b| {
        b.iter(|| black_box(sharded.nearest_with_shard(next())))
    });
}

fn bench_classifier(c: &mut Criterion) {
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let oracle = QualityOracle::new(1);
    let pool = PromptGenerator::new(1).generate_batch(2000);
    let samples = label_prompts(&oracle, &pool, ladder);
    let (clf, _) = train(&samples, ladder.len(), &TrainerConfig::default());
    let extractor = FeatureExtractor::default();
    let mut next = cycle(&pool);
    c.bench_function("features_text", |b| {
        b.iter(|| black_box(extractor.features(&next().text)))
    });
    let mut next = cycle(&pool);
    c.bench_function("features_carried", |b| {
        b.iter(|| black_box(extractor.features(next())))
    });
    let mut next = cycle(&pool);
    c.bench_function("classifier_predict", |b| {
        b.iter(|| black_box(clf.predict(&next().text)))
    });
    let mut next = cycle(&pool);
    c.bench_function("classifier_predict_carried", |b| {
        b.iter(|| black_box(clf.predict(next())))
    });
    c.bench_function("oracle_score_ladder", |b| {
        b.iter(|| black_box(oracle.scores(&pool[7], ladder)))
    });
    let mut next = cycle(&pool);
    c.bench_function("oracle_optimal_level", |b| {
        b.iter(|| black_box(oracle.optimal_level(next(), ladder)))
    });
    // A drift retrain's shape: the last 3,000 arrivals of a drifted
    // stream, labelled by the oracle and trained at the default 8 epochs.
    let drifted = PromptGenerator::new(2)
        .with_drift(DriftSchedule {
            start_at: 0,
            ramp: 0,
            max_fraction: 0.65,
        })
        .generate_batch(3000);
    c.bench_function("classifier_retrain_3000", |b| {
        b.iter(|| {
            let samples = label_prompts(&oracle, &drifted, ladder);
            black_box(train(&samples, ladder.len(), &TrainerConfig::default()))
        })
    });
}

/// What every job pays on the prompt path: its prompt built on arrival,
/// its completion scored against its base quality, and, in a cascade,
/// its first pass judged by the discriminator (at the cheapest SM rung,
/// where cascade first passes run).
fn bench_prompt_path(c: &mut Criterion) {
    let mut generator = PromptGenerator::new(1);
    c.bench_function("prompt_generate", |b| {
        b.iter(|| black_box(generator.generate()))
    });
    let pool = PromptGenerator::new(2).generate_batch(768);
    let level = ApproxLevel::ladder(Strategy::Sm)[5];
    let oracle = QualityOracle::new(1);
    let mut next = cycle(&pool);
    c.bench_function("oracle_completion", |b| {
        b.iter(|| {
            let terms = oracle.terms(next());
            black_box((terms.score(level, 0.75), terms.base_quality()))
        })
    });
    let judge = OracleDiscriminator::new(1);
    let mut next = cycle(&pool);
    c.bench_function("discriminator_doubt", |b| {
        b.iter(|| black_box(judge.doubt(next(), level, 0.75)))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_10k_schedule_pop", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                for i in 0..10_000u32 {
                    q.schedule(SimTime::from_micros(u64::from(i % 997) * 251), i);
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_solver,
    bench_oda,
    bench_embedding_and_vdb,
    bench_classifier,
    bench_prompt_path,
    bench_event_queue
);
criterion_main!(benches);
