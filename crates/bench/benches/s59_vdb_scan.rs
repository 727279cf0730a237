//! s59 — vector-database scan cost (§4.7 retrieval path).
//!
//! Every AC-mode query pays one nearest-neighbour lookup, so the index
//! scan sits on the serving hot path. Two guards:
//!
//! * **Top-k.** `FlatIndex::search` must cost one O(n) partial selection
//!   per query, not a full O(n log n) sort: the harness times the index
//!   against an inline full-sort reference at cache-store scale and fails
//!   if the partial-selection path regresses to (or beyond) full-sort
//!   cost. It also cross-checks both against each other, and reports the
//!   LSH index for scale context.
//! * **Nearest.** At the run's shape — the 768-entry capped index of the
//!   paper testbed, pre-warmed until its FIFO ring has wrapped —
//!   `FlatIndex::nearest`, whose block-major scan scores 32 rows a pass,
//!   must give the same answer as a running maximum of sequential
//!   `cosine` calls in age order on every query, and be at least
//!   [`MIN_SPEEDUP`]× faster (min of [`ROUNDS`] interleaved rounds).
//!   `BENCH_vdb_scan.json` records both sides' spread.
//!
//! Run with `cargo bench -p argus-bench --bench s59_vdb_scan`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use argus_bench::{banner, f, print_table, BenchReport, Spread};
use argus_embed::{cosine, embed, Embedding};
use argus_prompts::PromptGenerator;
use argus_vdb::{FlatIndex, LshIndex, SearchHit};

/// Entries of the nearest-neighbour section's index: the paper testbed's
/// cache capacity.
const CAPACITY: usize = 768;
/// Embeddings written through it before timing, so its ring has wrapped
/// several times: the testbed pre-warm's offline pool.
const PREWARM: usize = 6_000;
/// Queries per timed round.
const QUERIES: usize = 2_000;
/// Interleaved rounds per side.
const ROUNDS: usize = 9;
/// The least speed-up of the block-major `nearest` over the sequential
/// reference that the guard accepts.
const MIN_SPEEDUP: f64 = 1.5;

/// The pre-optimization implementation: score everything, sort everything.
fn full_sort_search(
    entries: &[(Embedding, u64)],
    query: &Embedding,
    k: usize,
) -> Vec<SearchHit<u64>> {
    let mut scored: Vec<(f32, usize)> = entries
        .iter()
        .enumerate()
        .map(|(i, (e, _))| (cosine(query, e), i))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    scored
        .into_iter()
        .take(k)
        .map(|(similarity, i)| SearchHit {
            similarity,
            payload: entries[i].1,
        })
        .collect()
}

/// `FlatIndex::nearest` as it was before the block-major scan: the
/// entries in a FIFO deque, oldest first, and a running maximum of
/// sequential `cosine` calls whose strict `>` leaves a tie with the older
/// entry.
struct ReferenceNearest {
    entries: VecDeque<(Embedding, u64)>,
}

impl ReferenceNearest {
    fn insert(&mut self, e: Embedding, payload: u64) {
        if self.entries.len() == CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back((e, payload));
    }

    fn nearest(&self, query: &Embedding) -> Option<SearchHit<u64>> {
        let mut best: Option<(f32, u64)> = None;
        for (e, payload) in &self.entries {
            let sim = cosine(query, e);
            if best.is_none_or(|(best_sim, _)| sim > best_sim) {
                best = Some((sim, *payload));
            }
        }
        best.map(|(similarity, payload)| SearchHit {
            similarity,
            payload,
        })
    }
}

/// Microseconds per query of one pass of `nearest` over `queries`.
fn time_nearest(
    queries: &[Embedding],
    nearest: impl Fn(&Embedding) -> Option<SearchHit<u64>>,
) -> f64 {
    let t0 = Instant::now();
    for q in queries {
        black_box(nearest(black_box(q)));
    }
    t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
}

/// The nearest-neighbour guard at the run's shape. Writes
/// `BENCH_vdb_scan.json` before it judges.
fn nearest_section() {
    println!("\nnearest: {CAPACITY}-entry capped index after {PREWARM} inserts, {QUERIES} queries");
    let mut flat = FlatIndex::with_capacity_limit(CAPACITY);
    let mut reference = ReferenceNearest {
        entries: VecDeque::with_capacity(CAPACITY),
    };
    for (i, p) in PromptGenerator::new(31_011)
        .generate_batch(PREWARM)
        .iter()
        .enumerate()
    {
        let e = embed(p);
        flat.insert(e.clone(), i as u64);
        reference.insert(e, i as u64);
    }
    let queries: Vec<Embedding> = PromptGenerator::new(31_012)
        .generate_batch(QUERIES)
        .iter()
        .map(embed)
        .collect();

    // Correctness first: the same winner, down to the similarity's bits.
    for (n, q) in queries.iter().enumerate() {
        let (got, want) = (flat.nearest(q), reference.nearest(q));
        assert_eq!(
            got.as_ref().map(|h| (h.payload, h.similarity.to_bits())),
            want.as_ref().map(|h| (h.payload, h.similarity.to_bits())),
            "query {n}: block-major nearest diverged from the sequential reference"
        );
    }

    // Interleaved rounds, alternating which side runs first, after one
    // warm-up pass of each.
    time_nearest(&queries, |q| flat.nearest(q));
    time_nearest(&queries, |q| reference.nearest(q));
    let (mut flat_us, mut reference_us) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            flat_us.push(time_nearest(&queries, |q| flat.nearest(q)));
            reference_us.push(time_nearest(&queries, |q| reference.nearest(q)));
        } else {
            reference_us.push(time_nearest(&queries, |q| reference.nearest(q)));
            flat_us.push(time_nearest(&queries, |q| flat.nearest(q)));
        }
    }
    let (flat, reference) = (Spread::of(&flat_us), Spread::of(&reference_us));
    let speedup = reference.min / flat.min;
    print_table(
        &["nearest", "min µs/query", "median µs/query", "max µs/query"],
        &[
            [vec!["flat (block-major)".into()], flat.cells()].concat(),
            [vec!["sequential cosine".into()], reference.cells()].concat(),
        ],
    );
    let report = BenchReport::new("s59_vdb_scan")
        .uint("capacity", CAPACITY as u64)
        .uint("prewarm_inserts", PREWARM as u64)
        .uint("queries", QUERIES as u64)
        .uint("rounds", ROUNDS as u64);
    let report = flat.add_to(report, "nearest_us");
    let report = reference.add_to(report, "reference_us");
    report
        .float("speedup", speedup, 2)
        .float("min_speedup", MIN_SPEEDUP, 2)
        .write("BENCH_vdb_scan.json");
    assert!(
        speedup >= MIN_SPEEDUP,
        "vdb nearest regression: block-major {:.3} µs is only {speedup:.2}x the sequential {:.3} µs (min of {ROUNDS})",
        flat.min,
        reference.min
    );
    println!(
        "guard: block-major nearest {:.3} µs, {speedup:.2}x faster than sequential {:.3} µs (>= {MIN_SPEEDUP}x, min of {ROUNDS})",
        flat.min, reference.min
    );
}

fn main() {
    banner(
        "S59",
        "Retrieval scan: top-k partial selection vs full sort, block-major nearest vs sequential cosine",
        "§4.7 (vector database on the serving path)",
    );

    let n = 8192;
    let k = 8;
    let prompts = PromptGenerator::new(59).generate_batch(n);
    let mut flat = FlatIndex::new();
    let mut lsh = LshIndex::new(10, 59);
    let mut entries: Vec<(Embedding, u64)> = Vec::with_capacity(n);
    for (i, p) in prompts.iter().enumerate() {
        let e = embed(&p.text);
        flat.insert(e.clone(), i as u64);
        lsh.insert(e.clone(), i as u64);
        entries.push((e, i as u64));
    }
    let queries: Vec<Embedding> = PromptGenerator::new(60)
        .generate_batch(64)
        .iter()
        .map(|p| embed(&p.text))
        .collect();

    // Correctness first: the partial-selection path must return exactly
    // what the full sort returns, including tie order.
    for q in &queries {
        assert_eq!(flat.search(q, k), full_sort_search(&entries, q, k));
    }

    let time_per_query = |mut run: Box<dyn FnMut(&Embedding) + '_>| -> f64 {
        // Warm-up pass, then three timed rounds over all queries.
        for q in &queries {
            run(q);
        }
        let t0 = Instant::now();
        for _ in 0..3 {
            for q in &queries {
                run(q);
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / (3.0 * queries.len() as f64)
    };

    let flat_us = time_per_query(Box::new(|q| {
        std::hint::black_box(flat.search(q, k));
    }));
    let sort_us = time_per_query(Box::new(|q| {
        std::hint::black_box(full_sort_search(&entries, q, k));
    }));
    let lsh_us = time_per_query(Box::new(|q| {
        std::hint::black_box(lsh.search(q, k));
    }));

    print_table(
        &["index", "µs/query"],
        &[
            vec!["flat (partial top-k)".into(), f(flat_us, 2)],
            vec!["flat (full sort)".into(), f(sort_us, 2)],
            vec!["lsh multi-probe".into(), f(lsh_us, 2)],
        ],
    );

    // Regression guard: partial selection must not cost more than the full
    // sort it replaced (slack for timer noise).
    assert!(
        flat_us < sort_us * 1.15,
        "vdb scan regression: top-k {flat_us:.2} µs vs full sort {sort_us:.2} µs"
    );
    println!("\nguard: top-k {flat_us:.2} µs ≤ 1.15 × full-sort {sort_us:.2} µs");

    nearest_section();
}
