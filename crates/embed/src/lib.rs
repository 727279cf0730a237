//! # argus-embed — deterministic text embeddings
//!
//! Approximate caching retrieves "the most similar cached prompt" via
//! embedding similarity search (§2.1). The paper uses CLIP text embeddings
//! inside a Qdrant vector database; offline we substitute a *hashed random
//! projection* embedding: each token deterministically maps to a fixed
//! pseudo-random direction whose components are uniform in `[-1, 1)` (so
//! its norm is about √(64/3) ≈ 4.6, not 1), and a prompt embeds to the sum
//! of its token directions, normalized to unit length.
//!
//! This preserves the property the system depends on — prompts sharing
//! vocabulary land close in cosine space, unrelated prompts are near
//! orthogonal — while remaining dependency-free and bit-reproducible.
//!
//! [`embed`] reads any [`TokenSource`]: text, which it tokenizes and
//! hashes, or a generated [`argus_prompts::Prompt`], which replays the
//! pre-hashed tokens of the vocabulary pieces it drew without tokenizing.
//! Either way it adds the token directions one token at a time, in text
//! order, so a prompt and its text embed bit-identically.
//!
//! Like a real text encoder reading a fixed token table, [`embed`] looks
//! token directions up rather than rebuilding them: each thread keeps a
//! direct-mapped cache of 4096 directions keyed by the token hash (about
//! 1.1 MiB, allocated on the thread's first `embed`). A direction is a pure
//! function of its hash, so the cache never changes a result. It saves
//! time only while prompts reuse tokens: a token that misses costs
//! slightly more than it would with no cache.
//!
//! # Example
//!
//! ```
//! use argus_embed::{embed, cosine};
//! let a = embed("photo of a red apple on a table");
//! let b = embed("photo of a green apple on a table");
//! let c = embed("cyberpunk city at night, neon rain");
//! assert!(cosine(&a, &b) > cosine(&a, &c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;

use argus_prompts::TokenSource;

/// Embedding dimensionality. 64 dimensions keeps k-NN fast while making
/// unrelated-token collisions negligible for cache-retrieval purposes.
pub const DIM: usize = 64;

/// A unit-norm (or zero) prompt embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    v: [f32; DIM],
    /// Cached Euclidean norm of `v`. [`cosine`] is the hottest operation
    /// in the retrieval plane (every k-NN candidate pays one), and the
    /// norms of both operands are invariant — computing them once at
    /// construction, with the same expression, keeps the similarity
    /// bit-identical while cutting two of the three inner products per
    /// candidate.
    norm: f32,
}

impl Embedding {
    /// The zero embedding (produced by empty text).
    pub fn zero() -> Self {
        Embedding {
            v: [0.0; DIM],
            norm: 0.0,
        }
    }

    /// Wraps raw coordinates, caching their norm.
    fn from_array(v: [f32; DIM]) -> Self {
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        Embedding { v, norm }
    }

    /// The raw coordinates.
    pub fn as_slice(&self) -> &[f32] {
        &self.v
    }

    /// The raw coordinates as a fixed-size row, the shape [`for_each_dot`]
    /// scores.
    pub fn as_array(&self) -> &[f32; DIM] {
        &self.v
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.norm
    }
}

/// SplitMix64 step, used to expand a token hash into coordinates.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed pseudo-random direction of the token with FNV-1a hash `h`.
fn direction_of_hash(h: u64) -> [f32; DIM] {
    let mut state = h;
    let mut v = [0.0f32; DIM];
    for x in v.iter_mut() {
        // Map to roughly uniform in [-1, 1); distributional shape is
        // irrelevant for random projections, only independence matters.
        let bits = splitmix(&mut state);
        *x = (bits >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
    }
    v
}

/// Slots of the per-thread token-direction cache. The prompt stream's
/// working vocabulary fits: on an 85k-prompt stream 4096 slots miss on
/// about 3% of tokens (1024 slots: 8%; 16384 slots: 1.5% at 4 MiB).
const CACHE_SLOTS: usize = 4096;

/// One cache slot: the full hash it holds (`None` while empty, so an
/// empty slot never matches) and that hash's direction.
#[derive(Clone, Copy)]
struct Slot {
    hash: Option<u64>,
    dir: [f32; DIM],
}

/// Direct-mapped cache of token directions, indexed by the low bits of
/// the token hash. A miss or a collision recomputes the direction and
/// replaces the slot.
struct DirectionCache {
    slots: Vec<Slot>,
}

impl DirectionCache {
    /// An empty cache; its slots are allocated on the first lookup.
    const fn new() -> Self {
        DirectionCache { slots: Vec::new() }
    }

    /// The direction of hash `h`, equal to `direction_of_hash(h)`.
    fn direction(&mut self, h: u64) -> &[f32; DIM] {
        if self.slots.is_empty() {
            let empty = Slot {
                hash: None,
                dir: [0.0; DIM],
            };
            self.slots = vec![empty; CACHE_SLOTS];
        }
        let slot = &mut self.slots[(h % CACHE_SLOTS as u64) as usize];
        if slot.hash != Some(h) {
            *slot = Slot {
                hash: Some(h),
                dir: direction_of_hash(h),
            };
        }
        &slot.dir
    }
}

thread_local! {
    static DIRECTIONS: RefCell<DirectionCache> = const { RefCell::new(DirectionCache::new()) };
}

/// Embeds a prompt or its text into a unit-norm vector (zero vector for
/// text with no token).
pub fn embed<S: TokenSource + ?Sized>(source: &S) -> Embedding {
    DIRECTIONS.with_borrow_mut(|cache| embed_with(cache, source))
}

/// [`embed`], reading token directions through `cache`.
fn embed_with<S: TokenSource + ?Sized>(cache: &mut DirectionCache, source: &S) -> Embedding {
    let mut v = [0.0f32; DIM];
    let mut tokens = 0usize;
    // One token's direction at a time, in text order: adding the summed
    // directions of a piece instead would re-associate the `f32` adds.
    source.for_each_hashed_token(|h, _| {
        tokens += 1;
        for (a, b) in v.iter_mut().zip(cache.direction(h)) {
            *a += b;
        }
    });
    if tokens == 0 {
        return Embedding::zero();
    }
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    Embedding::from_array(v)
}

/// Cosine similarity of two embeddings, in `[-1, 1]`; 0 if either is zero.
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    let dot: f32 = a.v.iter().zip(b.v.iter()).map(|(x, y)| x * y).sum();
    cosine_of_dot(dot, a.norm, b.norm)
}

/// The cosine of two vectors with dot product `dot` and norms `na`, `nb`.
fn cosine_of_dot(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Rows one pass of [`dot_lanes`] scores.
const LANES: usize = 8;

/// The dot products of `x` with [`LANES`] rows in one pass, one row per
/// lane, each bit-identical to the sequential sum (see [`for_each_dot`]).
/// A sequential sum is one 64-long chain of dependent adds; the lanes'
/// chains are independent, so a pass costs little more than one of them.
fn dot_lanes(x: &[f32; DIM], rows: [&[f32; DIM]; LANES]) -> [f32; LANES] {
    let mut acc = [-0.0f32; LANES];
    // Rows are read four coordinates at a time, which compiles to whole
    // vector loads and an in-register transpose rather than one load per
    // product; each lane still adds in `d` order.
    for (c, xs) in x.as_chunks::<4>().0.iter().enumerate() {
        let chunks = rows.map(|r| r.as_chunks::<4>().0[c]);
        for (j, &xd) in xs.iter().enumerate() {
            for (a, chunk) in acc.iter_mut().zip(&chunks) {
                *a += xd * chunk[j];
            }
        }
    }
    acc
}

/// Feeds `items` to `pass` in blocks of [`LANES`], with each block's
/// first index and its number of real items. A short last block keeps
/// `pad` (or the previous block's items) in its spare lanes, whose
/// results the caller ignores.
fn in_blocks<T: Copy>(
    items: impl IntoIterator<Item = T>,
    pad: T,
    mut pass: impl FnMut(usize, usize, [T; LANES]),
) {
    let mut block = [pad; LANES];
    let (mut base, mut n) = (0, 0);
    for item in items {
        block[n] = item;
        n += 1;
        if n == LANES {
            pass(base, n, block);
            base += LANES;
            n = 0;
        }
    }
    if n > 0 {
        pass(base, n, block);
    }
}

/// Calls `f(i, x · row_i)` for each row in order. Rows are scored eight
/// to a pass, one per lane, each lane summing `x[d] * row[d]` in `d`
/// order from `-0.0` (where `f32`'s `Sum` starts), so every dot product
/// is bit-identical to `x.iter().zip(row).map(|(a, b)| a * b).sum()`.
pub fn for_each_dot<'a>(
    x: &[f32; DIM],
    rows: impl IntoIterator<Item = &'a [f32; DIM]>,
    mut f: impl FnMut(usize, f32),
) {
    in_blocks(rows, &[0.0; DIM], |base, n, block| {
        for (l, &dot) in dot_lanes(x, block)[..n].iter().enumerate() {
            f(base + l, dot);
        }
    });
}

/// Calls `f(i, cosine(query, e_i))` for each embedding in order, scoring
/// eight embeddings a pass like [`for_each_dot`]. Bit-identical to calling
/// [`cosine`] on each.
pub fn for_each_cosine<'a>(
    query: &Embedding,
    rows: impl IntoIterator<Item = &'a Embedding>,
    mut f: impl FnMut(usize, f32),
) {
    const PAD: Embedding = Embedding {
        v: [0.0; DIM],
        norm: 0.0,
    };
    in_blocks(rows, &PAD, |base, n, block| {
        let dots = dot_lanes(&query.v, block.map(|e| &e.v));
        for (l, (&dot, e)) in dots.iter().zip(block).take(n).enumerate() {
            f(base + l, cosine_of_dot(dot, query.norm, e.norm));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_prompts::{fnv1a, tokenize, DriftSchedule, Prompt, PromptGenerator, PromptId};
    use proptest::prelude::*;

    /// `embed` before the token-direction cache: tokenize into owned
    /// strings, hash each, and rebuild every direction from SplitMix draws.
    fn reference_embed(text: &str) -> Embedding {
        fn token_hash(token: &str) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in token.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        }
        fn token_direction(token: &str) -> [f32; DIM] {
            let mut state = token_hash(token);
            let mut v = [0.0f32; DIM];
            for x in v.iter_mut() {
                let bits = splitmix(&mut state);
                *x = (bits >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
            }
            v
        }
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return Embedding::zero();
        }
        let mut v = [0.0f32; DIM];
        for t in &tokens {
            let dir = token_direction(t);
            for (a, b) in v.iter_mut().zip(dir.iter()) {
                *a += b;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in v.iter_mut() {
                *x /= norm;
            }
        }
        Embedding::from_array(v)
    }

    /// Bit patterns of an embedding: `==` on `f32` equates -0.0 and 0.0.
    fn bits(e: &Embedding) -> (Vec<u32>, u32) {
        (
            e.as_slice().iter().map(|x| x.to_bits()).collect(),
            e.norm().to_bits(),
        )
    }

    fn bits_of(dir: &[f32; DIM]) -> Vec<u32> {
        dir.iter().map(|x| x.to_bits()).collect()
    }

    fn texts() -> Vec<String> {
        let mut texts: Vec<String> = PromptGenerator::new(13)
            .generate_batch(400)
            .into_iter()
            .map(|p| p.text)
            .collect();
        texts.extend(
            [
                "",
                "...",
                "Red APPLE, red apple",
                "ΣΑΣ Straße İstanbul",
                "a a a a",
            ]
            .map(String::from),
        );
        texts
    }

    #[test]
    fn embed_is_bit_identical_to_the_uncached_reference_cold_and_warm() {
        // The first pass starts from an empty cache; the second re-reads
        // the directions the first cached.
        let texts = texts();
        let mut cache = DirectionCache::new();
        for pass in ["cold", "warm"] {
            for text in &texts {
                let reference = bits(&reference_embed(text));
                assert_eq!(
                    bits(&embed_with(&mut cache, text)),
                    reference,
                    "{pass}: {text:?}"
                );
                assert_eq!(bits(&embed(text)), reference, "{pass}: {text:?}");
            }
        }
    }

    /// The carried-token equivalence prompts: 10,000 from each of seeds 1,
    /// 77 and 2024, with no drift, a step and a ramp.
    fn streams() -> impl Iterator<Item = Prompt> {
        let step = DriftSchedule {
            start_at: 3_000,
            ramp: 0,
            max_fraction: 0.6,
        };
        let ramp = DriftSchedule {
            start_at: 1_000,
            ramp: 6_000,
            max_fraction: 0.65,
        };
        [1, 77, 2024].into_iter().flat_map(move |seed| {
            [None, Some(step), Some(ramp)]
                .into_iter()
                .flat_map(move |drift| {
                    let mut g = PromptGenerator::new(seed);
                    if let Some(d) = drift {
                        g = g.with_drift(d);
                    }
                    (0..10_000).map(move |_| g.generate())
                })
        })
    }

    #[test]
    fn a_prompt_embeds_bit_identically_to_its_text() {
        for p in streams() {
            assert_eq!(
                bits(&embed(&p)),
                bits(&embed(p.text.as_str())),
                "{:?}",
                p.text
            );
        }
        // Free text takes the text path, and matches the reference.
        for text in [
            "",
            "...",
            "Red APPLE, red apple",
            "ΣΑΣ Straße İstanbul",
            "漢字 🙂 4K!",
        ] {
            let p = Prompt::from_text(PromptId(0), text, 0.5, 0);
            assert_eq!(bits(&embed(&p)), bits(&reference_embed(text)), "{text:?}");
        }
    }

    #[test]
    fn cache_returns_the_direction_of_raw_hashes() {
        let mut cache = DirectionCache::new();
        // Hash 0 lands in slot 0 and must not match the empty slot, whose
        // direction is all zeros; 4096 collides with 0 in slot 0.
        for h in [0u64, 1, 4096] {
            assert_eq!(bits_of(cache.direction(h)), bits_of(&direction_of_hash(h)));
        }
        assert!(direction_of_hash(0).iter().any(|&x| x != 0.0));
        assert_eq!(cache.slots.len(), CACHE_SLOTS);
    }

    #[test]
    fn colliding_hashes_fetched_alternately_keep_their_directions() {
        let mut cache = DirectionCache::new();
        let (a, b) = (7u64, 7 + 3 * CACHE_SLOTS as u64);
        for _ in 0..3 {
            for h in [a, b] {
                assert_eq!(bits_of(cache.direction(h)), bits_of(&direction_of_hash(h)));
            }
        }
    }

    /// The dot product as every scan wrote it before [`dot_lanes`].
    fn sequential_dot(x: &[f32; DIM], row: &[f32; DIM]) -> f32 {
        x.iter().zip(row.iter()).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn f32_sum_folds_from_negative_zero() {
        // `dot_lanes` starts each lane where `Sum` does; an all-`-0.0`
        // sum tells the two neutral elements apart.
        assert_eq!(
            std::iter::empty::<f32>().sum::<f32>().to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(
            [-0.0f32, -0.0].iter().sum::<f32>().to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn dot_lanes_match_the_sequential_sum_lane_by_lane() {
        let mut rows: Vec<[f32; DIM]> = texts()
            .iter()
            .map(|t| *embed(t).as_array())
            .chain((0..40u64).map(direction_of_hash))
            .collect();
        // Zero rows, and a row whose products are all `-0.0` against a
        // zero query, land in varying lanes.
        rows.insert(3, [0.0; DIM]);
        rows.insert(12, [-1.0; DIM]);
        rows.insert(21, [0.0; DIM]);
        let queries = [
            *embed("photo of a red apple on a table").as_array(),
            direction_of_hash(99),
            [0.0; DIM],
            [-0.0; DIM],
        ];
        for x in &queries {
            for block in rows.chunks_exact(LANES) {
                let block: [&[f32; DIM]; LANES] = std::array::from_fn(|l| &block[l]);
                for (l, dot) in dot_lanes(x, block).iter().enumerate() {
                    assert_eq!(
                        dot.to_bits(),
                        sequential_dot(x, block[l]).to_bits(),
                        "lane {l}"
                    );
                }
            }
            let mut seen = 0;
            for_each_dot(x, &rows, |i, dot| {
                assert_eq!(i, seen);
                assert_eq!(
                    dot.to_bits(),
                    sequential_dot(x, &rows[i]).to_bits(),
                    "row {i}"
                );
                seen += 1;
            });
            assert_eq!(seen, rows.len());
        }
    }

    #[test]
    fn for_each_cosine_matches_cosine_including_zero_embeddings() {
        let mut corpus: Vec<Embedding> = texts().iter().map(embed).collect();
        // Zero embeddings in several lanes of different blocks.
        for at in [0, 5, 9, 17, 18] {
            corpus.insert(at, Embedding::zero());
        }
        let queries = [
            embed("a painting of a castle by a river"),
            embed(""),
            corpus[40].clone(),
        ];
        for q in &queries {
            // Every corpus length, so each short last block is covered.
            for len in [0, 1, 7, 8, 9, 15, 16, 17, corpus.len()] {
                let mut seen = 0;
                for_each_cosine(q, &corpus[..len], |i, sim| {
                    assert_eq!(i, seen);
                    assert_eq!(sim.to_bits(), cosine(q, &corpus[i]).to_bits(), "entry {i}");
                    seen += 1;
                });
                assert_eq!(seen, len);
            }
        }
    }

    #[test]
    fn token_directions_are_not_unit_vectors() {
        // Components are uniform in [-1, 1), so the norm is near √(64/3).
        for token in ["a", "red", "apple", "photo", "of", "table"] {
            let dir = direction_of_hash(fnv1a(token.as_bytes()));
            let norm = dir.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((3.5..5.5).contains(&norm), "{token}: {norm}");
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let a = embed("a bear in a snowy forest");
        let b = embed("a bear in a snowy forest");
        assert_eq!(a, b);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = embed("photo of kids walking with dog");
        assert!((e.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero() {
        let e = embed("");
        assert_eq!(e, Embedding::zero());
        assert_eq!(e.norm(), 0.0);
        assert_eq!(cosine(&e, &embed("anything")), 0.0);
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let a = embed("black vase with white roses");
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shared_vocabulary_raises_similarity() {
        let apple1 = embed("photo of a red apple lying on a table");
        let apple2 = embed("photo of a shiny red apple on a wooden table");
        let city = embed("neon skyline rainy cyberpunk metropolis");
        assert!(cosine(&apple1, &apple2) > 0.5);
        // Disjoint token sets: only random-projection noise remains.
        assert!(cosine(&apple1, &city) < 0.35);
        assert!(cosine(&apple1, &city) < cosine(&apple1, &apple2));
    }

    #[test]
    fn word_order_is_ignored_bag_of_words() {
        let a = embed("red apple on table");
        let b = embed("table on apple red");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unrelated_tokens_are_near_orthogonal() {
        let a = embed("zyxwv");
        let b = embed("qponm");
        assert!(cosine(&a, &b).abs() < 0.35);
    }

    proptest! {
        #[test]
        fn prop_cosine_bounded(s1 in "[a-z ]{0,60}", s2 in "[a-z ]{0,60}") {
            let c = cosine(&embed(&s1), &embed(&s2));
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_norm_is_unit_or_zero(s in "[a-z0-9 ]{0,80}") {
            let n = embed(&s).norm();
            prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
        }
    }
}
