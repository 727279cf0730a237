//! `FlatIndex` against the index it replaced, kept here as the reference:
//! entries in a FIFO deque (oldest first), `nearest` as a running maximum
//! of sequential `cosine` calls in age order, and `search` as a full sort.
//! Seeded random sequences of every operation drive both, through ring
//! wraps, exact ties, zero embeddings and partial blocks, and every answer
//! must agree down to the bits of each similarity and of each returned
//! embedding.

use std::collections::VecDeque;

use argus_embed::{cosine, embed, Embedding};
use argus_prompts::PromptGenerator;
use argus_vdb::{FlatIndex, VectorIndex};

/// The pre-block-major `FlatIndex`.
struct Reference {
    entries: VecDeque<(Embedding, u64)>,
    capacity: Option<usize>,
}

impl Reference {
    fn new(capacity: Option<usize>) -> Self {
        Reference {
            entries: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, e: Embedding, payload: u64) -> Option<u64> {
        let evicted = match self.capacity {
            Some(cap) if self.entries.len() >= cap => self.entries.pop_front().map(|(_, p)| p),
            _ => None,
        };
        self.entries.push_back((e, payload));
        evicted
    }

    /// A running maximum in age order: the strict `>` keeps the older
    /// entry on a tie.
    fn nearest(&self, query: &Embedding) -> Option<(u64, u32)> {
        let mut best: Option<(f32, u64)> = None;
        for (e, p) in &self.entries {
            let sim = cosine(query, e);
            if best.is_none_or(|(best_sim, _)| sim > best_sim) {
                best = Some((sim, *p));
            }
        }
        best.map(|(sim, p)| (p, sim.to_bits()))
    }

    /// Scores everything, sorts everything: similarity descending, then
    /// age ascending.
    fn search(&self, query: &Embedding, k: usize) -> Vec<(u64, u32)> {
        let mut scored: Vec<(f32, usize)> = self
            .entries
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
            .map(|(sim, i)| (self.entries[i].1, sim.to_bits()))
            .collect()
    }

    fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Embedding, &u64) -> bool,
    ) -> Vec<(Embedding, u64)> {
        let mut out = Vec::new();
        let mut kept = VecDeque::new();
        for (e, p) in self.entries.drain(..) {
            if pred(&e, &p) {
                out.push((e, p));
            } else {
                kept.push_back((e, p));
            }
        }
        self.entries = kept;
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<u64> {
        let mut evicted = Vec::new();
        while self.entries.len() > capacity {
            evicted.push(self.entries.pop_front().expect("len checked").1);
        }
        self.capacity = Some(capacity);
        evicted
    }
}

/// SplitMix64: a seeded stream for the operation sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bits of an embedding's coordinates and cached norm.
fn bits(e: &Embedding) -> (Vec<u32>, u32) {
    (
        e.as_slice().iter().map(|x| x.to_bits()).collect(),
        e.norm().to_bits(),
    )
}

fn hits(hits: Vec<argus_vdb::SearchHit<u64>>) -> Vec<(u64, u32)> {
    hits.into_iter()
        .map(|h| (h.payload, h.similarity.to_bits()))
        .collect()
}

fn embeddings(seed: u64, n: usize) -> Vec<Embedding> {
    PromptGenerator::new(seed)
        .generate_batch(n)
        .iter()
        .map(embed)
        .collect()
}

/// Asserts `nearest` of `flat`, inherent and through the trait, and
/// `search` at each k in `ks` equal the reference's answers.
fn assert_queries_agree(
    flat: &FlatIndex<u64>,
    reference: &Reference,
    q: &Embedding,
    ks: &[usize],
    label: &str,
) {
    let want = reference.nearest(q);
    let got = flat.nearest(q).map(|h| (h.payload, h.similarity.to_bits()));
    assert_eq!(got, want, "{label}: nearest");
    let via_trait = VectorIndex::nearest(flat, q).map(|h| (h.payload, h.similarity.to_bits()));
    assert_eq!(via_trait, want, "{label}: trait nearest");
    for &k in ks {
        assert_eq!(
            hits(flat.search(q, k)),
            reference.search(q, k),
            "{label}: search k={k}"
        );
    }
}

/// The k values a query is searched with: 0, 1, 3, len and len + 5.
fn search_ks(len: usize) -> [usize; 5] {
    [0, 1, 3, len, len + 5]
}

/// Drives both indexes through one seeded sequence of `steps`
/// operations, comparing every answer. The first half only inserts and
/// queries, so a bounded ring wraps at least twice; the second half adds
/// `extract_if` and `set_capacity`.
fn drive(capacity: Option<usize>, steps: usize, seed: u64) {
    let mut flat = match capacity {
        Some(cap) => FlatIndex::with_capacity_limit(cap),
        None => FlatIndex::new(),
    };
    let mut reference = Reference::new(capacity);
    let mut rng = Rng(seed);
    // A pool with exact duplicates (texts drawn again, and copies of
    // earlier inserts) and zero embeddings, so ties and zero rows land in
    // every lane and slot.
    let fresh = embeddings(seed ^ 0xF1A7, steps / 2 + 8);
    let zero = embed("");
    let mut inserted: Vec<Embedding> = Vec::new();
    let (mut next_payload, mut insert_evictions) = (0u64, 0usize);
    let label = |step: usize| format!("capacity {capacity:?}, seed {seed}, step {step}");
    for step in 0..steps {
        let op = if step < steps / 2 {
            // Inserts and queries only.
            [0, 80][usize::from(rng.below(100) >= 85)]
        } else {
            rng.below(100)
        };
        match op {
            // Insert: fresh, a copy of an earlier insert, or zero.
            0..=64 => {
                let e = match rng.below(10) {
                    0..=5 => fresh[rng.below(fresh.len())].clone(),
                    6..=8 if !inserted.is_empty() => inserted[rng.below(inserted.len())].clone(),
                    _ => zero.clone(),
                };
                inserted.push(e.clone());
                let payload = next_payload;
                next_payload += 1;
                let evicted = reference.insert(e.clone(), payload);
                insert_evictions += usize::from(evicted.is_some());
                assert_eq!(
                    flat.insert(e, payload),
                    evicted,
                    "{}: insert evicts FIFO",
                    label(step)
                );
            }
            // Query: an inserted embedding (exact ties), a fresh one, or
            // the zero query; `search` at one of its k values.
            65..=89 => {
                let q = match rng.below(4) {
                    0 | 1 if !inserted.is_empty() => inserted[rng.below(inserted.len())].clone(),
                    2 => fresh[rng.below(fresh.len())].clone(),
                    _ => zero.clone(),
                };
                let k = search_ks(flat.len())[rng.below(5)];
                assert_queries_agree(&flat, &reference, &q, &[k], &label(step));
            }
            // Extract a few entries, by payload residue or by a large
            // coordinate, so the predicate reads the embedding it is shown.
            90..=94 => {
                let (m, r) = (4 + rng.below(8) as u64, rng.below(4) as u64);
                let d = rng.below(64);
                let by_payload = rng.below(2) == 0;
                let mut pred = |e: &Embedding, p: &u64| {
                    if by_payload {
                        p % m == r
                    } else {
                        e.as_slice()[d] > 0.2
                    }
                };
                let got = flat.extract_if(&mut pred);
                let want = reference.extract_if(&mut pred);
                let got: Vec<_> = got.iter().map(|(e, p)| (*p, bits(e))).collect();
                let want: Vec<_> = want.iter().map(|(e, p)| (*p, bits(e))).collect();
                assert_eq!(got, want, "{}: extract_if", label(step));
            }
            // Re-cap, shrinking or growing, on bounded runs.
            _ => {
                if let Some(cap) = capacity {
                    let new_cap = [1, cap / 2, cap, cap + 1, 2 * cap][rng.below(5)].max(1);
                    assert_eq!(
                        flat.set_capacity(new_cap),
                        reference.set_capacity(new_cap),
                        "{}: set_capacity {new_cap}",
                        label(step)
                    );
                }
            }
        }
        assert_eq!(flat.len(), reference.entries.len(), "{}: len", label(step));
    }
    if let Some(cap) = capacity {
        assert!(
            insert_evictions >= 2 * cap,
            "capacity {cap}: only {insert_evictions} evictions"
        );
    }
    // Every k on the final state, then the survivors, drained oldest
    // first, are the reference's entries.
    for q in [&fresh[0], &zero] {
        let ks = search_ks(flat.len());
        assert_queries_agree(&flat, &reference, q, &ks, "final state");
    }
    let got: Vec<_> = flat
        .extract_if(|_, _| true)
        .iter()
        .map(|(e, p)| (*p, bits(e)))
        .collect();
    let want: Vec<_> = reference
        .entries
        .iter()
        .map(|(e, p)| (*p, bits(e)))
        .collect();
    assert_eq!(got, want, "capacity {capacity:?}, seed {seed}: survivors");
    assert!(flat.is_empty());
}

#[test]
fn random_operation_sequences_match_the_reference_index() {
    // Small capacities wrap the ring many times; 768 is the paper
    // testbed's cache.
    for cap in [1, 7, 8, 9, 31, 32, 33, 96] {
        for seed in [1, 2, 3] {
            drive(Some(cap), 40 * cap + 400, seed * 1000 + cap as u64);
        }
    }
    drive(Some(768), 7_000, 768);
    for seed in [11, 12] {
        drive(None, 1_500, seed);
    }
}

#[test]
fn nearest_in_an_all_negative_index_ignores_padding_lanes() {
    // Every entry scores below 0 against the query, so a zero padding lane
    // (similarity 0.0) would beat all of them if it were read. Lengths
    // cover a short last block and a short last pass. The query shares no
    // token with the prompts, so about half of them score below 0.
    let query = embed("zyxwv qponm lkjih");
    let negatives: Vec<Embedding> = embeddings(77, 800)
        .into_iter()
        .filter(|e| cosine(&query, e) < 0.0)
        .take(70)
        .collect();
    assert_eq!(negatives.len(), 70);
    for len in [1, 5, 8, 9, 31, 33, 40, 65, 70] {
        let mut flat = FlatIndex::new();
        let mut reference = Reference::new(None);
        for (i, e) in negatives[..len].iter().enumerate() {
            flat.insert(e.clone(), i as u64);
            reference.insert(e.clone(), i as u64);
        }
        let best = flat.nearest(&query).expect("non-empty");
        assert!(best.similarity < 0.0, "len {len}: {}", best.similarity);
        let ks = search_ks(len);
        assert_queries_agree(&flat, &reference, &query, &ks, &format!("len {len}"));
    }
    // The same entries through a wrapped ring.
    let mut flat = FlatIndex::with_capacity_limit(13);
    let mut reference = Reference::new(Some(13));
    for (i, e) in negatives.iter().enumerate() {
        flat.insert(e.clone(), i as u64);
        reference.insert(e.clone(), i as u64);
    }
    let ks = search_ks(13);
    assert_queries_agree(&flat, &reference, &query, &ks, "wrapped ring of 13");
}

#[test]
fn ties_after_the_ring_wraps_go_to_the_older_entry() {
    // Nine copies of one text in an 8-slot ring: the ninth takes slot 0,
    // so the oldest survivor (payload 1) sits in slot 1, and slot order
    // would pick the newest.
    let same = embed("same text");
    let mut flat = FlatIndex::with_capacity_limit(8);
    for p in 0..9u64 {
        flat.insert(same.clone(), p);
    }
    assert_eq!(flat.nearest(&same).unwrap().payload, 1);
    let order: Vec<u64> = flat.search(&same, 8).iter().map(|h| h.payload).collect();
    assert_eq!(order, (1..9).collect::<Vec<_>>());
}
