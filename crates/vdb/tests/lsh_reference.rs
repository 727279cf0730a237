//! `LshIndex` against the index it replaced, kept here as the reference:
//! the same hyperplanes, slots, FIFO and multi-probe search, with its
//! buckets in an ordered map keyed by sign pattern where the index keeps
//! a dense table indexed by it, and `search` as a full sort. Seeded random
//! sequences of every operation drive both at 6, 8 and 10 bits, through
//! evictions, slot reuse, exact ties and zero embeddings, and every answer
//! must agree down to the bits of each similarity and of each returned
//! embedding.

use std::collections::{BTreeMap, VecDeque};

use argus_embed::{cosine, embed, for_each_dot, Embedding, DIM};
use argus_prompts::PromptGenerator;
use argus_vdb::{LshIndex, VectorIndex};

/// The hyperplanes `LshIndex::new(bits, seed)` draws: a SplitMix64
/// stream from the salted seed, each coordinate uniform in `[-1, 1)`.
fn planes(bits: usize, seed: u64) -> Vec<[f32; DIM]> {
    let mut rng = Rng(seed ^ 0x006c_7368_5f76_6462);
    (0..bits)
        .map(|_| {
            let mut plane = [0.0f32; DIM];
            for x in plane.iter_mut() {
                *x = (rng.next() >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
            }
            plane
        })
        .collect()
}

/// One live entry of the reference.
struct Entry {
    embedding: Embedding,
    payload: u64,
    bucket: u64,
    seq: u64,
}

/// The keyed-bucket `LshIndex`.
struct KeyedLsh {
    planes: Vec<[f32; DIM]>,
    buckets: BTreeMap<u64, Vec<usize>>,
    entries: Vec<Option<Entry>>,
    /// Live slots in insertion order (front = oldest).
    fifo: VecDeque<usize>,
    free: Vec<usize>,
    capacity: Option<usize>,
    next_seq: u64,
}

impl KeyedLsh {
    fn new(bits: usize, seed: u64, capacity: Option<usize>) -> Self {
        KeyedLsh {
            planes: planes(bits, seed),
            buckets: BTreeMap::new(),
            entries: Vec::new(),
            fifo: VecDeque::new(),
            free: Vec::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// Bit `b` is set where the projection on plane `b` is non-negative.
    fn bucket_of(&self, e: &Embedding) -> u64 {
        let mut key = 0u64;
        for_each_dot(e.as_array(), &self.planes, |b, dot| {
            if dot >= 0.0 {
                key |= 1 << b;
            }
        });
        key
    }

    fn evict_oldest(&mut self) -> Option<u64> {
        let slot = self.fifo.pop_front()?;
        let entry = self.entries[slot].take().expect("fifo slots are live");
        if let Some(b) = self.buckets.get_mut(&entry.bucket) {
            b.retain(|&i| i != slot);
        }
        self.free.push(slot);
        Some(entry.payload)
    }

    fn insert(&mut self, embedding: Embedding, payload: u64) -> Option<u64> {
        let evicted = match self.capacity {
            Some(cap) if self.fifo.len() >= cap => self.evict_oldest(),
            _ => None,
        };
        let bucket = self.bucket_of(&embedding);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            embedding,
            payload,
            bucket,
            seq,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s] = Some(entry);
                s
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.buckets.entry(bucket).or_default().push(slot);
        self.fifo.push_back(slot);
        evicted
    }

    /// Scores the query's bucket and its Hamming-1 neighbours, sorts
    /// everything: similarity descending, then older first.
    fn search(&self, query: &Embedding, k: usize) -> Vec<(u64, u32)> {
        let key = self.bucket_of(query);
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(b) = self.buckets.get(&key) {
            candidates.extend_from_slice(b);
        }
        for bit in 0..self.planes.len() {
            if let Some(b) = self.buckets.get(&(key ^ (1 << bit))) {
                candidates.extend_from_slice(b);
            }
        }
        let mut scored: Vec<(f32, &Entry)> = candidates
            .into_iter()
            .map(|i| {
                let e = self.entries[i].as_ref().expect("buckets hold live slots");
                (cosine(query, &e.embedding), e)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.seq.cmp(&b.1.seq))
        });
        scored
            .into_iter()
            .take(k)
            .map(|(sim, e)| (e.payload, sim.to_bits()))
            .collect()
    }

    fn nearest(&self, query: &Embedding) -> Option<(u64, u32)> {
        self.search(query, 1).first().copied()
    }

    fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Embedding, &u64) -> bool,
    ) -> Vec<(Embedding, u64)> {
        let mut out = Vec::new();
        let mut kept = VecDeque::with_capacity(self.fifo.len());
        for slot in std::mem::take(&mut self.fifo) {
            let matches = {
                let e = self.entries[slot].as_ref().expect("fifo slots are live");
                pred(&e.embedding, &e.payload)
            };
            if matches {
                let entry = self.entries[slot].take().expect("fifo slots are live");
                if let Some(b) = self.buckets.get_mut(&entry.bucket) {
                    b.retain(|&i| i != slot);
                }
                self.free.push(slot);
                out.push((entry.embedding, entry.payload));
            } else {
                kept.push_back(slot);
            }
        }
        self.fifo = kept;
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<u64> {
        let mut evicted = Vec::new();
        while self.fifo.len() > capacity {
            evicted.push(self.evict_oldest().expect("len checked"));
        }
        self.capacity = Some(capacity);
        evicted
    }

    /// The live entries, oldest first.
    fn survivors(&self) -> Vec<(u64, (Vec<u32>, u32))> {
        self.fifo
            .iter()
            .map(|&slot| {
                let e = self.entries[slot].as_ref().expect("fifo slots are live");
                (e.payload, bits(&e.embedding))
            })
            .collect()
    }
}

/// SplitMix64: the plane stream and the operation sequences.
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

/// Asserts `nearest` of `lsh`, inherent and through the trait, and
/// `search` at each k in `ks` equal the reference's answers.
fn assert_queries_agree(
    lsh: &LshIndex<u64>,
    reference: &KeyedLsh,
    q: &Embedding,
    ks: &[usize],
    label: &str,
) {
    let want = reference.nearest(q);
    let got = lsh.nearest(q).map(|h| (h.payload, h.similarity.to_bits()));
    assert_eq!(got, want, "{label}: nearest");
    let via_trait = VectorIndex::nearest(lsh, q).map(|h| (h.payload, h.similarity.to_bits()));
    assert_eq!(via_trait, want, "{label}: trait nearest");
    for &k in ks {
        assert_eq!(
            hits(lsh.search(q, k)),
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
/// queries, so a bounded index evicts at least twice its capacity; the
/// second half adds `extract_if` and `set_capacity`.
fn drive(nbits: usize, capacity: Option<usize>, steps: usize, seed: u64) {
    let index_seed = seed ^ 0x15B;
    let mut lsh = match capacity {
        Some(cap) => LshIndex::with_capacity_limit(nbits, index_seed, cap),
        None => LshIndex::new(nbits, index_seed),
    };
    let mut reference = KeyedLsh::new(nbits, index_seed, capacity);
    let mut rng = Rng(seed);
    // A pool with exact duplicates (texts drawn again, and copies of
    // earlier inserts) and zero embeddings, so ties share a bucket.
    let fresh = embeddings(seed ^ 0x15B5, steps / 2 + 8);
    let zero = embed("");
    let mut inserted: Vec<Embedding> = Vec::new();
    let (mut next_payload, mut insert_evictions) = (0u64, 0usize);
    let label =
        |step: usize| format!("bits {nbits}, capacity {capacity:?}, seed {seed}, step {step}");
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
                    lsh.insert(e, payload),
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
                let k = search_ks(lsh.len())[rng.below(5)];
                assert_queries_agree(&lsh, &reference, &q, &[k], &label(step));
            }
            // Extract a few entries, by payload residue or by a large
            // coordinate, so the predicate reads the embedding it is shown.
            90..=94 => {
                let (m, r) = (4 + rng.below(8) as u64, rng.below(4) as u64);
                let d = rng.below(DIM);
                let by_payload = rng.below(2) == 0;
                let mut pred = |e: &Embedding, p: &u64| {
                    if by_payload {
                        p % m == r
                    } else {
                        e.as_slice()[d] > 0.2
                    }
                };
                let got = lsh.extract_if(&mut pred);
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
                        lsh.set_capacity(new_cap),
                        reference.set_capacity(new_cap),
                        "{}: set_capacity {new_cap}",
                        label(step)
                    );
                }
            }
        }
        assert_eq!(lsh.len(), reference.fifo.len(), "{}: len", label(step));
    }
    if let Some(cap) = capacity {
        assert!(
            insert_evictions >= 2 * cap,
            "capacity {cap}: only {insert_evictions} evictions"
        );
    }
    // Every k on the final state, then the survivors, drained oldest
    // first, are the reference's entries.
    for q in [&fresh[0], &inserted[inserted.len() / 2], &zero] {
        let ks = search_ks(lsh.len());
        assert_queries_agree(&lsh, &reference, q, &ks, "final state");
    }
    let got: Vec<_> = lsh
        .extract_if(|_, _| true)
        .iter()
        .map(|(e, p)| (*p, bits(e)))
        .collect();
    assert_eq!(
        got,
        reference.survivors(),
        "bits {nbits}, capacity {capacity:?}, seed {seed}: survivors"
    );
    assert!(lsh.is_empty());
}

#[test]
fn random_operation_sequences_match_the_keyed_reference() {
    // Capacities 1 and 7 recycle every slot many times; 96 is the sharded
    // plane's per-replica cap at 768 / 8, and 768 the paper testbed's
    // cache.
    for nbits in [6, 8, 10] {
        for cap in [1, 7, 96] {
            for seed in [1, 2] {
                drive(nbits, Some(cap), 40 * cap + 400, seed * 1000 + cap as u64);
            }
        }
        drive(nbits, Some(768), 7_000, 768 + nbits as u64);
        drive(nbits, None, 1_500, 11 + nbits as u64);
    }
}
