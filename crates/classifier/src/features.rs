//! Hashed text features for the approximation-level predictor.

use argus_prompts::{fnv1a_extend, TokenSource};

/// Default feature dimensionality (hash buckets).
pub const DEFAULT_DIM: usize = 2048;

/// Sparse hashed bag-of-n-grams features with structural extras.
///
/// Features: unigram and bigram hash buckets (counts), a token-count
/// bucket, a relation-word count, an "of" count and a bias — the
/// structural signals that correlate with the latent complexity the
/// oracle penalizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureExtractor {
    dim: usize,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor { dim: DEFAULT_DIM }
    }
}

/// Words signalling multi-object composition (raise complexity).
const RELATION_WORDS: &[&str] = &[
    "next", "top", "under", "holding", "beside", "front", "behind", "with", "against", "looking",
];

impl FeatureExtractor {
    /// Creates an extractor with `dim` hash buckets.
    ///
    /// # Panics
    /// Panics if `dim < 16`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 16, "feature dimension too small: {dim}");
        FeatureExtractor { dim }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Extracts sparse `(index, value)` features from a prompt or its
    /// text: a generated prompt's carried tokens and their text's tokens
    /// give the same features, bit for bit. Indices may repeat (hash
    /// collisions accumulate downstream).
    pub fn features<S: TokenSource + ?Sized>(&self, source: &S) -> Vec<(usize, f32)> {
        // The last 8 buckets are reserved for structural features.
        let hash_span = self.dim - 8;
        // Per-token `(unigram bucket, bucket of the bigram ending here)`;
        // tokens are non-empty and separated, so a text of n bytes has at
        // most n / 2 + 1 of them.
        let mut buckets = Vec::with_capacity(source.text().len() / 2 + 1);
        let (mut relations, mut ofs) = (0usize, 0usize);
        let mut prev: Option<u64> = None;
        source.for_each_hashed_token(|h, t| {
            // FNV-1a has no finalisation, so continuing the left
            // token's hash over " " and this token hashes the bigram
            // text "left right".
            let bigram = prev.map_or(0, |p| {
                (fnv1a_extend(fnv1a_extend(p, b" "), t.as_bytes()) as usize) % hash_span
            });
            buckets.push(((h as usize) % hash_span, bigram));
            prev = Some(h);
            relations += usize::from(RELATION_WORDS.contains(&t));
            ofs += usize::from(t == "of");
        });
        let tokens = buckets.len();
        // Unigrams, then bigrams, then the structural features: the
        // order the classifier's logits sum in.
        let mut out = Vec::with_capacity(tokens + tokens.saturating_sub(1) + 4);
        out.extend(buckets.iter().map(|&(u, _)| (u, 1.0)));
        out.extend(buckets.iter().skip(1).map(|&(_, b)| (b, 0.5)));
        // Token-count bucket (length proxies modifier/subject density).
        out.push((hash_span + (tokens / 4).min(3), 1.0));
        // Relation-word count (multi-object prompts).
        out.push((hash_span + 4, relations as f32));
        // "of" count (proxies compositional phrases).
        out.push((hash_span + 5, ofs as f32));
        // Bias feature.
        out.push((hash_span + 7, 1.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_prompts::{tokenize, PromptGenerator};

    /// The extractor before hash-once bigrams: owned tokens, each bigram
    /// formatted into a `String` and hashed from scratch.
    fn reference_features(dim: usize, text: &str) -> Vec<(usize, f32)> {
        fn fnv(bytes: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        }
        let tokens = tokenize(text);
        let mut out = Vec::with_capacity(tokens.len() * 2 + 3);
        let hash_span = dim - 8;
        for t in &tokens {
            out.push(((fnv(t.as_bytes()) as usize) % hash_span, 1.0));
        }
        for w in tokens.windows(2) {
            let bigram = format!("{} {}", w[0], w[1]);
            out.push(((fnv(bigram.as_bytes()) as usize) % hash_span, 0.5));
        }
        let len_bucket = (tokens.len() / 4).min(3);
        out.push((hash_span + len_bucket, 1.0));
        let relations = tokens
            .iter()
            .filter(|t| RELATION_WORDS.contains(&t.as_str()))
            .count();
        out.push((hash_span + 4, relations as f32));
        let ofs = tokens.iter().filter(|t| t.as_str() == "of").count();
        out.push((hash_span + 5, ofs as f32));
        out.push((hash_span + 7, 1.0));
        out
    }

    fn bits(features: &[(usize, f32)]) -> Vec<(usize, u32)> {
        features.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    #[test]
    fn features_are_bit_identical_to_the_format_bigram_reference() {
        let prompts = PromptGenerator::new(21).generate_batch(500);
        let mut texts: Vec<String> = prompts.iter().map(|p| p.text.clone()).collect();
        texts.extend(
            [
                "",
                "one",
                "Photo OF a dog NEXT to a cat, beside a bear",
                "ΣΑΣ of Straße with İstanbul",
                "of of of of of",
            ]
            .map(String::from),
        );
        for dim in [16, 257, DEFAULT_DIM] {
            let fx = FeatureExtractor::new(dim);
            for text in &texts {
                assert_eq!(
                    bits(&fx.features(text)),
                    bits(&reference_features(dim, text)),
                    "dim {dim}: {text:?}"
                );
            }
            // A generated prompt's carried tokens give its text's features.
            for p in &prompts {
                assert_eq!(
                    bits(&fx.features(p)),
                    bits(&reference_features(dim, &p.text)),
                    "dim {dim}: {:?}",
                    p.text
                );
            }
        }
    }

    #[test]
    fn features_are_deterministic_and_bounded() {
        let fx = FeatureExtractor::default();
        let a = fx.features("photo of a bear in a snowy forest");
        let b = fx.features("photo of a bear in a snowy forest");
        assert_eq!(a, b);
        for &(i, v) in &a {
            assert!(i < fx.dim());
            assert!(v.is_finite());
        }
    }

    #[test]
    fn different_texts_differ() {
        let fx = FeatureExtractor::default();
        assert_ne!(fx.features("a red apple"), fx.features("a blue sky"));
    }

    #[test]
    fn relation_words_are_counted() {
        let fx = FeatureExtractor::default();
        let span = fx.dim() - 8;
        let with_rel = fx.features("a dog next to a cat beside a bear");
        let rel_feat = with_rel.iter().find(|&&(i, _)| i == span + 4).unwrap();
        assert_eq!(rel_feat.1, 2.0);
        let without = fx.features("a lonely dog");
        let rel_feat = without.iter().find(|&&(i, _)| i == span + 4).unwrap();
        assert_eq!(rel_feat.1, 0.0);
    }

    #[test]
    fn bias_always_present() {
        let fx = FeatureExtractor::default();
        let span = fx.dim() - 8;
        for text in ["", "one", "a much longer prompt with many words included"] {
            let f = fx.features(text);
            assert!(f.iter().any(|&(i, v)| i == span + 7 && v == 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension too small")]
    fn tiny_dim_rejected() {
        let _ = FeatureExtractor::new(8);
    }
}
