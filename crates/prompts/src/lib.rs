//! # argus-prompts — synthetic DiffusionDB-like prompt stream
//!
//! The paper drives every experiment with 10 k real prompts from
//! DiffusionDB (ref. 76), preserving arrival order. That dataset is not
//! available offline, so this crate synthesizes an equivalent stream:
//! compositional prompts ("{style} of {subject} {relation} {subject},
//! {modifiers}") drawn from a themed vocabulary, each carrying a latent
//! *complexity* in `[0, 1]` derived from its structure (object count,
//! spatial relations, attribute density).
//!
//! Complexity is the property that matters downstream: the paper's
//! Observation 1 is that *many prompts are approximation-tolerant* and that
//! "factors such as prompt complexity … may influence this". Our quality
//! oracle (crate `argus-quality`) maps complexity to per-level quality, and
//! the classifier must recover it from the text — exactly the learning
//! problem the paper's BERT classifier solves.
//!
//! Temporal drift (new themes entering the stream) is a first-class knob so
//! that Fig. 18's drift-triggered retraining is reproducible.
//!
//! The crate also owns the text path every prompt reader shares:
//! tokenizing ([`tokenize`], [`for_each_token`]), the FNV-1a hash
//! ([`fnv1a`], [`fnv1a_extend`]) and [`TokenSource`], the one read of a
//! prompt's hashed tokens and whole-text hash that the classifier
//! features, the embedding and the quality oracle make. A generated
//! [`Prompt`] carries a record of the vocabulary pieces it drew and the
//! hash of its text, and replays its tokens from a table that tokenizes
//! and hashes every piece once per process; text tokenizes as it reads.
//!
//! # Example
//!
//! ```
//! use argus_prompts::PromptGenerator;
//! let mut generator = PromptGenerator::new(42);
//! let p = generator.generate();
//! assert!(!p.text.is_empty());
//! assert!((0.0..=1.0).contains(&p.complexity));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod tokens;
pub mod vocab;

pub use generator::{DriftSchedule, PromptGenerator};
pub use tokens::TokenSource;

use tokens::Drawn;

use std::fmt;

/// Unique identifier of a prompt within a run, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PromptId(pub u64);

impl fmt::Display for PromptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A synthetic text-to-image prompt.
///
/// A prompt from [`PromptGenerator`] carries a record of what the
/// generator drew: its vocabulary pieces (4 bits each) and the FNV-1a hash
/// of its text, 16 bytes inline. Its [`TokenSource`] reads replay the
/// pieces' pre-hashed tokens instead of tokenizing `text`. Like
/// `complexity`, the record is never recomputed from `text`, so `text` must
/// not be edited after generation. A prompt of free text is built with
/// [`Prompt::from_text`]; it has no record, and its reads tokenize and hash
/// `text`. Equality compares the public fields only: the record is what
/// the text holds, not more of the prompt.
#[derive(Debug, Clone)]
pub struct Prompt {
    /// Arrival-order identifier.
    pub id: PromptId,
    /// The prompt text.
    pub text: String,
    /// Latent structural complexity in `[0, 1]`. Higher complexity means
    /// lower approximation tolerance (more objects/relations to preserve —
    /// cf. the disappearing "dog" of the paper's Fig. 6).
    pub complexity: f64,
    /// The vocabulary theme the prompt was drawn from (drives drift).
    pub theme: usize,
    /// What the generator drew; `None` for free text.
    drawn: Option<Drawn>,
}

impl PartialEq for Prompt {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.text == other.text
            && self.complexity == other.complexity
            && self.theme == other.theme
    }
}

impl Prompt {
    /// A prompt of free `text`, not drawn by the generator: its
    /// [`TokenSource`] reads tokenize and hash `text`.
    ///
    /// # Example
    ///
    /// ```
    /// use argus_prompts::{fnv1a, Prompt, PromptId, TokenSource};
    /// let p = Prompt::from_text(PromptId(0), "photo of a bear", 0.2, 0);
    /// assert_eq!(p.text_hash(), fnv1a(b"photo of a bear"));
    /// ```
    pub fn from_text(id: PromptId, text: impl Into<String>, complexity: f64, theme: usize) -> Self {
        Prompt {
            id,
            text: text.into(),
            complexity,
            theme,
            drawn: None,
        }
    }
}

/// Lower-cases and splits prompt text into word tokens, stripping
/// punctuation: the tokens [`for_each_token`] passes to the embedding and
/// the classifier feature extractor, collected into owned strings.
///
/// # Example
///
/// ```
/// let toks = argus_prompts::tokenize("A red apple, lying on a table!");
/// assert_eq!(toks, vec!["a", "red", "apple", "lying", "on", "a", "table"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_owned()));
    tokens
}

/// Calls `f` on each token [`tokenize`] would return, in order, without
/// allocating a `String` per ASCII token.
///
/// The text is split at every `char` that is not alphanumeric. An ASCII
/// token that is already lower-case is passed as a slice of `text`; one
/// with an upper-case letter is lowered into a buffer reused across
/// tokens, because ASCII lower-casing is what `str::to_lowercase` does to
/// ASCII. A non-ASCII token goes through `str::to_lowercase`, which lowers
/// a final sigma differently from a medial one and so cannot be replaced
/// by lowering each `char`.
///
/// # Example
///
/// ```
/// let mut toks = Vec::new();
/// argus_prompts::for_each_token("Neon CITY, 4K!", |t| toks.push(t.len()));
/// assert_eq!(toks, vec![4, 4, 2]);
/// ```
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    // Holds the lowered copy of each ASCII token with an upper-case letter.
    let mut lowered = String::new();
    for token in text.split(|c: char| !c.is_alphanumeric()) {
        if token.is_empty() {
            continue;
        }
        if !token.is_ascii() {
            f(&token.to_lowercase());
        } else if token.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered.clear();
            lowered.push_str(token);
            lowered.make_ascii_lowercase();
            f(&lowered);
        } else {
            f(token);
        }
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a multiplier. This is 2^44 + 0x1b3, not the published 64-bit FNV
/// prime 2^40 + 0x1b3; every embedding, feature bucket and oracle score
/// (and so every golden) is pinned to it, so it stays.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// 64-bit FNV-1a hash of `bytes`: the token and prompt hash of the
/// embedding, the classifier features and the quality oracle.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`. FNV-1a has no finalisation,
/// so `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
///
/// # Example
///
/// ```
/// use argus_prompts::{fnv1a, fnv1a_extend};
/// let left = fnv1a(b"red");
/// assert_eq!(fnv1a_extend(fnv1a_extend(left, b" "), b"apple"), fnv1a(b"red apple"));
/// ```
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokenizer before [`for_each_token`]: the reference it must match.
    fn reference_tokenize(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|s| !s.is_empty())
            .map(|s| s.to_lowercase())
            .collect()
    }

    /// FNV-1a before it moved here: one byte at a time from the basis.
    fn reference_fnv(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    fn streamed(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for_each_token(text, |t| tokens.push(t.to_owned()));
        tokens
    }

    #[test]
    fn for_each_token_matches_the_reference_tokenizer() {
        for text in [
            "",
            "   ",
            "A red apple, lying on a table!",
            "Hyper-Realistic 4K render; (masterpiece)",
            "MiXeD CaSe 8K UHD, f/1.8 -- 35mm",
            "trailing digits 2024",
            "x",
            "ΣΑΣ",
            "ΟΔΟΣ ΣΑΣ, σας",
            "Straße",
            "STRASSE straße",
            "İstanbul",
            "café ÉCLAIR, naïve",
            "漢字 and ASCII, 東京 2020",
            "emoji 🙂 separated🙂tokens",
            "Ⅻ roman ², superscripts",
            "mixed Σx and xΣ, ΣΑΣ.",
        ] {
            assert_eq!(streamed(text), reference_tokenize(text), "{text:?}");
            assert_eq!(tokenize(text), reference_tokenize(text), "{text:?}");
        }
        // Every ASCII character, as a separator and next to a token.
        for c in (0u8..128).map(char::from) {
            let text = format!("x{c}Yz{c}{c}9 {c}");
            assert_eq!(streamed(&text), reference_tokenize(&text), "{text:?}");
        }
    }

    #[test]
    fn final_sigma_lowers_by_position() {
        assert_eq!(tokenize("ΣΑΣ"), vec!["σας"]);
        assert_eq!(tokenize("İstanbul"), vec!["i\u{307}stanbul"]);
        assert_eq!(tokenize("Straße"), vec!["straße"]);
    }

    #[test]
    fn lower_case_tokens_are_borrowed_from_the_text() {
        let text = "red Apple on a TABLE";
        let range = text.as_bytes().as_ptr_range();
        let mut borrowed = Vec::new();
        for_each_token(text, |t| {
            borrowed.push(range.contains(&t.as_ptr()));
        });
        assert_eq!(borrowed, vec![true, false, true, true, false]);
    }

    #[test]
    fn fnv1a_matches_the_reference() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Not the published FNV-1a vector (0xaf63_dc4c_8601_ec8c): the
        // multiplier is `FNV_PRIME`, not the published prime.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        for text in [
            "",
            "of",
            "red apple",
            "photo of a red apple lying on a table",
        ] {
            assert_eq!(fnv1a(text.as_bytes()), reference_fnv(text.as_bytes()));
        }
    }

    #[test]
    fn fnv1a_extend_continues_the_hash() {
        let left = fnv1a(b"snowy");
        let bigram = fnv1a_extend(fnv1a_extend(left, b" "), b"forest");
        assert_eq!(bigram, fnv1a(b"snowy forest"));
        assert_eq!(fnv1a_extend(left, b""), left);
    }

    proptest! {
        #[test]
        fn prop_for_each_token_matches_reference_ascii(s in "[a-zA-Z0-9 ,.;:!?()'_@#$%&*+=/<>|~-]{0,60}") {
            prop_assert_eq!(streamed(&s), reference_tokenize(&s));
        }

        #[test]
        fn prop_for_each_token_matches_reference_unicode(
            s in "[a-zA-Z0-9 ,.ΣσςΑαΟοßẞİıÉéŒœǅⅫ²漢🙂-]{0,40}"
        ) {
            prop_assert_eq!(streamed(&s), reference_tokenize(&s));
        }
    }

    #[test]
    fn tokenize_strips_punctuation_and_lowercases() {
        assert_eq!(
            tokenize("Hyper-Realistic 4K render; (masterpiece)"),
            vec!["hyper", "realistic", "4k", "render", "masterpiece"]
        );
        assert!(tokenize("").is_empty());
        assert!(tokenize("...!!!").is_empty());
    }

    #[test]
    fn prompt_id_display() {
        assert_eq!(PromptId(17).to_string(), "p17");
    }
}
