//! The token source every prompt reader shares, and the piece table that
//! lets a generated prompt skip tokenizing.
//!
//! The classifier features, the embedding and the quality oracle all read
//! a prompt's tokens with their FNV-1a hashes, or the hash of its whole
//! text. [`TokenSource`] is that one read. Text (`str`, `String`, or a
//! [`Prompt`] built with [`Prompt::from_text`]) splits with
//! [`for_each_token`] and hashes each token with [`fnv1a`]. A generated
//! prompt instead replays the tokens of the vocabulary pieces it drew from
//! the piece table, which tokenizes and hashes every piece once per
//! process, and returns the whole-text hash the generator took. Both give
//! the same tokens, hashes and text hash, bit for bit.

use std::num::NonZeroU64;
use std::sync::OnceLock;

use crate::vocab::{RELATIONS, THEMES};
use crate::{fnv1a, for_each_token, Prompt};

/// A prompt's text read as tokens: the one token source the classifier
/// features, the embedding and the quality oracle read.
///
/// Only [`Self::text`] is required; the other methods tokenize and hash
/// it. A generated [`Prompt`] overrides both from what it drew.
///
/// # Example
///
/// ```
/// use argus_prompts::{fnv1a, PromptGenerator, TokenSource};
/// let p = PromptGenerator::new(3).generate();
/// let (mut from_prompt, mut from_text) = (Vec::new(), Vec::new());
/// p.for_each_hashed_token(|h, t| from_prompt.push((h, t.to_owned())));
/// p.text.for_each_hashed_token(|h, t| from_text.push((h, t.to_owned())));
/// assert_eq!(from_prompt, from_text);
/// assert_eq!(p.text_hash(), fnv1a(p.text.as_bytes()));
/// ```
pub trait TokenSource {
    /// The text.
    fn text(&self) -> &str;

    /// Calls `f(fnv1a(token), token)` for each token [`for_each_token`]
    /// yields on [`Self::text`], in order.
    fn for_each_hashed_token(&self, mut f: impl FnMut(u64, &str)) {
        for_each_token(self.text(), |t| f(fnv1a(t.as_bytes()), t));
    }

    /// [`fnv1a`] of the whole text.
    fn text_hash(&self) -> u64 {
        fnv1a(self.text().as_bytes())
    }
}

impl TokenSource for str {
    fn text(&self) -> &str {
        self
    }
}

impl TokenSource for String {
    fn text(&self) -> &str {
        self
    }
}

impl<T: TokenSource + ?Sized> TokenSource for &T {
    fn text(&self) -> &str {
        (**self).text()
    }

    fn for_each_hashed_token(&self, f: impl FnMut(u64, &str)) {
        (**self).for_each_hashed_token(f);
    }

    fn text_hash(&self) -> u64 {
        (**self).text_hash()
    }
}

impl TokenSource for Prompt {
    fn text(&self) -> &str {
        &self.text
    }

    fn for_each_hashed_token(&self, f: impl FnMut(u64, &str)) {
        match self.drawn {
            Some(drawn) => drawn.draws.replay(f),
            None => self.text.as_str().for_each_hashed_token(f),
        }
    }

    fn text_hash(&self) -> u64 {
        match self.drawn {
            Some(drawn) => drawn.hash,
            None => self.text.as_str().text_hash(),
        }
    }
}

/// What the generator drew for a prompt, and the hash of the text it
/// wrote: 16 bytes inline, no heap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drawn {
    pub(crate) draws: Draws,
    /// [`fnv1a`] of the prompt's text.
    pub(crate) hash: u64,
}

/// A generated prompt's draws, four bits a field. The subject count is at
/// least one, so the packed value is never zero and `Option<Drawn>` needs
/// no tag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draws(NonZeroU64);

// Field positions, in nibbles.
const THEME: u32 = 0;
const N_SUBJECTS: u32 = 1;
const N_MODIFIERS: u32 = 2;
/// The setting's index plus one; zero means no setting.
const SETTING: u32 = 3;
const STYLE: u32 = 4;
/// Three subject fields.
const SUBJECTS: u32 = 5;
/// Two relation fields: relation `i` joins subjects `i` and `i + 1`.
const RELATIONS_AT: u32 = 8;
/// Three modifier fields.
const MODIFIERS: u32 = 10;

// Every index the generator draws fits its four-bit field: at most 16
// themes, relations and entries a list, and at most 15 settings, whose
// field holds the index plus one.
const _: () = {
    assert!(THEMES.len() <= 16 && RELATIONS.len() <= 16);
    let mut i = 0;
    while i < THEMES.len() {
        let t = &THEMES[i];
        assert!(t.styles.len() <= 16 && t.subjects.len() <= 16 && t.modifiers.len() <= 16);
        assert!(t.settings.len() <= 15);
        i += 1;
    }
};

impl Draws {
    /// Packs the indices the generator drew: into [`THEMES`], then into
    /// that theme's lists and [`RELATIONS`].
    pub(crate) fn new(
        theme: usize,
        style: usize,
        subjects: &[usize],
        relations: &[usize],
        setting: Option<usize>,
        modifiers: &[usize],
    ) -> Self {
        debug_assert!((1..=3).contains(&subjects.len()) && relations.len() == subjects.len() - 1);
        debug_assert!(modifiers.len() <= 3);
        let mut packed = 0u64;
        let mut put = |at: u32, value: usize| {
            debug_assert!(value <= 0xF, "draw {value} does not fit in four bits");
            packed |= (value as u64) << (4 * at);
        };
        put(THEME, theme);
        put(N_SUBJECTS, subjects.len());
        put(N_MODIFIERS, modifiers.len());
        put(SETTING, setting.map_or(0, |s| s + 1));
        put(STYLE, style);
        for (i, &s) in subjects.iter().enumerate() {
            put(SUBJECTS + i as u32, s);
        }
        for (i, &r) in relations.iter().enumerate() {
            put(RELATIONS_AT + i as u32, r);
        }
        for (i, &m) in modifiers.iter().enumerate() {
            put(MODIFIERS + i as u32, m);
        }
        Draws(NonZeroU64::new(packed).expect("a prompt draws at least one subject"))
    }

    fn field(self, at: u32) -> usize {
        ((self.0.get() >> (4 * at)) & 0xF) as usize
    }

    /// Calls `f(hash, token)` for each token of the text the generator
    /// wrote from these draws, in text order: the style, `of`, the first
    /// subject, each relation and the subject it joins, the setting, and
    /// the modifiers. The separators `" of "`, `" "` and `", "` hold no
    /// other token, and every separator splits, so no token spans two
    /// pieces.
    fn replay(self, mut f: impl FnMut(u64, &str)) {
        let table = piece_table();
        let theme = &table.themes[self.field(THEME)];
        let mut emit = |piece: &Piece| {
            for (h, t) in piece.iter() {
                f(*h, t);
            }
        };
        emit(&theme.styles[self.field(STYLE)]);
        emit(&table.of);
        emit(&theme.subjects[self.field(SUBJECTS)]);
        for i in 1..self.field(N_SUBJECTS) as u32 {
            emit(&table.relations[self.field(RELATIONS_AT + i - 1)]);
            emit(&theme.subjects[self.field(SUBJECTS + i)]);
        }
        if let Some(setting) = self.field(SETTING).checked_sub(1) {
            emit(&theme.settings[setting]);
        }
        for i in 0..self.field(N_MODIFIERS) as u32 {
            emit(&theme.modifiers[self.field(MODIFIERS + i)]);
        }
    }
}

/// One vocabulary piece's `(fnv1a(token), token)` pairs, in order.
type Piece = Box<[(u64, Box<str>)]>;

/// A theme's pieces, list by list, as in [`crate::vocab::Theme`].
struct ThemePieces {
    styles: Vec<Piece>,
    subjects: Vec<Piece>,
    settings: Vec<Piece>,
    modifiers: Vec<Piece>,
}

/// Every vocabulary piece tokenized and hashed: each theme's lists, the
/// relations and the `of` of the `" of "` separator.
struct PieceTable {
    themes: Vec<ThemePieces>,
    relations: Vec<Piece>,
    of: Piece,
}

/// `piece`'s tokens and their hashes, as [`TokenSource`] reads text.
fn tokenize_piece(piece: &str) -> Piece {
    let mut tokens = Vec::new();
    piece.for_each_hashed_token(|h, t| tokens.push((h, Box::from(t))));
    tokens.into_boxed_slice()
}

/// The piece table, built on first use.
fn piece_table() -> &'static PieceTable {
    static TABLE: OnceLock<PieceTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let list =
            |pieces: &[&str]| -> Vec<Piece> { pieces.iter().map(|p| tokenize_piece(p)).collect() };
        PieceTable {
            themes: THEMES
                .iter()
                .map(|t| ThemePieces {
                    styles: list(t.styles),
                    subjects: list(t.subjects),
                    settings: list(t.settings),
                    modifiers: list(t.modifiers),
                })
                .collect(),
            relations: list(RELATIONS),
            of: tokenize_piece("of"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tokenize, DriftSchedule, PromptGenerator, PromptId};

    fn pairs(source: &(impl TokenSource + ?Sized)) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        source.for_each_hashed_token(|h, t| out.push((h, t.to_owned())));
        out
    }

    /// The text path: `for_each_token`, then `fnv1a` on each token.
    fn text_pairs(text: &str) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        for_each_token(text, |t| out.push((fnv1a(t.as_bytes()), t.to_owned())));
        out
    }

    fn piece_pairs(piece: &Piece) -> Vec<(u64, String)> {
        piece.iter().map(|(h, t)| (*h, t.to_string())).collect()
    }

    #[test]
    fn the_piece_table_matches_the_text_path_on_every_piece() {
        let table = piece_table();
        assert_eq!(table.themes.len(), THEMES.len());
        for (theme, pieces) in THEMES.iter().zip(&table.themes) {
            for (words, tokenized) in [
                (theme.styles, &pieces.styles),
                (theme.subjects, &pieces.subjects),
                (theme.settings, &pieces.settings),
                (theme.modifiers, &pieces.modifiers),
            ] {
                assert_eq!(words.len(), tokenized.len(), "{}", theme.name);
                for (word, piece) in words.iter().zip(tokenized) {
                    assert!(!piece.is_empty(), "{word:?}");
                    assert_eq!(piece_pairs(piece), text_pairs(word), "{word:?}");
                }
            }
        }
        assert_eq!(table.relations.len(), RELATIONS.len());
        for (word, piece) in RELATIONS.iter().zip(&table.relations) {
            assert_eq!(piece_pairs(piece), text_pairs(word), "{word:?}");
        }
        assert_eq!(piece_pairs(&table.of), text_pairs(" of "));
        assert_eq!(
            piece_pairs(&table.of),
            vec![(fnv1a(b"of"), "of".to_owned())]
        );
    }

    /// The generator's equivalence streams: three seeds, each with no
    /// drift, a step and a ramp, 10,000 prompts a stream.
    fn streams() -> Vec<Vec<Prompt>> {
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
        let mut out = Vec::new();
        for seed in [1, 77, 2024] {
            for drift in [None, Some(step), Some(ramp)] {
                let mut g = PromptGenerator::new(seed);
                if let Some(d) = drift {
                    g = g.with_drift(d);
                }
                out.push(g.generate_batch(10_000));
            }
        }
        out
    }

    #[test]
    fn carried_tokens_are_bit_identical_to_the_text_path() {
        let mut drift_themes = 0;
        for stream in streams() {
            for p in &stream {
                assert!(p.drawn.is_some(), "{:?}", p.text);
                let carried = pairs(p);
                assert_eq!(carried, text_pairs(&p.text), "{:?}", p.text);
                let tokens: Vec<String> = carried.into_iter().map(|(_, t)| t).collect();
                assert_eq!(tokens, tokenize(&p.text));
                assert_eq!(p.text_hash(), fnv1a(p.text.as_bytes()), "{:?}", p.text);
                drift_themes += usize::from(p.theme >= crate::vocab::BASE_THEMES);
            }
        }
        // The drifted streams reach the drift themes' pieces.
        assert!(drift_themes > 10_000, "{drift_themes}");
    }

    #[test]
    fn free_text_takes_the_text_path() {
        for text in [
            "",
            "...",
            "Photo OF a Dog, NEXT to a cat!",
            "ΣΑΣ of Straße with İstanbul",
            "café ÉCLAIR, naïve 漢字 🙂 4K",
            "a red apple lying on a table",
        ] {
            let p = Prompt::from_text(PromptId(3), text, 0.5, 0);
            assert!(p.drawn.is_none());
            assert_eq!(pairs(&p), text_pairs(text), "{text:?}");
            assert_eq!(pairs(&p), pairs(text), "{text:?}");
            assert_eq!(pairs(&p), pairs(&&p), "{text:?}");
            assert_eq!(p.text_hash(), fnv1a(text.as_bytes()), "{text:?}");
            assert_eq!(TokenSource::text(&p), text);
        }
    }

    #[test]
    fn draws_pack_into_the_record() {
        assert_eq!(std::mem::size_of::<Option<Drawn>>(), 16);
        let d = Draws::new(8, 3, &[9, 0, 7], &[9, 2], Some(5), &[5, 0, 1]);
        let fields: Vec<usize> = (0..13).map(|at| d.field(at)).collect();
        assert_eq!(fields, vec![8, 3, 3, 6, 3, 9, 0, 7, 9, 2, 5, 0, 1]);
        let d = Draws::new(0, 0, &[0], &[], None, &[]);
        assert_eq!(d.field(N_SUBJECTS), 1);
        assert_eq!(d.field(SETTING), 0);
    }
}
