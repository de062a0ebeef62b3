//! Synthetic natural-language-like text, plus the edit operators the
//! dataset generators compose.
//!
//! The text does not need to be readable — it needs the *statistical*
//! properties delta compression and chunking respond to: a Zipfian word
//! vocabulary (so block compression finds intra-record redundancy at
//! roughly Snappy-on-English rates), whitespace structure, and
//! content-defined variety (so the chunker finds healthy boundaries).

use dbdedup_util::dist::{SplitMix64, Zipf};

/// A reusable generator of word-structured text.
#[derive(Debug)]
pub struct TextGen {
    vocab: Vec<String>,
    zipf: Zipf,
}

impl TextGen {
    /// Builds a vocabulary of `words` pseudo-words from `rng`.
    pub fn new(rng: &mut SplitMix64, words: usize) -> Self {
        assert!(words >= 16);
        const SYLLABLES: [&str; 24] = [
            "ta", "re", "mi", "lo", "ven", "dar", "sil", "qua", "pos", "ner", "ul", "ка", "tion",
            "ing", "er", "pre", "con", "dis", "al", "ment", "ous", "ity", "ble", "ist",
        ];
        let mut vocab = Vec::with_capacity(words);
        for _ in 0..words {
            let n = 1 + rng.next_index(4);
            let mut w = String::new();
            for _ in 0..=n {
                w.push_str(SYLLABLES[rng.next_index(SYLLABLES.len())]);
            }
            vocab.push(w);
        }
        Self { zipf: Zipf::new(vocab.len(), 1.0), vocab }
    }

    /// One word, Zipf-distributed (common words repeat, like real text).
    pub fn word(&self, rng: &mut SplitMix64) -> &str {
        &self.vocab[self.zipf.sample(rng)]
    }

    /// One sentence of 5–17 words.
    pub fn sentence(&self, rng: &mut SplitMix64) -> String {
        let n = 5 + rng.next_index(13);
        let mut s = String::new();
        for k in 0..n {
            if k > 0 {
                s.push(' ');
            }
            s.push_str(self.word(rng));
        }
        s.push_str(". ");
        s
    }

    /// Text of approximately `target_bytes` (always ≥ 1 sentence).
    pub fn text(&self, rng: &mut SplitMix64, target_bytes: usize) -> String {
        let mut out = String::with_capacity(target_bytes + 128);
        while out.len() < target_bytes {
            out.push_str(&self.sentence(rng));
            // Paragraph breaks every ~6 sentences.
            if rng.next_bool(1.0 / 6.0) {
                out.push('\n');
            }
        }
        out
    }

    /// Applies `edits` small dispersed modifications in place — the
    /// revision pattern of wikis and post editing (Fig. 2's "small and
    /// dispersed" motif). Each edit replaces, inserts, or deletes a span of
    /// tens of bytes at a random position.
    pub fn edit(&self, rng: &mut SplitMix64, text: &mut String, edits: usize) {
        for _ in 0..edits {
            if text.is_empty() {
                text.push_str(&self.sentence(rng));
                continue;
            }
            let at = rng.next_index(text.len());
            let at = floor_char_boundary(text, at);
            match rng.next_index(3) {
                0 => {
                    // Replace a span with fresh words.
                    let span = 10 + rng.next_index(70);
                    let end = floor_char_boundary(text, (at + span).min(text.len()));
                    let repl = self.sentence(rng);
                    text.replace_range(at..end, repl.trim_end());
                }
                1 => {
                    // Insert a sentence.
                    text.insert_str(at, &self.sentence(rng));
                }
                _ => {
                    // Delete a span.
                    let span = 10 + rng.next_index(50);
                    let end = floor_char_boundary(text, (at + span).min(text.len()));
                    text.replace_range(at..end, "");
                }
            }
        }
    }

    /// Quotes `body` the way mail clients and forums do: `> ` prefixes,
    /// optionally truncated to `max_lines` lines.
    pub fn quote(&self, body: &str, max_lines: usize) -> String {
        let mut out = String::with_capacity(body.len() + 64);
        for line in body.lines().take(max_lines) {
            out.push_str("> ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Largest char boundary ≤ `at` (the vocabulary includes one non-ASCII
/// syllable on purpose, to keep the generators honest about UTF-8).
fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> (TextGen, SplitMix64) {
        let mut rng = SplitMix64::new(42);
        let t = TextGen::new(&mut rng, 800);
        (t, rng)
    }

    #[test]
    fn text_hits_target_size() {
        let (t, mut rng) = gen();
        for target in [100usize, 1_000, 50_000] {
            let s = t.text(&mut rng, target);
            assert!(s.len() >= target);
            assert!(s.len() < target + 300, "overshot: {} for {}", s.len(), target);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        let t1 = TextGen::new(&mut r1, 100);
        let t2 = TextGen::new(&mut r2, 100);
        assert_eq!(t1.text(&mut r1, 1000), t2.text(&mut r2, 1000));
    }

    #[test]
    fn edits_change_but_preserve_most_content() {
        let (t, mut rng) = gen();
        let original = t.text(&mut rng, 20_000);
        let mut edited = original.clone();
        t.edit(&mut rng, &mut edited, 5);
        assert_ne!(original, edited);
        // Most of the byte content survives (this is what makes the
        // workload dedupable): compare via a crude common-prefix+suffix.
        let prefix = original.bytes().zip(edited.bytes()).take_while(|(a, b)| a == b).count();
        assert!(prefix > 100, "edits should not rewrite the whole text");
        let size_drift = (original.len() as i64 - edited.len() as i64).unsigned_abs();
        assert!(size_drift < 2_000);
    }

    #[test]
    fn edit_on_empty_text_recovers() {
        let (t, mut rng) = gen();
        let mut s = String::new();
        t.edit(&mut rng, &mut s, 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn quote_prefixes_lines() {
        let (t, _) = gen();
        let q = t.quote("line one\nline two\nline three", 2);
        assert_eq!(q, "> line one\n> line two\n");
    }

    #[test]
    fn utf8_safety_under_heavy_editing() {
        let (t, mut rng) = gen();
        let mut s = t.text(&mut rng, 5_000);
        for _ in 0..50 {
            t.edit(&mut rng, &mut s, 10);
        }
        // Would have panicked on a bad boundary; also must stay valid UTF-8.
        assert!(std::str::from_utf8(s.as_bytes()).is_ok());
    }

    #[test]
    fn zipf_vocabulary_repeats_words() {
        let (t, mut rng) = gen();
        let text = t.text(&mut rng, 10_000);
        let words: Vec<&str> = text.split_whitespace().collect();
        let distinct: std::collections::HashSet<&str> = words.iter().copied().collect();
        assert!(distinct.len() < words.len() * 7 / 10, "vocabulary should repeat");
        // Zipf head: the most common word dominates.
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for w in &words {
            *counts.entry(w).or_default() += 1;
        }
        let top = counts.values().max().copied().unwrap_or(0);
        assert!(top > words.len() / 30, "top word should be frequent: {top}/{}", words.len());
    }
}
