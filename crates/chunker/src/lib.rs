//! # dbdedup-chunker
//!
//! Content-defined chunking and similarity-sketch extraction — step ① of the
//! dbDedup workflow (Fig. 3 of the paper).
//!
//! A record is divided into variable-sized chunks whose boundaries depend on
//! content, not position, so a small insertion early in a record shifts at
//! most one chunk rather than re-aligning every block ([`cdc`]). Each chunk
//! is identified with a cheap MurmurHash, and **consistent sampling** keeps
//! only the top-K hashes as the record's similarity *sketch* ([`sketch`]) —
//! bounding index memory to K entries per record regardless of chunk size,
//! which is what lets dbDedup use 64-byte chunks where exact dedup is stuck
//! at 4 KiB (§3.1.1).
//!
//! The exact-dedup baseline reuses the same chunker but indexes *every*
//! chunk under its SHA-1 identity (see `dbdedup-index`).
//!
//! ```
//! use dbdedup_chunker::{ChunkerConfig, ContentChunker, SketchExtractor};
//!
//! let chunker = ContentChunker::new(ChunkerConfig::with_avg(1024));
//! let extractor = SketchExtractor::new(chunker, 8); // the paper's K = 8
//!
//! let v1: Vec<u8> = (0..800).flat_map(|i| format!("sentence {i}. ").into_bytes()).collect();
//! let mut v2 = v1.clone();
//! v2.extend_from_slice(b"one appended sentence.");
//!
//! let (s1, s2) = (extractor.extract(&v1), extractor.extract(&v2));
//! assert!(s1.overlap(&s2) >= 7, "similar records share top-K features");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdc;
pub mod fixed;
pub mod sketch;

pub use cdc::{Chunk, ChunkerConfig, ChunkerKind, ContentChunker, RecordScan};
pub use dbdedup_util::hash::gear::{Anchor, AnchorSampler};
pub use fixed::fixed_chunks;
pub use sketch::{Sketch, SketchExtractor};
