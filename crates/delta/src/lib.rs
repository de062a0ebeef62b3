//! # dbdedup-delta
//!
//! Byte-level delta compression — step ④ of the dbDedup workflow and the
//! mechanism behind both directions of the two-way encoding.
//!
//! * [`ops`] — the COPY/INSERT instruction model shared by every encoder,
//!   with a compact varint wire format that a [`Delta`] *is*: one writer
//!   builds every delta ([`DeltaWriter`]), one reader parses it, and the
//!   decoder applies straight from the wire bytes
//!   ([`ops::Delta::apply_encoded`]).
//! * [`xdelta`] — the classic xDelta algorithm (MacDonald, 2000): Adler-32
//!   block index over the source, rolling-checksum scan of the target. This
//!   is the baseline of Fig. 15.
//! * [`dbdelta`] — dbDedup's optimized variant (Algorithm 1): only *anchor*
//!   offsets (gear-sampled positions) are indexed and probed, trading a
//!   tunable sliver of compression for large encoding-speed wins.
//! * [`reencode`] — the forward→backward transform (Algorithm 2): reuses
//!   the forward delta's COPY segments, read from its wire bytes, to build
//!   the backward delta at memory speed, with no checksums and no index, so
//!   the two-way encoding costs one compression pass instead of two.
//!
//! ```
//! use dbdedup_delta::{DbDeltaEncoder, reencode};
//!
//! let v1: Vec<u8> = (0..600).flat_map(|i| format!("line {i} of the doc\n").into_bytes()).collect();
//! let v2 = String::from_utf8(v1.clone()).unwrap().replace("line 77 ", "LINE 77! ").into_bytes();
//!
//! let enc = DbDeltaEncoder::default();
//! let forward = enc.encode(&v1, &v2);            // ships to replicas
//! assert_eq!(forward.apply(&v1).unwrap(), v2);
//! assert!(forward.encoded_len() < v2.len() / 20);
//!
//! let backward = reencode(&v1, forward.as_bytes()); // replaces v1 on disk
//! assert_eq!(backward.apply(&v2).unwrap(), v1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbdelta;
pub mod ops;
pub mod reencode;
pub mod xdelta;

pub use dbdelta::{DbDeltaConfig, DbDeltaEncoder};
pub use ops::{Delta, DeltaWriter};
pub use reencode::reencode;
pub use xdelta::xdelta_compress;
