//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the tiny API subset dbdedup actually uses: [`Bytes`], a cheaply
//! cloneable immutable byte buffer. Cloning shares the underlying
//! allocation through an `Arc`, which is the property the engine's caches
//! rely on (handing out record contents without copying).
//!
//! Like the real crate, a `Bytes` is a view — a range of a shared buffer —
//! so the conversions the read path makes are copy-free too:
//! `Bytes::from(Vec<u8>)` takes the vector's allocation as it is (a record
//! decoded down its delta chain), and [`Bytes::from_shared`] hands out part of a
//! buffer someone else already holds (a record's payload inside the block
//! cache's verified frame).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer from a static slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Creates a buffer by copying `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// A view of `buf[range]` that shares `buf` instead of copying it.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds of `buf` or decreasing.
    pub fn from_shared(buf: Arc<Vec<u8>>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "view {range:?} out of bounds of a {}-byte buffer",
            buf.len()
        );
        Self { buf, range }
    }

    /// A view of `self[range]` that shares the same buffer.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds of `self` or decreasing.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of a {}-byte view",
            self.len()
        );
        let start = self.range.start;
        Self { buf: Arc::clone(&self.buf), range: start + range.start..start + range.end }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes `v`'s allocation; nothing is copied.
    fn from(v: Vec<u8>) -> Self {
        let range = 0..v.len();
        Self { buf: Arc::new(v), range }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    /// The length and, escaped, up to the first 32 bytes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const SHOWN: usize = 32;
        let head = &self[..self.len().min(SHOWN)];
        let more = if self.len() > SHOWN { ".." } else { "" };
        write!(f, "Bytes({} bytes, b\"{}\"{more})", self.len(), head.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn roundtrip_and_clone_shares() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.as_ptr(), c.as_ptr(), "a clone shares the allocation");
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy"), Bytes::copy_from_slice(b"xy"));
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![7u8; 17 << 10];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 17 << 10);
    }

    #[test]
    fn a_view_shares_its_buffer_and_behaves_like_a_copy() {
        let buf = Arc::new(b"frame header|payload bytes|tail".to_vec());
        let view = Bytes::from_shared(Arc::clone(&buf), 13..26);
        let copy = Bytes::copy_from_slice(b"payload bytes");
        assert_eq!(view.as_ptr(), buf[13..].as_ptr(), "no copy");
        assert_eq!(view.len(), 13);
        assert_eq!(view, copy);
        assert_eq!(&view, &copy[..]);
        assert_eq!(hash_of(&view), hash_of(&copy));
        assert_eq!(format!("{view:?}"), format!("{copy:?}"));
        assert_eq!(format!("{view:?}"), "Bytes(13 bytes, b\"payload bytes\")");
        assert_ne!(view, Bytes::copy_from_slice(b"payload bytez"));
        // A clone of a view is the same view.
        let again = view.clone();
        assert_eq!((again.as_ptr(), again.len()), (view.as_ptr(), view.len()));
        // Empty views, at either end or in the middle.
        for at in [0, 13, buf.len()] {
            assert!(Bytes::from_shared(Arc::clone(&buf), at..at).is_empty());
        }
    }

    #[test]
    fn a_slice_of_a_view_shares_its_buffer() {
        let buf = Arc::new(b"frame header|payload bytes|tail".to_vec());
        let view = Bytes::from_shared(Arc::clone(&buf), 13..31);
        let payload = view.slice(0..13);
        assert_eq!(payload, Bytes::copy_from_slice(b"payload bytes"));
        assert_eq!(payload.as_ptr(), buf[13..].as_ptr(), "no copy");
        assert_eq!(view.slice(14..18), Bytes::copy_from_slice(b"tail"));
        assert!(view.slice(18..18).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_past_the_end_of_the_view_panics() {
        let view = Bytes::from_shared(Arc::new(vec![0u8; 8]), 2..6);
        let _ = view.slice(1..5);
    }

    #[test]
    fn debug_shows_a_bounded_escaped_prefix() {
        assert_eq!(
            format!("{:?}", Bytes::from(vec![0u8, b'a', 0xff])),
            "Bytes(3 bytes, b\"\\x00a\\xff\")"
        );
        let long = format!("{:?}", Bytes::from(vec![b'z'; 1000]));
        assert_eq!(long, format!("Bytes(1000 bytes, b\"{}\"..)", "z".repeat(32)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_view_past_the_end_panics() {
        let _ = Bytes::from_shared(Arc::new(vec![0u8; 8]), 4..9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_decreasing_view_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from_shared(Arc::new(vec![0u8; 8]), 5..4);
    }

    #[test]
    fn default_and_new_are_empty() {
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::default(), Bytes::new());
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(&Bytes::new()[..], &[] as &[u8]);
    }
}
