//! Hash functions used throughout dbDedup, implemented from scratch.
//!
//! The paper's pipeline deliberately mixes hash strengths:
//!
//! * **Rabin fingerprints** ([`rabin`]) drive content-defined chunk
//!   boundaries and the delta compressor's anchor selection. Their algebraic
//!   sliding-window property is what makes both single-pass.
//! * **MurmurHash3** ([`murmur3`]) identifies chunks for *similarity*
//!   detection. Because dbDedup delta-compresses in the final step, a false
//!   positive merely wastes a little effort — so a weak-but-fast hash is the
//!   right trade (§3.1.1 of the paper).
//! * **Adler-32** ([`adler32`]) is the cheap block checksum the classic
//!   xDelta baseline builds its source index from.
//! * **CRC-32** ([`crc32`]) frames record-store segments, the oplog file
//!   and index runs: unlike Adler-32 its detection strength does not
//!   degrade on short inputs. A carry-less-multiply fold computes it where
//!   the CPU has PCLMULQDQ, one slicing-by-16 chain everywhere else.
//! * **SHA-1** ([`sha1`]) is only used by the traditional chunk-dedup
//!   *baseline*, where a collision would corrupt data and a
//!   collision-resistant identity is mandatory.
//! * [`fx`] is a fast non-cryptographic hasher for internal hash maps.

pub mod adler32;
pub mod crc32;
pub mod fx;
pub mod gear;
pub mod murmur3;
pub mod rabin;
pub mod sha1;

pub use adler32::{adler32, RollingAdler32};
pub use crc32::{crc32, Crc32};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use gear::GearTable;
pub use murmur3::{murmur3_x64_128, murmur3_x86_32};
pub use rabin::{RabinTables, RollingRabin};
pub use sha1::{sha1, Sha1, Sha1Digest};
