//! 64-bit FNV-1a, the one content hash behind every stable identifier
//! the pipeline prints: warning ids, program hashes, warning-population
//! digests, the corpus's per-app seeds and the tests' pinned digests.
//! It is dependency-free and gives the same value on every platform and
//! run, which std's keyed hashers do not promise.

use std::hash::Hasher;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher: [`Hasher::write`] folds bytes in one
/// at a time, so writing `a` then `b` hashes the same as writing their
/// concatenation.
///
/// ```
/// use nadroid_ir::Fnv64;
/// use std::hash::Hasher;
///
/// let mut h = Fnv64::default();
/// h.write(b"ab");
/// h.write_u8(b'c');
/// assert_eq!(h.finish(), Fnv64::hash(b"abc"));
/// assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(OFFSET_BASIS)
    }
}

impl Fnv64 {
    /// The hash of `bytes` in one call.
    #[must_use]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::default();
        h.write(bytes);
        h.finish()
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
