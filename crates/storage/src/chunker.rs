//! Splitting file contents into chunks before DAG assembly.
//!
//! Two strategies, mirroring the options real IPFS deployments choose
//! between:
//!
//! * [`Chunker::Fixed`] — fixed-size chunks. Simple and fast, but a single
//!   inserted byte shifts every later chunk boundary, so edits destroy
//!   deduplication against earlier versions.
//! * [`Chunker::ContentDefined`] — Gear-style content-defined chunking: a
//!   rolling hash over a sliding window places boundaries at positions
//!   determined by the *content*, so an insertion only re-chunks the
//!   neighbourhood of the edit and the remainder of the file deduplicates.
//!
//! The dedup ratio difference between the two is exactly what experiment
//! E14 (storage overhead under versioned writes) measures; the surveyed
//! cloud/EHR systems (Hasan \[33\], HealthBlock \[1\]) inherit whichever ratio
//! their IPFS configuration picks.

use blockprov_crypto::HmacDrbg;

/// Default target chunk size (bytes) for content-defined chunking.
pub const DEFAULT_TARGET: usize = 4096;
/// Fixed chunk size default.
pub const DEFAULT_FIXED: usize = 4096;

/// A chunk-boundary strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunker {
    /// Fixed-size chunks of the given length (last chunk may be shorter).
    Fixed(usize),
    /// Content-defined chunking with the given *target* (average) size.
    ///
    /// Minimum chunk size is `target / 4`, maximum is `target * 4`; a
    /// boundary is declared when the low `log2(target)` bits of the rolling
    /// gear hash are all zero.
    ContentDefined(usize),
}

impl Default for Chunker {
    fn default() -> Self {
        Chunker::ContentDefined(DEFAULT_TARGET)
    }
}

/// The 256-entry gear table. Deterministic (derived from a fixed seed via
/// the workspace DRBG) so that chunk boundaries — and therefore CIDs — are
/// stable across runs and platforms.
fn gear_table() -> [u64; 256] {
    let mut drbg = HmacDrbg::new(b"blockprov-storage/gear-table/v1");
    let mut table = [0u64; 256];
    for slot in table.iter_mut() {
        *slot = drbg.next_u64();
    }
    table
}

impl Chunker {
    /// Split `data` into chunk slices. Concatenating the returned slices in
    /// order always reproduces `data` exactly.
    pub fn split<'a>(&self, data: &'a [u8]) -> Vec<&'a [u8]> {
        match *self {
            Chunker::Fixed(size) => {
                let size = size.max(1);
                data.chunks(size).collect()
            }
            Chunker::ContentDefined(target) => split_gear(data, target.max(64)),
        }
    }

    /// Human-readable strategy name (used in bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            Chunker::Fixed(_) => "fixed",
            Chunker::ContentDefined(_) => "content-defined",
        }
    }
}

fn split_gear(data: &[u8], target: usize) -> Vec<&[u8]> {
    if data.is_empty() {
        return Vec::new();
    }
    let table = gear_table();
    let min = (target / 4).max(1);
    let max = target * 4;
    // Boundary when the low `bits` bits of the gear hash are zero; for a
    // geometric boundary distribution this yields a mean chunk length of
    // roughly 2^bits past the minimum.
    let bits = usize::BITS - 1 - target.leading_zeros();
    let mask: u64 = (1u64 << bits) - 1;

    let mut chunks = Vec::with_capacity(data.len() / target + 1);
    let mut start = 0usize;
    let mut hash: u64 = 0;
    let mut i = 0usize;
    while i < data.len() {
        hash = (hash << 1).wrapping_add(table[data[i] as usize]);
        let len = i - start + 1;
        if (len >= min && (hash & mask) == 0) || len >= max {
            chunks.push(&data[start..=i]);
            start = i + 1;
            hash = 0;
        }
        i += 1;
    }
    if start < data.len() {
        chunks.push(&data[start..]);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut drbg = HmacDrbg::new(&seed.to_le_bytes());
        let mut out = vec![0u8; len];
        drbg.fill_bytes(&mut out);
        out
    }

    #[test]
    fn fixed_chunks_reassemble() {
        let data = sample(10_000, 1);
        let chunks = Chunker::Fixed(1024).split(&data);
        assert_eq!(chunks.len(), 10);
        let whole: Vec<u8> = chunks.concat();
        assert_eq!(whole, data);
    }

    #[test]
    fn fixed_last_chunk_short() {
        let data = sample(2500, 2);
        let chunks = Chunker::Fixed(1024).split(&data);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].len(), 452);
    }

    #[test]
    fn cdc_chunks_reassemble() {
        let data = sample(100_000, 3);
        let chunks = Chunker::ContentDefined(2048).split(&data);
        let whole: Vec<u8> = chunks.concat();
        assert_eq!(whole, data);
        assert!(chunks.len() > 5, "expected several chunks, got {}", chunks.len());
    }

    #[test]
    fn cdc_respects_min_max() {
        let data = sample(200_000, 4);
        let target = 2048;
        let chunks = Chunker::ContentDefined(target).split(&data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= target * 4, "chunk {i} over max: {}", c.len());
            if i + 1 != chunks.len() {
                assert!(c.len() >= target / 4, "chunk {i} under min: {}", c.len());
            }
        }
    }

    #[test]
    fn cdc_is_deterministic() {
        let data = sample(50_000, 5);
        let a = Chunker::ContentDefined(4096).split(&data);
        let b = Chunker::ContentDefined(4096).split(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(Chunker::Fixed(8).split(&[]).is_empty());
        assert!(Chunker::ContentDefined(4096).split(&[]).is_empty());
    }

    /// The motivating property: after a prefix insertion, content-defined
    /// chunking re-synchronizes and most chunks are shared with the
    /// original, while fixed chunking shares (almost) nothing.
    #[test]
    fn cdc_survives_insertion_fixed_does_not() {
        let original = sample(120_000, 6);
        let mut edited = Vec::with_capacity(original.len() + 7);
        edited.extend_from_slice(&original[..500]);
        edited.extend_from_slice(b"INSERT!");
        edited.extend_from_slice(&original[500..]);

        let shared = |chunker: Chunker| -> f64 {
            use std::collections::HashSet;
            let a: HashSet<Vec<u8>> =
                chunker.split(&original).iter().map(|c| c.to_vec()).collect();
            let b: Vec<Vec<u8>> = chunker.split(&edited).iter().map(|c| c.to_vec()).collect();
            let hit = b.iter().filter(|c| a.contains(*c)).count();
            hit as f64 / b.len() as f64
        };

        let cdc_shared = shared(Chunker::ContentDefined(2048));
        let fixed_shared = shared(Chunker::Fixed(2048));
        assert!(
            cdc_shared > 0.8,
            "content-defined should re-sync after an insertion (shared {cdc_shared:.2})"
        );
        assert!(
            fixed_shared < 0.1,
            "fixed chunking should lose alignment after an insertion (shared {fixed_shared:.2})"
        );
    }
}
