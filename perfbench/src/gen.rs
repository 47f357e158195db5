//! Seeded inputs: the block streams (built from `blockprov_bench::flood`),
//! the history the generator knows the node holds, and the key picker.

use blockprov_bench::flood::flood_blocks;
use blockprov_ledger::{BlockHash, Chain, TxId};
use blockprov_wire::{encode_seq, Writer};

/// Transactions per generated block.
pub const TXS_PER_BLOCK: u64 = 4;

/// Distinct artifacts in the flood generator: tx `i` touches artifact
/// `i mod 256`.
pub const ARTIFACTS: u64 = 256;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`), so
    /// adding a consumer never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The flood-counter offset of a seeded stream: streams of different seeds
/// carry different transactions, so no run replays another's inputs.
pub fn stream_offset(seed: u64) -> u64 {
    (seed % 4096) * 1_000_003
}

/// One `POST /blocks` body and the number of blocks in it.
pub struct Batch {
    pub body: Vec<u8>,
    pub blocks: u64,
}

/// The canonical chain as the generator built it: block hashes by height,
/// transaction ids by position, and per-artifact record counts.
pub struct History {
    hashes: Vec<BlockHash>,
    tx_ids: Vec<TxId>,
    tip_ts: u64,
    artifact_counts: [u64; ARTIFACTS as usize],
}

impl History {
    /// The deterministic genesis every node and direct ledger starts from.
    pub fn genesis() -> Self {
        let g = Chain::genesis_block();
        Self {
            hashes: vec![g.hash()],
            tx_ids: Vec::new(),
            tip_ts: g.header.timestamp_ms,
            artifact_counts: [0; ARTIFACTS as usize],
        }
    }

    pub fn height(&self) -> u64 {
        self.hashes.len() as u64 - 1
    }

    pub fn hash_at(&self, height: u64) -> BlockHash {
        self.hashes[height as usize]
    }

    /// Transaction `pos` of the block at `height` (`height >= 1`).
    pub fn tx_at(&self, height: u64, pos: u64) -> TxId {
        self.tx_ids[((height - 1) * TXS_PER_BLOCK + pos) as usize]
    }

    /// Records the history holds for artifact `a` (`0..ARTIFACTS`).
    pub fn artifact_count(&self, a: u64) -> u64 {
        self.artifact_counts[a as usize]
    }

    /// Extend the chain by `blocks` blocks of flood traffic whose
    /// transaction counter starts at `tx_base`, cut into batches of
    /// `batch` blocks, each encoded as one `POST /blocks` body.
    pub fn extend(&mut self, blocks: u64, batch: u64, tx_base: u64) -> Vec<Batch> {
        let mut out = Vec::with_capacity(blocks.div_ceil(batch) as usize);
        let mut done = 0;
        while done < blocks {
            let n = batch.min(blocks - done);
            let chunk = flood_blocks(
                *self.hashes.last().expect("genesis is always present"),
                self.height(),
                self.tip_ts,
                n,
                TXS_PER_BLOCK,
                tx_base + done * TXS_PER_BLOCK,
            );
            for block in &chunk {
                self.hashes.push(block.hash());
                self.tx_ids.extend(block.txs.iter().map(|tx| tx.id()));
                self.tip_ts = block.header.timestamp_ms;
            }
            for t in 0..n * TXS_PER_BLOCK {
                self.artifact_counts
                    [((tx_base + done * TXS_PER_BLOCK + t) % ARTIFACTS) as usize] += 1;
            }
            let mut w = Writer::new();
            encode_seq(&chunk, &mut w);
            out.push(Batch {
                body: w.into_bytes(),
                blocks: n,
            });
            done += n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_tracks_the_stream() {
        let mut h = History::genesis();
        let batches = h.extend(10, 4, 0);
        assert_eq!(
            batches.iter().map(|b| b.blocks).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        assert_eq!(h.height(), 10);
        // Every artifact index is i mod 256 of the flood counter.
        assert_eq!(h.artifact_count(0), 1);
        assert_eq!(h.artifact_count(39), 1);
        assert_eq!(h.artifact_count(40), 0);
        let more = h.extend(2, 64, 40);
        assert_eq!(more.len(), 1);
        assert_eq!(h.height(), 12);
        assert_eq!(h.artifact_count(40), 1);
    }

    #[test]
    fn rng_streams_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
