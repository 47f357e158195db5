//! Pluggable block storage: the in-memory [`MemStore`] here, and (in
//! [`crate::segment`]) tiered segment storage with a bounded hot set.

use crate::block::{Block, BlockHash, Checkpoint};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// What one compaction pass reclaimed (tombstone accounting, E3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Sealed segments examined.
    pub segments_scanned: u32,
    /// Sealed segments rewritten without their dropped blocks.
    pub segments_rewritten: u32,
    /// Stale-fork blocks dropped.
    pub blocks_dropped: u64,
    /// Bytes returned to the filesystem.
    pub bytes_reclaimed: u64,
}

/// A concurrent, read-only view of a block store.
///
/// Handles are `Send + Sync` and never require `&mut` access to the owning
/// store, so query threads can fetch blocks while the writer appends.
/// Implementations serve point reads only — scans and mutation stay on the
/// owning [`BlockStore`].
pub trait BlockReader: Send + Sync {
    /// Fetch a block by hash.
    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>>;
    /// Whether a block exists.
    fn contains(&self, hash: &BlockHash) -> bool {
        self.get(hash).is_some()
    }
}

/// Backing storage for blocks (forks included).
///
/// Returned blocks are `Arc`-shared so query layers can hold references
/// without cloning transaction payloads.
///
/// Durable implementations distinguish *stored* blocks (everything ever
/// appended, `len`) from *resident* blocks (decoded copies currently held in
/// memory, `resident_blocks`) — the tiered store keeps the latter bounded by
/// its hot-set capacity while the former grows without limit.
pub trait BlockStore: Send {
    /// Persist a block.
    fn put(&mut self, block: Block) -> std::io::Result<Arc<Block>>;

    /// Persist a batch of blocks. Durable implementations override this to
    /// issue a single flush for the whole batch.
    fn put_batch(&mut self, blocks: Vec<Block>) -> std::io::Result<Vec<Arc<Block>>> {
        blocks.into_iter().map(|b| self.put(b)).collect()
    }

    /// Stage a block for a group commit: the block becomes visible to this
    /// store's own `get`/`contains` immediately but need not be durable
    /// until [`BlockStore::flush_staged`] returns. Durable implementations
    /// override this to defer the per-block flush; the default is plain
    /// `put` (immediately durable), which keeps `flush_staged` a no-op.
    fn put_staged(&mut self, block: Block) -> std::io::Result<Arc<Block>> {
        self.put(block)
    }

    /// Make every block staged since the last flush durable, with one write
    /// barrier for the whole group. Idempotent when nothing is staged.
    fn flush_staged(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Fetch a block by hash.
    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>>;
    /// Whether a block exists.
    fn contains(&self, hash: &BlockHash) -> bool;
    /// Number of stored blocks.
    fn len(&self) -> usize;
    /// True if no blocks are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total payload bytes stored (storage-overhead experiments, E3).
    fn stored_bytes(&self) -> u64;

    /// Decoded blocks currently held in memory. Defaults to `len()`: a
    /// purely in-memory store keeps everything resident.
    fn resident_blocks(&self) -> usize {
        self.len()
    }

    /// Hint that `hash` no longer needs to be hot (e.g. the chain finalized
    /// it). Stores with a memory tier evict the decoded copy; stores where
    /// memory *is* the only tier ignore the hint — dropping the block would
    /// lose it.
    fn demote(&mut self, _hash: &BlockHash) {}

    /// Reclaim storage held by blocks on forks pruned by the finality
    /// `checkpoint`: a block survives iff it lies on the canonical chain at
    /// or below the checkpoint, or descends from the checkpoint block.
    /// Stores without a reclaimable layout (in-memory, single-log) keep
    /// everything and report nothing reclaimed.
    fn compact(&mut self, _checkpoint: &Checkpoint) -> std::io::Result<CompactionStats> {
        Ok(CompactionStats::default())
    }

    /// Visit every stored block, parents before children.
    ///
    /// Durable stores stream from disk in append order (a block is only ever
    /// appended after its parent); `MemStore` sorts by height. Used by
    /// chain replay after restart.
    fn scan(&self, visit: &mut dyn FnMut(Arc<Block>)) -> std::io::Result<()>;

    /// Visit every stored block's `(height, hash)` in [`BlockStore::scan`]
    /// order, without the obligation to decode transaction bodies.
    ///
    /// Snapshot fast-start uses this to find the non-finalized suffix: the
    /// durable backends override it to decode headers only, so a restart
    /// pays header-decode cost over history instead of full block decode +
    /// re-validation. Default delegates to `scan`.
    fn scan_headers(&self, visit: &mut dyn FnMut(u64, BlockHash)) -> std::io::Result<()> {
        self.scan(&mut |b| visit(b.header.height, b.hash()))
    }

    /// Visit at least every stored header with height strictly greater than
    /// `min_height`, in [`BlockStore::scan`] order. Implementations may
    /// over-visit (headers at or below the fence may appear); callers
    /// filter.
    ///
    /// This is the manifest payoff: the segment store skips whole sealed
    /// files whose height fence sits at or below `min_height`, so snapshot
    /// fast-start reads O(finality window) bytes instead of O(history).
    /// The default delegates to `scan_headers` (no skipping).
    fn scan_headers_from(
        &self,
        _min_height: u64,
        visit: &mut dyn FnMut(u64, BlockHash),
    ) -> std::io::Result<()> {
        self.scan_headers(visit)
    }

    /// A concurrent read handle over this store.
    fn reader(&self) -> Arc<dyn BlockReader>;
}

/// Shard count for [`MemStore`]'s concurrent map.
const MEM_STORE_SHARDS: usize = 8;

/// Hash-sharded block map shared between a [`MemStore`] and its readers.
type MemShards = Arc<Vec<RwLock<HashMap<BlockHash, (Arc<Block>, u64)>>>>;

fn mem_shard(shards: &MemShards, hash: &BlockHash) -> usize {
    (crate::index::route_hash(hash.0.as_bytes()) % shards.len() as u64) as usize
}

/// Volatile in-memory store, sharded so [`MemStore::reader`] handles can
/// fetch blocks concurrently with the writer.
#[derive(Debug)]
pub struct MemStore {
    /// Block plus its insertion sequence number (scan order).
    blocks: MemShards,
    next_seq: u64,
    bytes: u64,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self {
            blocks: Arc::new(
                (0..MEM_STORE_SHARDS)
                    .map(|_| RwLock::new(HashMap::new()))
                    .collect(),
            ),
            next_seq: 0,
            bytes: 0,
        }
    }
}

/// Concurrent point-read handle over a [`MemStore`]'s shards. Readers take
/// one shard read-lock per fetch; the writer write-locks only the shard it
/// inserts into.
#[derive(Debug, Clone)]
pub struct MemReader {
    blocks: MemShards,
}

impl BlockReader for MemReader {
    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        self.blocks[mem_shard(&self.blocks, hash)]
            .read()
            .expect("mem shard poisoned")
            .get(hash)
            .map(|(b, _)| Arc::clone(b))
    }
}

impl BlockStore for MemStore {
    fn put(&mut self, block: Block) -> std::io::Result<Arc<Block>> {
        let hash = block.hash();
        let shard = mem_shard(&self.blocks, &hash);
        let mut map = self.blocks[shard].write().expect("mem shard poisoned");
        if let Some((existing, _)) = map.get(&hash) {
            return Ok(Arc::clone(existing));
        }
        let arc = Arc::new(block);
        map.insert(hash, (Arc::clone(&arc), self.next_seq));
        drop(map);
        self.next_seq += 1;
        self.bytes += arc.encoded_len() as u64;
        Ok(arc)
    }
    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        self.blocks[mem_shard(&self.blocks, hash)]
            .read()
            .expect("mem shard poisoned")
            .get(hash)
            .map(|(b, _)| Arc::clone(b))
    }
    fn contains(&self, hash: &BlockHash) -> bool {
        self.blocks[mem_shard(&self.blocks, hash)]
            .read()
            .expect("mem shard poisoned")
            .contains_key(hash)
    }
    fn len(&self) -> usize {
        self.blocks
            .iter()
            .map(|s| s.read().expect("mem shard poisoned").len())
            .sum()
    }
    fn stored_bytes(&self) -> u64 {
        self.bytes
    }
    fn scan(&self, visit: &mut dyn FnMut(Arc<Block>)) -> std::io::Result<()> {
        // Insertion order, exactly like the durable stores' append order:
        // parents were validated before children, and replay tie-breaking
        // (equal-work forks at one height) stays deterministic.
        let mut blocks: Vec<(Arc<Block>, u64)> = Vec::new();
        for shard in self.blocks.iter() {
            blocks.extend(
                shard
                    .read()
                    .expect("mem shard poisoned")
                    .values()
                    .map(|(b, seq)| (Arc::clone(b), *seq)),
            );
        }
        blocks.sort_by_key(|(_, seq)| *seq);
        for (b, _) in blocks {
            visit(b);
        }
        Ok(())
    }
    fn reader(&self) -> Arc<dyn BlockReader> {
        Arc::new(MemReader {
            blocks: Arc::clone(&self.blocks),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{AccountId, Transaction};

    fn block(i: u64) -> Block {
        Block::assemble(
            i,
            BlockHash::ZERO,
            1000 * i,
            AccountId::from_name("p"),
            0,
            vec![Transaction::new(
                AccountId::from_name("a"),
                i,
                i,
                1,
                vec![i as u8; 16],
            )],
        )
    }

    #[test]
    fn mem_store_round_trip() {
        let mut s = MemStore::new();
        let b = block(1);
        let h = b.hash();
        s.put(b.clone()).unwrap();
        assert!(s.contains(&h));
        assert_eq!(*s.get(&h).unwrap(), b);
        assert_eq!(s.len(), 1);
        assert!(s.stored_bytes() > 0);
        // Idempotent put does not double-count bytes.
        let bytes = s.stored_bytes();
        s.put(b).unwrap();
        assert_eq!(s.stored_bytes(), bytes);
    }

    #[test]
    fn mem_store_scan_follows_insertion_order() {
        let mut s = MemStore::new();
        for i in [0u64, 1, 2, 3] {
            s.put(block(i)).unwrap();
        }
        let mut heights = Vec::new();
        s.scan(&mut |b| heights.push(b.header.height)).unwrap();
        assert_eq!(heights, vec![0, 1, 2, 3]);
        // Re-putting an existing block must not move it in scan order
        // (replay tie-breaking depends on first-insertion order).
        s.put(block(0)).unwrap();
        let mut again = Vec::new();
        s.scan(&mut |b| again.push(b.header.height)).unwrap();
        assert_eq!(again, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mem_store_reader_sees_writer_inserts() {
        let mut s = MemStore::new();
        let reader = s.reader();
        let b = block(1);
        let h = b.hash();
        assert!(reader.get(&h).is_none());
        s.put(b.clone()).unwrap();
        assert_eq!(*reader.get(&h).unwrap(), b);
        assert!(reader.contains(&h));
        // The handle keeps working while the writer continues from another
        // thread (it shares the sharded map, not a snapshot).
        let writer = std::thread::spawn(move || {
            for i in 2..50u64 {
                s.put(block(i)).unwrap();
            }
            s
        });
        let s = writer.join().unwrap();
        for i in 2..50u64 {
            assert!(reader.get(&block(i).hash()).is_some());
        }
        assert_eq!(s.len(), 49);
    }
}
