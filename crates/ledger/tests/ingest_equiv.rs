//! Pipeline-equivalence property: batched, multi-threaded ingest through
//! `Chain::append_batch` must leave *byte-identical* chain state — tip,
//! canonical hashes, tx indexes, nonces — to one-at-a-time `Chain::append`,
//! across random fork/reorg/finality sequences, random batch boundaries and
//! several worker-thread counts.
//!
//! `INGEST_THREADS=<n>` pins the thread axis to one value (used by
//! `scripts/verify.sh` to exercise the inline and the pooled paths
//! separately); unset, each case sweeps threads 1, 2 and 8.

use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::chain::{Chain, ChainConfig, ValidationError};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::floor::FloorConfig;
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One generated append attempt (same shape as `reorg_prop`): which block
/// to fork from and a small low-entropy tx batch, so duplicate tx ids and
/// contested fork choice are common.
#[derive(Debug, Clone)]
struct Op {
    parent_sel: u16,
    n_txs: usize,
    author_sel: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u16>(), 0usize..3, any::<u8>()).prop_map(|(parent_sel, n_txs, author_sel)| Op {
        parent_sel,
        n_txs,
        author_sel,
    })
}

fn allowlisted(e: &ValidationError) -> bool {
    matches!(
        e,
        ValidationError::Duplicate(_)
            | ValidationError::DuplicateTx(_)
            | ValidationError::BelowFinality { .. }
            | ValidationError::UnknownParent(_)
    )
}

/// Drive a sequential reference chain through `ops`, recording every block
/// that was *submitted* (including ones the chain rejected as stale) — the
/// exact stream the batched chain must process identically.
fn build_stream(
    config: ChainConfig,
    ops: &[Op],
) -> Result<(Chain, Vec<Block>), TestCaseError> {
    let mut chain = Chain::new(config);
    let mut pool: Vec<BlockHash> = vec![chain.genesis()];
    let mut stream: Vec<Block> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let parent = pool[op.parent_sel as usize % pool.len()];
        let parent_block = match chain.block(&parent) {
            Some(b) => b,
            None => continue, // pruned by finality — skip
        };
        let author = AccountId::from_name(match op.author_sel % 3 {
            0 => "alice",
            1 => "bob",
            _ => "carol",
        });
        let txs: Vec<Transaction> = (0..op.n_txs)
            .map(|j| {
                Transaction::new(
                    author,
                    j as u64,
                    2_000,
                    u16::from(op.author_sel % 2),
                    vec![op.author_sel % 4],
                )
            })
            .collect();
        let block = Block::assemble(
            parent_block.header.height + 1,
            parent,
            parent_block.header.timestamp_ms + 10 + i as u64,
            AccountId::from_name("sealer"),
            0,
            txs,
        );
        stream.push(block.clone());
        match chain.append(block) {
            Ok(out) => pool.push(out.hash),
            Err(e) if allowlisted(&e) => {}
            Err(e) => prop_assert!(false, "unexpected validation error: {e}"),
        }
    }
    Ok((chain, stream))
}

/// Feed the recorded stream into `chain` via `append_batch`, splitting at
/// the generated boundaries. A batch that stops at an allowlisted stale
/// block resumes past it — the same skip semantics the sequential
/// reference applied.
fn replay_batched(
    chain: &mut Chain,
    stream: &[Block],
    sizes: &[usize],
) -> Result<(), TestCaseError> {
    let mut queue: VecDeque<Block> = stream.to_vec().into();
    let mut cursor = 0usize;
    while !queue.is_empty() {
        let n = sizes[cursor % sizes.len()].min(queue.len());
        cursor += 1;
        let mut batch: Vec<Block> = queue.drain(..n).collect();
        loop {
            match chain.append_batch(batch.clone()) {
                Ok(_) => break,
                Err(e) => {
                    prop_assert!(
                        allowlisted(&e.error),
                        "unexpected batch error: {} (index {})",
                        e.error,
                        e.index
                    );
                    prop_assert_eq!(e.committed.len(), e.index, "prefix/outcome mismatch");
                    batch = batch.split_off(e.index + 1);
                }
            }
        }
    }
    Ok(())
}

/// Tip, canonical hashes, per-author/per-kind indexes and nonces must all
/// agree between the sequential reference and the batched chain.
fn assert_same_state(seq: &Chain, batched: &Chain) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.tip(), seq.tip(), "tip diverged");
    prop_assert_eq!(batched.height(), seq.height(), "height diverged");
    let seq_canonical: Vec<BlockHash> = seq.canonical_hashes().collect();
    let batched_canonical: Vec<BlockHash> = batched.canonical_hashes().collect();
    prop_assert_eq!(batched_canonical, seq_canonical, "canonical hashes diverged");
    for name in ["alice", "bob", "carol", "sealer"] {
        let a = AccountId::from_name(name);
        prop_assert_eq!(
            batched.txs_by_author(&a),
            seq.txs_by_author(&a),
            "txs_by_author({}) diverged",
            name
        );
        prop_assert_eq!(
            batched.next_nonce_for(&a).ok(),
            seq.next_nonce_for(&a).ok(),
            "next_nonce_for({}) diverged",
            name
        );
    }
    for kind in 0..2u16 {
        prop_assert_eq!(
            batched.txs_by_kind(kind),
            seq.txs_by_kind(kind),
            "txs_by_kind({}) diverged",
            kind
        );
    }
    prop_assert!(batched.index_consistent());
    Ok(())
}

/// The thread counts to sweep: the `INGEST_THREADS` override wins.
fn thread_axis() -> Vec<usize> {
    match std::env::var("INGEST_THREADS") {
        Ok(v) => vec![v.parse().expect("INGEST_THREADS must be a number")],
        Err(_) => vec![1, 2, 8],
    }
}

fn run_case(
    base: ChainConfig,
    ops: &[Op],
    sizes: &[usize],
) -> Result<(), TestCaseError> {
    let seq_config = ChainConfig {
        ingest_threads: 1,
        ..base.clone()
    };
    let (seq, stream) = build_stream(seq_config, ops)?;
    for threads in thread_axis() {
        let config = ChainConfig {
            ingest_threads: threads,
            ..base.clone()
        };
        let mut batched = Chain::new(config);
        replay_batched(&mut batched, &stream, sizes)?;
        assert_same_state(&seq, &batched)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No finality: every historical fork stays contestable, so batches
    /// routinely contain reorgs.
    #[test]
    fn batched_ingest_equals_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        sizes in proptest::collection::vec(1usize..7, 1..8),
    ) {
        run_case(ChainConfig::default(), &ops, &sizes)?;
    }

    /// Shallow finality: the checkpoint advances mid-batch, pruning fork
    /// metadata while later blocks of the same batch commit.
    #[test]
    fn batched_ingest_equals_sequential_under_finality(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        sizes in proptest::collection::vec(1usize..7, 1..8),
        depth in 1u64..6,
    ) {
        let config = ChainConfig { finality_depth: Some(depth), ..ChainConfig::default() };
        run_case(config, &ops, &sizes)?;
    }
}

// ---------------------------------------------------------------------------
// All-tiers variant: the batched chain runs over a durable segment store,
// spilled TxIndex and metadata tier with deliberately tiny pages, so
// checkpoint spills and LRU evictions interleave with mid-batch reorgs.
// ---------------------------------------------------------------------------

/// Deterministic mostly-linear stream with a sibling fork every 13 blocks —
/// long enough that a 256-block batch arrives *full*, which the random
/// 1..40-op cases above never produce. Payloads carry the block ordinal so
/// every tx id is unique and the main line is accepted without skips.
fn build_long_stream(config: ChainConfig, len: usize) -> (Chain, Vec<Block>) {
    let mut chain = Chain::new(config);
    let mut stream: Vec<Block> = Vec::with_capacity(len + len / 13 + 1);
    let authors = ["alice", "bob", "carol"];
    let mut i = 0usize;
    while stream.len() < len {
        let tip = chain.tip();
        let parent = chain.block(&tip).expect("tip resident");
        let author = AccountId::from_name(authors[i % 3]);
        let txs: Vec<Transaction> = (0..i % 3)
            .map(|j| {
                Transaction::new(
                    author,
                    j as u64,
                    2_000,
                    (i % 2) as u16,
                    vec![i as u8, (i >> 8) as u8, j as u8],
                )
            })
            .collect();
        let block = Block::assemble(
            parent.header.height + 1,
            tip,
            parent.header.timestamp_ms + 10 + i as u64,
            AccountId::from_name("sealer"),
            0,
            txs,
        );
        stream.push(block.clone());
        chain.append(block).expect("linear extend");
        if i % 13 == 5 {
            // Equal-work sibling of the block just appended: never wins the
            // fork choice, but lands fork bookkeeping (and, near the
            // checkpoint, allowlisted BelowFinality skips) inside otherwise
            // full batches.
            let fork = Block::assemble(
                parent.header.height + 1,
                tip,
                parent.header.timestamp_ms + 500 + i as u64,
                AccountId::from_name("forker"),
                0,
                vec![],
            );
            stream.push(fork.clone());
            match chain.append(fork) {
                Ok(_) => {}
                Err(e) => assert!(allowlisted(&e), "unexpected fork error: {e}"),
            }
        }
        i += 1;
    }
    (chain, stream)
}

/// Group-commit pin at fixed batch sizes: a 600-block deterministic stream
/// over the full durable tier stack must leave state byte-identical to the
/// sequential reference at batch sizes 1, 7 and 256 — size 1 degenerates to
/// one group flush per block, 256 coalesces multiple finality advances,
/// segment rolls and index spills into a single flush.
#[test]
fn batched_ingest_equals_sequential_at_fixed_batch_sizes() {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let base = ChainConfig {
        finality_depth: Some(8),
        ..ChainConfig::default()
    };
    let (seq, stream) = build_long_stream(
        ChainConfig {
            ingest_threads: 1,
            ..base.clone()
        },
        600,
    );
    assert!(stream.len() >= 600, "stream too short for a full 256 batch");
    for &size in &[1usize, 7, 256] {
        for threads in thread_axis() {
            let dir = std::env::temp_dir().join(format!(
                "blockprov-ingest-fixed-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let result = (|| -> Result<(), TestCaseError> {
                let store = TieredStore::open(
                    dir.join("blocks"),
                    TieredConfig {
                        segment: SegmentConfig { segment_bytes: 2048 },
                        hot_capacity: 4,
                    },
                )
                .expect("open tiered store");
                let index = TxIndex::open(
                    dir.join("txindex"),
                    TxIndexConfig {
                        partitions: 2,
                        page_entries: 4,
                        cached_pages: 4,
                        merge_threshold: 4,
                    },
                )
                .expect("open tx index");
                let meta = MetaStore::open(
                    dir.join("meta"),
                    MetaConfig {
                        page_heights: 4,
                        cached_pages: 2,
                        index_sync_interval: 8,
                        snapshot_interval: 1,
                        floor: FloorConfig::default(),
                    },
                )
                .expect("open meta store");
                let config = ChainConfig {
                    ingest_threads: threads,
                    ..base.clone()
                };
                let mut batched =
                    Chain::replay_with_tiers(Box::new(store), Some(index), meta, config)
                        .expect("open tiers");
                replay_batched(&mut batched, &stream, &[size])?;
                assert_same_state(&seq, &batched)?;
                Ok(())
            })();
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(e) = result {
                panic!("size {size} threads {threads}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_ingest_equals_sequential_all_tiers(
        ops in proptest::collection::vec(op_strategy(), 4..40),
        sizes in proptest::collection::vec(1usize..7, 1..8),
        depth in 1u64..5,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let base = ChainConfig { finality_depth: Some(depth), ..ChainConfig::default() };
        let (seq, stream) = build_stream(
            ChainConfig { ingest_threads: 1, ..base.clone() },
            &ops,
        )?;
        for threads in thread_axis() {
            let dir = std::env::temp_dir().join(format!(
                "blockprov-ingest-equiv-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let result = (|| -> Result<(), TestCaseError> {
                let store = TieredStore::open(
                    dir.join("blocks"),
                    TieredConfig {
                        segment: SegmentConfig { segment_bytes: 2048 },
                        hot_capacity: 4,
                    },
                )
                .expect("open tiered store");
                let index = TxIndex::open(
                    dir.join("txindex"),
                    TxIndexConfig {
                        partitions: 2,
                        page_entries: 4,
                        cached_pages: 4,
                        merge_threshold: 4,
                    },
                )
                .expect("open tx index");
                let meta = MetaStore::open(
                    dir.join("meta"),
                    MetaConfig {
                        page_heights: 4,
                        cached_pages: 2,
                        index_sync_interval: 8,
                        snapshot_interval: 1,
                        floor: FloorConfig::default(),
                    },
                )
                .expect("open meta store");
                let config = ChainConfig { ingest_threads: threads, ..base.clone() };
                let mut batched = Chain::replay_with_tiers(
                    Box::new(store),
                    Some(index),
                    meta,
                    config,
                )
                .expect("open tiers");
                replay_batched(&mut batched, &stream, &sizes)?;
                assert_same_state(&seq, &batched)?;
                Ok(())
            })();
            let _ = std::fs::remove_dir_all(&dir);
            result?;
        }
    }
}
