//! Acceptance: finality-driven segment compaction.
//!
//! Build competing forks over a tiered segment store, let checkpoint
//! finality pick a winner, compact — then prove bytes were reclaimed, every
//! canonical block is still readable, and a full replay of the compacted
//! store (a [`Chain::replay_with_tiers`] open over empty index and
//! metadata tiers) reproduces the same tip and indexes.

use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction};

fn tx(author: &str, nonce: u64) -> Transaction {
    Transaction::new(
        AccountId::from_name(author),
        nonce,
        1_000 + nonce,
        1,
        vec![0xCD; 48],
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-compaction-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store(dir: &std::path::Path) -> Box<TieredStore> {
    Box::new(
        TieredStore::open(
            dir,
            TieredConfig {
                // Tiny segments: forks and canonical blocks interleave
                // across many sealed segment files.
                segment: SegmentConfig { segment_bytes: 512 },
                hot_capacity: 8,
            },
        )
        .unwrap(),
    )
}

/// Open a chain over the segments in `dir`, with its index and metadata
/// tiers in `dir/tiers`.
fn open(dir: &std::path::Path, config: ChainConfig) -> Chain {
    let tiers = dir.join("tiers");
    let index_config = TxIndexConfig {
        partitions: 4,
        page_entries: 8,
        cached_pages: 8,
        ..TxIndexConfig::default()
    };
    Chain::replay_with_tiers(
        store(dir),
        Some(TxIndex::open(tiers.join("index"), index_config).unwrap()),
        MetaStore::open(tiers.join("meta"), MetaConfig::default()).unwrap(),
        config,
    )
    .unwrap()
}

/// [`open`] over emptied tiers: no snapshot exists, so the open scans and
/// replays every stored block.
fn replay(dir: &std::path::Path, config: ChainConfig) -> Chain {
    let _ = std::fs::remove_dir_all(dir.join("tiers"));
    open(dir, config)
}

/// Grow a chain with a stale fork block beside every canonical block, until
/// finality has passed all the fork heights.
fn build_forked_chain(dir: &std::path::Path) -> (Chain, Vec<BlockHash>) {
    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let mut chain = open(dir, config);
    let mut fork_hashes = Vec::new();
    for i in 0..20u64 {
        let parent = chain.tip();
        let height = chain.height() + 1;
        let ts = chain.tip_header().timestamp_ms + 10;
        // Canonical block extends the tip first…
        let canon = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("a", i)]);
        chain.append(canon).unwrap();
        // …then an equal-work rival at the same height loses the tie and
        // stays a stale fork, still above the checkpoint when appended.
        let rival = Block::assemble(
            height,
            parent,
            ts,
            AccountId::from_name("rival"),
            0,
            vec![tx("rival", i)],
        );
        fork_hashes.push(rival.hash());
        chain.append(rival).unwrap();
    }
    (chain, fork_hashes)
}

#[test]
fn compaction_reclaims_fork_bytes_and_preserves_canonical_history() {
    let dir = temp_dir("reclaim");
    let (mut chain, fork_hashes) = build_forked_chain(&dir);
    let canonical: Vec<BlockHash> = chain.canonical_hashes().collect();
    let finalized = chain.finalized_height();
    assert!(finalized > 2, "finality must have advanced past fork heights");
    let bytes_before = chain.stored_bytes();

    let stats = chain.compact().unwrap();
    assert!(stats.blocks_dropped > 0, "stale fork blocks must be dropped");
    assert!(stats.bytes_reclaimed > 0, "reclaimed bytes must be positive");
    assert!(stats.segments_rewritten > 0);
    assert_eq!(chain.stored_bytes(), bytes_before - stats.bytes_reclaimed);

    // Every canonical block is still readable…
    for (h, hash) in canonical.iter().enumerate() {
        let block = chain.block(hash).unwrap_or_else(|| {
            panic!("canonical block at height {h} unreadable after compaction")
        });
        assert_eq!(block.header.height, h as u64);
    }
    chain.verify_integrity().unwrap();
    assert!(chain.index_consistent());
    // …while finalized stale-fork blocks are gone from the store.
    let dropped = fork_hashes
        .iter()
        .filter(|h| chain.block(h).is_none())
        .count();
    assert_eq!(dropped as u64, stats.blocks_dropped);
    assert!(dropped > 0);

    drop(chain);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_from_compacted_store_reproduces_tip_and_indexes() {
    let dir = temp_dir("replay");
    let (mut chain, _) = build_forked_chain(&dir);
    let tip = chain.tip();
    let height = chain.height();
    let canonical: Vec<BlockHash> = chain.canonical_hashes().collect();
    let author_ids = chain.txs_by_author(&AccountId::from_name("a"));
    let kind_ids = chain.txs_by_kind(1);
    let stats = chain.compact().unwrap();
    assert!(stats.bytes_reclaimed > 0);
    drop(chain);

    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let replayed = replay(&dir, config);
    assert_eq!(replayed.tip(), tip);
    assert_eq!(replayed.height(), height);
    assert_eq!(
        replayed.canonical_hashes().collect::<Vec<_>>(),
        canonical
    );
    assert!(replayed.index_consistent());
    assert_eq!(replayed.txs_by_author(&AccountId::from_name("a")), author_ids);
    assert_eq!(replayed.txs_by_kind(1), kind_ids);
    replayed.verify_integrity().unwrap();

    drop(replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_never_orphans_a_fork_child_in_the_active_segment() {
    // Regression: a sealed fork parent D is dropped (stale at/below the
    // checkpoint) while its child E sits in the *active* segment. If the
    // active segment were exempt from compaction, E would survive with a
    // dangling parent reference and a full replay of the compacted store
    // would hard-fail with UnknownParent.
    let dir = temp_dir("orphan");
    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let mut chain = open(&dir, config.clone());
    for i in 0..5u64 {
        let ts = chain.tip_header().timestamp_ms + 10;
        let canon = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("a", i)]);
        chain.append(canon).unwrap();
    }
    // Fork parent D at height 4 and its child E at height 5, both above
    // the checkpoint (finalized = 3) when appended — E is appended late,
    // so it lands in (or near) the store's newest segments.
    let c3 = chain.canonical_hashes().nth(3).unwrap();
    let d = Block::assemble(
        4,
        c3,
        chain.tip_header().timestamp_ms,
        AccountId::from_name("rival"),
        0,
        vec![tx("rival", 0)],
    );
    let d_hash = d.hash();
    chain.append(d).unwrap();
    let e = Block::assemble(
        5,
        d_hash,
        chain.tip_header().timestamp_ms,
        AccountId::from_name("rival"),
        0,
        vec![tx("rival", 1)],
    );
    let e_hash = e.hash();
    chain.append(e).unwrap();
    // One more canonical block shares the active segment with E and
    // advances finality past D's height, pruning the fork's metadata.
    let ts = chain.tip_header().timestamp_ms + 10;
    let canon = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("a", 5)]);
    chain.append(canon).unwrap();

    let tip = chain.tip();
    let stats = chain.compact().unwrap();
    assert!(stats.blocks_dropped >= 2, "both D and E must be dropped");
    assert!(chain.block(&d_hash).is_none(), "sealed fork parent dropped");
    assert!(
        chain.block(&e_hash).is_none(),
        "fork child in the active segment dropped with its parent"
    );
    chain.verify_integrity().unwrap();
    drop(chain);

    // The compacted store replays cleanly — no dangling parent.
    let replayed = replay(&dir, config);
    assert_eq!(replayed.tip(), tip);
    assert!(replayed.index_consistent());
    drop(replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_is_idempotent() {
    let dir = temp_dir("idem");
    let (mut chain, _) = build_forked_chain(&dir);
    let first = chain.compact().unwrap();
    assert!(first.bytes_reclaimed > 0);
    let bytes_after_first = chain.stored_bytes();
    let blocks_after_first = chain.stored_blocks();

    // Compact twice == compact once: nothing further to reclaim.
    let second = chain.compact().unwrap();
    assert_eq!(second.blocks_dropped, 0);
    assert_eq!(second.bytes_reclaimed, 0);
    assert_eq!(second.segments_rewritten, 0);
    assert_eq!(chain.stored_bytes(), bytes_after_first);
    assert_eq!(chain.stored_blocks(), blocks_after_first);
    chain.verify_integrity().unwrap();
    assert!(chain.index_consistent());

    drop(chain);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_keeps_two_tier_queries_intact_across_restart() {
    let dir = temp_dir("with-index");
    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let (mut chain, _) = build_forked_chain(&dir);
    let stats = chain.compact().unwrap();
    assert!(stats.bytes_reclaimed > 0);
    // The durable index only ever holds canonical-final entries, so
    // compaction cannot invalidate it: the merged queries still agree with
    // a from-scratch rebuild.
    assert!(chain.index_consistent());
    assert_eq!(chain.txs_by_author(&AccountId::from_name("a")).len(), 20);
    // And a restart from the snapshot the compaction wrote lands in the
    // same place.
    let tip = chain.tip();
    drop(chain);
    let resumed = open(&dir, config);
    assert_eq!(resumed.tip(), tip);
    assert!(resumed.index_consistent());
    drop(resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}
