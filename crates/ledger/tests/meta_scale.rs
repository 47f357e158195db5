//! Acceptance: bounded resident chain *metadata* over unbounded history.
//!
//! 100k single-transaction blocks through all three durable tiers (tiered
//! block store, durable tx index, metadata tier) with a small finality
//! depth must keep resident `meta`/`canonical`/`next_nonce`/`undo` entries
//! O(finality window + live forks) — not O(history) — while the two-tier
//! `hash_at` / `next_nonce_for` / tx queries match a from-scratch rebuild,
//! a restart fast-starts from the snapshot without re-absorbing finalized
//! history, and forced LSM page merging collapses every index partition to
//! one page without changing a single query result.

use blockprov_ledger::block::BlockHash;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::store::BlockStore;
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use std::collections::HashMap;
use std::path::Path;

const BLOCKS: u64 = 100_000;
const FINALITY_DEPTH: u64 = 64;
const AUTHORS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const KINDS: u16 = 3;

fn store(dir: &Path) -> Box<dyn BlockStore> {
    Box::new(
        TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                segment: SegmentConfig {
                    segment_bytes: 8 * 1024 * 1024,
                },
                hot_capacity: 256,
            },
        )
        .unwrap(),
    )
}

fn index(dir: &Path) -> TxIndex {
    TxIndex::open(dir.join("txindex"), TxIndexConfig::default()).unwrap()
}

fn meta(dir: &Path) -> MetaStore {
    MetaStore::open(dir.join("meta"), MetaConfig::default()).unwrap()
}

fn config() -> ChainConfig {
    ChainConfig {
        finality_depth: Some(FINALITY_DEPTH),
        ..ChainConfig::default()
    }
}

#[test]
fn resident_metadata_stays_bounded_and_restart_is_suffix_sized() {
    let dir = std::env::temp_dir().join(format!("blockprov-meta-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut chain =
        Chain::replay_with_tiers(store(&dir), Some(index(&dir)), meta(&dir), config()).unwrap();

    let sealer = AccountId::from_name("sealer");
    let mut nonces: HashMap<AccountId, u64> = HashMap::new();
    let mut max_resident = 0usize;
    for i in 0..BLOCKS {
        let author = AccountId::from_name(AUTHORS[(i % 4) as usize]);
        let nonce = nonces.entry(author).or_insert(0);
        let tx = Transaction::new(author, *nonce, i, (i % u64::from(KINDS)) as u16, vec![0xAB; 24]);
        *nonce += 1;
        let block = chain.assemble_next(i + 1, sealer, 0, vec![tx]);
        chain.append(block).unwrap();
        let r = chain.resident_metadata();
        // The nonce floor is O(distinct authors) consensus state (4 here),
        // not per-block metadata; everything else must track the window.
        max_resident = max_resident.max(r.total() - r.nonce_floor);
    }
    assert_eq!(chain.height(), BLOCKS);
    assert_eq!(chain.finalized_height(), BLOCKS - FINALITY_DEPTH);
    // meta + canonical + at_height + undo + mutable nonces: each is at most
    // window+1 entries on this linear history, so 5·(window+1) with slack
    // for the spill-triggering block. O(window), emphatically not 100k.
    assert!(
        max_resident as u64 <= 6 * (FINALITY_DEPTH + 2),
        "resident metadata peaked at {max_resident} entries — O(history), not O(window)"
    );
    let final_resident = chain.resident_metadata();
    assert!(
        (final_resident.canonical as u64) == FINALITY_DEPTH + 1,
        "canonical suffix holds {} entries",
        final_resident.canonical
    );

    // Independent from-scratch rebuild: walk parent pointers from the tip
    // (authoritative block data, no height map involved).
    let mut canonical = vec![BlockHash::ZERO; (BLOCKS + 1) as usize];
    let mut tx_loc: HashMap<TxId, (BlockHash, u32)> = HashMap::new();
    let mut by_author: HashMap<AccountId, Vec<TxId>> = HashMap::new();
    let mut by_kind: HashMap<u16, Vec<TxId>> = HashMap::new();
    let mut expected_nonce: HashMap<AccountId, u64> = HashMap::new();
    let mut all_ids: Vec<TxId> = Vec::new();
    {
        let mut cursor = chain.tip();
        let mut per_height: Vec<(u64, BlockHash)> = Vec::new();
        loop {
            let block = chain.block(&cursor).expect("canonical ancestry readable");
            per_height.push((block.header.height, cursor));
            if block.header.height == 0 {
                break;
            }
            cursor = block.header.prev;
        }
        per_height.reverse();
        for (h, hash) in per_height {
            canonical[h as usize] = hash;
            let block = chain.block(&hash).unwrap();
            for (pos, tx) in block.txs.iter().enumerate() {
                let id = tx.id();
                tx_loc.insert(id, (hash, pos as u32));
                by_author.entry(tx.author).or_default().push(id);
                by_kind.entry(tx.kind).or_default().push(id);
                let e = expected_nonce.entry(tx.author).or_insert(0);
                *e = (*e).max(tx.nonce + 1);
                all_ids.push(id);
            }
        }
    }
    assert_eq!(all_ids.len() as u64, BLOCKS);

    // Two-tier hash_at equals the parent-walk rebuild at every height.
    for h in 0..=BLOCKS {
        assert_eq!(chain.hash_at(h), Some(canonical[h as usize]), "height {h}");
    }
    // Two-tier nonces equal the rebuild.
    for name in AUTHORS {
        let author = AccountId::from_name(name);
        assert_eq!(chain.next_nonce_for(&author).unwrap(), expected_nonce[&author], "{name}");
    }
    // Tx queries (sampled point lookups + full secondary scans).
    for id in all_ids.iter().step_by(97) {
        assert_eq!(chain.tx_by_id(id), tx_loc.get(id).copied());
    }
    for name in AUTHORS {
        let author = AccountId::from_name(name);
        assert_eq!(chain.txs_by_author(&author), by_author[&author], "{name}");
    }
    for kind in 0..KINDS {
        assert_eq!(chain.txs_by_kind(kind), by_kind[&kind], "kind {kind}");
    }

    // Restart via snapshot: identical tip, O(suffix) re-absorption.
    let tip = chain.tip();
    chain.sync_meta().unwrap();
    drop(chain);
    let mut chain = Chain::replay_with_tiers(store(&dir), Some(index(&dir)), meta(&dir), config())
        .expect("fast start");
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), BLOCKS);
    assert!(
        chain.appended_blocks() <= FINALITY_DEPTH,
        "restart re-absorbed {} blocks — snapshot fast-start must stay O(suffix)",
        chain.appended_blocks()
    );
    for h in (0..=BLOCKS).step_by(977) {
        assert_eq!(chain.hash_at(h), Some(canonical[h as usize]), "height {h}");
    }
    for name in AUTHORS {
        let author = AccountId::from_name(name);
        assert_eq!(chain.next_nonce_for(&author).unwrap(), expected_nonce[&author]);
        assert_eq!(chain.txs_by_author(&author), by_author[&author]);
    }

    // Forced LSM merge: every partition collapses to one durable page and
    // query results stay byte-identical.
    let pages_before = chain.tx_index().unwrap().page_count();
    let stats = chain.merge_index_pages(2).unwrap();
    assert!(stats.partitions_merged > 0, "{pages_before} pages should merge");
    assert!(
        chain
            .tx_index()
            .unwrap()
            .partition_page_counts()
            .iter()
            .all(|&n| n == 1),
        "per-partition page counts must drop to 1, got {:?}",
        chain.tx_index().unwrap().partition_page_counts()
    );
    for id in all_ids.iter().step_by(97) {
        assert_eq!(chain.tx_by_id(id), tx_loc.get(id).copied());
    }
    for name in AUTHORS {
        let author = AccountId::from_name(name);
        assert_eq!(chain.txs_by_author(&author), by_author[&author]);
    }
    for kind in 0..KINDS {
        assert_eq!(chain.txs_by_kind(kind), by_kind[&kind]);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
