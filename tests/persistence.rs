//! Integration: durable block storage — a chain opened over the durable
//! tiers survives process restart with proofs intact (the §6.1 "storage
//! performance overhead" axis needs a real persistent backend).

use blockprov::ledger::block::Block;
use blockprov::ledger::chain::{Chain, ChainConfig};
use blockprov::ledger::index::{TxIndex, TxIndexConfig};
use blockprov::ledger::meta::{MetaConfig, MetaStore};
use blockprov::ledger::segment::{TieredConfig, TieredStore};
use blockprov::ledger::tx::{AccountId, Transaction};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blockprov-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Open (or resume) a durable chain with its three tiers under `dir`.
fn open(dir: &Path) -> std::io::Result<Chain> {
    let store = TieredStore::open(dir.join("blocks"), TieredConfig::default())?;
    let index = TxIndex::open(dir.join("index"), TxIndexConfig::default())?;
    let meta = MetaStore::open(dir.join("meta"), MetaConfig::default())?;
    let config = ChainConfig {
        finality_depth: Some(4),
        ..ChainConfig::default()
    };
    Chain::replay_with_tiers(Box::new(store), Some(index), meta, config)
}

#[test]
fn durable_chain_persists_blocks_and_proofs() {
    let dir = temp_dir("persist");
    let mut tx_ids = Vec::new();
    let tip;
    {
        let mut chain = open(&dir).unwrap();
        for i in 0..20u64 {
            let tx = Transaction::new(AccountId::from_name("writer"), i, i, 1, vec![i as u8; 32]);
            tx_ids.push(tx.id());
            let block =
                chain.assemble_next(1_000 * (i + 1), AccountId::from_name("sealer"), 0, vec![tx]);
            chain.append(block).unwrap();
        }
        chain.verify_integrity().unwrap();
        tip = chain.tip();
    }

    // "Restart": reopen the tiers and check every block decodes and every
    // transaction proof still verifies against its stored header.
    let chain = open(&dir).unwrap();
    assert_eq!(chain.stored_blocks(), 21, "genesis + 20 blocks on disk");
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), 20);
    chain.verify_integrity().unwrap();

    // Rebuild proofs block by block from the durable store.
    let mut checked = 0;
    let mut cursor = tip;
    while let Some(block) = chain.block(&cursor) {
        for i in 0..block.txs.len() {
            let (txid, proof) = block.prove_tx(i).unwrap();
            assert!(Block::verify_tx_proof(&block.header.tx_root, &txid, &proof));
            assert!(tx_ids.contains(&txid));
            checked += 1;
        }
        if block.header.height == 0 {
            break;
        }
        cursor = block.header.prev;
    }
    assert_eq!(checked, 20, "all transactions re-proven from disk");
    // The canonical index serves the same proofs, finalized history included.
    for id in &tx_ids {
        assert!(chain.prove_tx(id).expect("indexed tx").verify());
    }

    drop(chain);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_trailing_write_is_rejected_on_reopen() {
    let dir = temp_dir("corrupt");
    {
        let mut chain = open(&dir).unwrap();
        let tx = Transaction::new(AccountId::from_name("w"), 0, 0, 1, vec![1, 2, 3]);
        let block = chain.assemble_next(1_000, AccountId::from_name("s"), 0, vec![tx]);
        chain.append(block).unwrap();
    }
    // Append garbage that claims a huge length to the active segment:
    // reopen must fail loudly rather than silently truncate.
    {
        use std::io::Write;
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("blocks"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "blk"))
            .collect();
        segments.sort();
        let active = segments.last().expect("a segment file");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(active)
            .unwrap();
        f.write_all(&[0xFF, 0xFF, 0x00, 0x00]).unwrap();
        f.write_all(&[0xAB; 64]).unwrap();
    }
    assert!(
        open(&dir).is_err(),
        "corruption must not be silently accepted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
