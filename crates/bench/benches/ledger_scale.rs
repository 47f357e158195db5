//! Ledger at scale — the durable chain vs everything-in-memory.
//!
//! The storage-overhead experiments (E3) presuppose provenance history far
//! larger than RAM. This harness appends ~100k blocks through both ways of
//! opening a chain — in memory (`Chain::new`) and over all three durable
//! tiers (`Chain::replay_with_tiers`: tiered block store, tx index,
//! metadata tier) — and reports:
//!
//! * one-shot: append throughput (blocks/s), resident decoded blocks and
//!   resident chain metadata for both;
//! * timed: canonical tx-lookup latency — hot (repeated id, cache hit),
//!   uniform (sweep over all history, mostly cold-tier reads), and the
//!   durable index's point/secondary query path (warm page cache vs sweep);
//! * one-shot: segment compaction on a fork-heavy history — reclaimed
//!   bytes and full canonical-scan wall clock before/after `compact`;
//! * one-shot: cold-start sweep — snapshot fast-start wall clock at
//!   10k/50k/100k-block histories (`cold_start/*`), which the manifest's
//!   height fences should keep flat as history grows.

use blockprov_ledger::block::Block;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::store::BlockStore;
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

const SCALE_BLOCKS: u64 = 100_000;
const TX_EVERY: u64 = 50;
const HOT_CAPACITY: usize = 256;
const FINALITY_DEPTH: u64 = 64;

fn chain_config() -> ChainConfig {
    ChainConfig {
        finality_depth: Some(FINALITY_DEPTH),
        ..ChainConfig::default()
    }
}

fn tiered_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-bench-ledger-scale-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Append `blocks` empty-ish blocks (one indexed tx every `TX_EVERY`),
/// returning the sample tx ids and the elapsed append time.
fn grow(chain: &mut Chain, blocks: u64) -> (Vec<TxId>, std::time::Duration) {
    let sealer = AccountId::from_name("sealer");
    let mut ids = Vec::new();
    let start = Instant::now();
    for i in 0..blocks {
        let txs = if i % TX_EVERY == 0 {
            let tx = Transaction::new(AccountId::from_name("auditor"), i, i, 7, vec![0xAA; 24]);
            ids.push(tx.id());
            vec![tx]
        } else {
            Vec::new()
        };
        let block = chain.assemble_next(i + 1, sealer, 0, txs);
        chain.append(block).expect("append");
    }
    (ids, start.elapsed())
}

fn meta_tier_store(dir: &std::path::Path) -> Box<dyn BlockStore> {
    Box::new(
        TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                segment: SegmentConfig {
                    segment_bytes: 8 * 1024 * 1024,
                },
                hot_capacity: HOT_CAPACITY,
            },
        )
        .expect("open tiered store"),
    )
}

fn meta_tier_index(dir: &std::path::Path) -> TxIndex {
    TxIndex::open(dir.join("txindex"), TxIndexConfig::default()).expect("open tx index")
}

fn meta_tier_meta(dir: &std::path::Path) -> MetaStore {
    MetaStore::open(dir.join("meta"), MetaConfig::default()).expect("open meta store")
}

/// The durable chain: all three tiers (blocks, tx index, chain metadata)
/// under `dir`, fresh or resumed — the bounded-resident-memory
/// configuration.
fn meta_chain(dir: &std::path::Path) -> Chain {
    meta_chain_with(dir, chain_config())
}

fn meta_chain_with(dir: &std::path::Path, config: ChainConfig) -> Chain {
    Chain::replay_with_tiers(
        meta_tier_store(dir),
        Some(meta_tier_index(dir)),
        meta_tier_meta(dir),
        config,
    )
    .expect("open durable tiers")
}

/// Resident per-block metadata entries/bytes for one backend, one line.
fn report_resident_metadata(label: &str, chain: &Chain) {
    let r = chain.resident_metadata();
    record_metric(
        &format!("resident_metadata/{label}"),
        r.approx_bytes() as f64,
        "bytes",
    );
    println!(
        "ledger_scale resident metadata [{label}]: {} entries ≈ {} bytes \
         (meta {} / canonical {} / nonce {}+{} / undo {} / at_height {})",
        r.total(),
        r.approx_bytes(),
        r.meta,
        r.canonical,
        r.next_nonce,
        r.nonce_floor,
        r.undo,
        r.at_height,
    );
}

/// One-shot cold-start measurement over the meta-tier directory:
/// replay-from-snapshot (fast start) vs full replay of the same history
/// (the same blocks under empty index and metadata tiers).
fn report_cold_start(dir: &std::path::Path) {
    let t = Instant::now();
    let fast = meta_chain(dir);
    let fast_t = t.elapsed();
    let fast_appended = fast.appended_blocks();
    let tip = fast.tip();
    drop(fast);

    let rebuilt = dir.join("full-replay");
    let t = Instant::now();
    let full = Chain::replay_with_tiers(
        meta_tier_store(dir),
        Some(meta_tier_index(&rebuilt)),
        meta_tier_meta(&rebuilt),
        chain_config(),
    )
    .expect("full replay");
    let full_t = t.elapsed();
    assert_eq!(full.tip(), tip, "both cold starts must agree on the tip");
    println!(
        "ledger_scale cold start @ {SCALE_BLOCKS} blocks: snapshot fast-start {:.2?} \
         (re-absorbed {} blocks) vs full replay {:.2?} ({} blocks) — {:.1}x",
        fast_t,
        fast_appended,
        full_t,
        full.appended_blocks(),
        full_t.as_secs_f64() / fast_t.as_secs_f64().max(1e-9),
    );
}

/// One-shot 100k-block append measurement for both ways of opening a
/// chain (a measurement, not a timing loop — printed once,
/// `storage_dedup` style). Returns each chain with its sample tx ids; the
/// durable one is reopened from its snapshot after the cold-start report.
fn report_append_throughput() -> (Chain, Vec<TxId>, Chain, Vec<TxId>, std::path::PathBuf) {
    let mut mem = Chain::new(chain_config());
    let (mem_ids, mem_t) = grow(&mut mem, SCALE_BLOCKS);
    record_metric(
        "append/MemStore",
        SCALE_BLOCKS as f64 / mem_t.as_secs_f64(),
        "blk/s",
    );
    println!(
        "ledger_scale append [MemStore]: {SCALE_BLOCKS} blocks in {:.2?} \
         ({:.0} blocks/s), resident blocks {}",
        mem_t,
        SCALE_BLOCKS as f64 / mem_t.as_secs_f64(),
        mem.resident_blocks(),
    );

    let mdir = tiered_dir("meta");
    let mut metad = meta_chain(&mdir);
    let (meta_ids, meta_t) = grow(&mut metad, SCALE_BLOCKS);
    record_metric(
        "append/Tiered+TxIndex+Meta",
        SCALE_BLOCKS as f64 / meta_t.as_secs_f64(),
        "blk/s",
    );
    let ix = metad.tx_index().expect("durable chain");
    let meta = metad.meta_tier().expect("durable chain");
    println!(
        "ledger_scale append [Tiered+TxIndex+Meta]: {SCALE_BLOCKS} blocks in {:.2?} \
         ({:.0} blocks/s), resident blocks {} (hot cap {HOT_CAPACITY}), {} bytes cold, \
         resident index entries {} (history {}), {} spilled entries across {} pages / \
         {} partitions, height-map {} pages / {} bytes, snapshot every {} advances",
        meta_t,
        SCALE_BLOCKS as f64 / meta_t.as_secs_f64(),
        metad.resident_blocks(),
        metad.stored_bytes(),
        metad.resident_index_entries(),
        meta_ids.len(),
        ix.entries(),
        ix.page_count(),
        ix.partition_count(),
        meta.height_map().page_count(),
        meta.height_map().stored_bytes(),
        meta.config().snapshot_interval,
    );
    assert!(
        metad.resident_blocks() <= HOT_CAPACITY,
        "durable chain must stay within its hot-set bound"
    );
    report_resident_metadata("MemStore", &mem);
    report_resident_metadata("Tiered+TxIndex+Meta", &metad);
    metad.sync_meta().expect("sync meta");
    drop(metad);
    report_cold_start(&mdir);

    // The lookup benches below run on the resumed chain: its fast start
    // synced every staged tail, so they measure the durable page path.
    let metad = meta_chain(&mdir);
    (mem, mem_ids, metad, meta_ids, mdir)
}

/// One-shot cold-start sweep: snapshot fast-start wall clock at several
/// history sizes. With the manifest's per-segment height fences, fast
/// start skips every sealed segment wholly below the checkpoint and reads
/// O(finality window), so the curve should stay flat as history grows —
/// `cold_start/100k` within noise of `cold_start/10k` is the acceptance
/// gate. `COLD_START_BLOCKS` caps the largest size (CI smoke runs set
/// 10000 and get just the first point).
fn report_cold_start_sweep() {
    let cap: u64 = std::env::var("COLD_START_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SCALE_BLOCKS);
    for blocks in [10_000u64, 50_000, 100_000] {
        if blocks > cap {
            continue;
        }
        let dir = tiered_dir(&format!("coldstart-{blocks}"));
        let mut chain = meta_chain(&dir);
        let _ = grow(&mut chain, blocks);
        chain.sync_meta().expect("sync meta");
        drop(chain);
        let t = Instant::now();
        let fast = Chain::replay_with_tiers(
            meta_tier_store(&dir),
            Some(meta_tier_index(&dir)),
            meta_tier_meta(&dir),
            chain_config(),
        )
        .expect("fast start");
        let dt = t.elapsed();
        record_metric(
            &format!("cold_start/{}k", blocks / 1_000),
            dt.as_secs_f64() * 1_000.0,
            "ms",
        );
        println!(
            "ledger_scale cold start sweep [{blocks} blocks]: fast-start {dt:.2?}, \
             re-absorbed {} blocks, tip height {}",
            fast.appended_blocks(),
            fast.height(),
        );
        drop(fast);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One-shot ingest-pipeline scaling curve: blocks/s of `append_batch` over
/// the all-tiers backend at 1/2/4/8 stateless-stage worker threads.
///
/// The stream is tx-heavy (24 txs per block) so the stateless stage —
/// header hashing, per-tx id derivation, Merkle recomputation — carries
/// real work to fan out; the serialized commit section is identical at
/// every thread count, and so is the resulting chain (asserted on the
/// tip). `INGEST_SCALE_BLOCKS` overrides the stream length (CI smoke runs
/// use a short one).
fn report_ingest_scaling() {
    const BATCH: usize = 512;
    const TXS_PER_BLOCK: u64 = 24;
    let blocks: u64 = std::env::var("INGEST_SCALE_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let sealer = AccountId::from_name("sealer");
    // Pre-assemble the whole linear stream once; every thread count
    // ingests the identical blocks.
    let mut parent = Chain::genesis_block().hash();
    let stream: Vec<Block> = (0..blocks)
        .map(|i| {
            let txs: Vec<Transaction> = (0..TXS_PER_BLOCK)
                .map(|j| {
                    Transaction::new(
                        AccountId::from_name("auditor"),
                        i * TXS_PER_BLOCK + j,
                        i + 1,
                        7,
                        vec![0xAB; 24],
                    )
                })
                .collect();
            let b = Block::assemble(i + 1, parent, i + 1, sealer, 0, txs);
            parent = b.hash();
            b
        })
        .collect();
    let mut tips = Vec::new();
    let mut single_thread_rate = None;
    for threads in [1usize, 2, 4, 8] {
        let dir = tiered_dir(&format!("ingest-{threads}"));
        let config = ChainConfig {
            ingest_threads: threads,
            ..chain_config()
        };
        let mut chain = meta_chain_with(&dir, config);
        let t = Instant::now();
        for batch in stream.chunks(BATCH) {
            chain.append_batch(batch.to_vec()).expect("batch append");
        }
        let dt = t.elapsed();
        let rate = blocks as f64 / dt.as_secs_f64();
        let speedup = match single_thread_rate {
            None => {
                single_thread_rate = Some(rate);
                1.0
            }
            Some(base) => rate / base,
        };
        record_metric(
            &format!("ingest_scaling/all-tiers/threads/{threads}"),
            rate,
            "blk/s",
        );
        println!(
            "ledger_scale ingest scaling [all tiers, {threads} threads]: {blocks} blocks \
             x {TXS_PER_BLOCK} txs in {dt:.2?} ({rate:.0} blocks/s, {speedup:.2}x vs 1 thread)",
        );
        tips.push(chain.tip());
        drop(chain);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        tips.windows(2).all(|w| w[0] == w[1]),
        "ingest pipeline must produce an identical chain at every thread count"
    );
}

/// One-shot group-commit sweep: blocks/s of `append_batch` over the
/// all-tiers backend at batch sizes 1, 16 and 256, single ingest thread.
///
/// Size 1 degenerates to one durable flush per block — the pre-group-commit
/// write path. Larger batches coalesce the segment write, TxIndex spill,
/// nonce-floor append and snapshot cadence into one flush per batch, so the
/// curve isolates exactly what group commit buys at the commit stage
/// (stage-1 fan-out is pinned to one thread; `ingest_scaling` covers that
/// axis). `BATCH_COMMIT_BLOCKS` overrides the stream length (CI smoke runs
/// use a short one).
fn report_batch_commit() {
    const TXS_PER_BLOCK: u64 = 4;
    let blocks: u64 = std::env::var("BATCH_COMMIT_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let sealer = AccountId::from_name("sealer");
    let mut parent = Chain::genesis_block().hash();
    let stream: Vec<Block> = (0..blocks)
        .map(|i| {
            let txs: Vec<Transaction> = (0..TXS_PER_BLOCK)
                .map(|j| {
                    Transaction::new(
                        AccountId::from_name("auditor"),
                        i * TXS_PER_BLOCK + j,
                        i + 1,
                        7,
                        vec![0xCD; 24],
                    )
                })
                .collect();
            let b = Block::assemble(i + 1, parent, i + 1, sealer, 0, txs);
            parent = b.hash();
            b
        })
        .collect();
    let mut tips = Vec::new();
    let mut size_one_rate = None;
    for size in [1usize, 16, 256] {
        let dir = tiered_dir(&format!("batch-commit-{size}"));
        let config = ChainConfig {
            ingest_threads: 1,
            ..chain_config()
        };
        let mut chain = meta_chain_with(&dir, config);
        let t = Instant::now();
        for batch in stream.chunks(size) {
            chain.append_batch(batch.to_vec()).expect("batch append");
        }
        let dt = t.elapsed();
        let rate = blocks as f64 / dt.as_secs_f64();
        let speedup = match size_one_rate {
            None => {
                size_one_rate = Some(rate);
                1.0
            }
            Some(base) => rate / base,
        };
        record_metric(&format!("batch_commit/{size}"), rate, "blk/s");
        println!(
            "ledger_scale batch commit [all tiers, batch {size}]: {blocks} blocks \
             x {TXS_PER_BLOCK} txs in {dt:.2?} ({rate:.0} blocks/s, {speedup:.2}x vs batch 1)",
        );
        tips.push(chain.tip());
        drop(chain);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        tips.windows(2).all(|w| w[0] == w[1]),
        "group commit must produce an identical chain at every batch size"
    );
}

/// One-shot compaction measurement: a fork-heavy durable history over tiny
/// segments, scan wall clock before and after reclaiming the stale forks.
fn report_compaction() {
    const FORKY_BLOCKS: u64 = 20_000;
    let dir = tiered_dir("compact");
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            segment: SegmentConfig {
                segment_bytes: 256 * 1024,
            },
            hot_capacity: HOT_CAPACITY,
        },
    )
    .expect("open tiered store");
    let mut chain = Chain::replay_with_tiers(
        Box::new(store),
        Some(meta_tier_index(&dir)),
        meta_tier_meta(&dir),
        chain_config(),
    )
    .expect("open durable tiers");
    let sealer = AccountId::from_name("sealer");
    for i in 0..FORKY_BLOCKS {
        let parent = chain.tip();
        let height = chain.height() + 1;
        let canon = chain.assemble_next(i + 1, sealer, 0, Vec::new());
        chain.append(canon).expect("append");
        // Every 10th height also gets an equal-work rival that loses the
        // tie and rots in the cold tier until compaction.
        if i % 10 == 0 {
            let rival = Block::assemble(
                height,
                parent,
                i + 1,
                AccountId::from_name("rival"),
                0,
                vec![Transaction::new(
                    AccountId::from_name("r"),
                    i,
                    i,
                    9,
                    vec![0xEE; 96],
                )],
            );
            chain.append(rival).expect("append rival");
        }
    }
    // Best of two sweeps: the first warms OS/file caches, the second is
    // the steady-state number.
    let sweep = |chain: &Chain| {
        let mut best = std::time::Duration::MAX;
        let mut seen = 0u64;
        for _ in 0..2 {
            let t = Instant::now();
            seen = 0;
            for h in 0..=chain.height() {
                if chain.block_at(h).is_some() {
                    seen += 1;
                }
            }
            best = best.min(t.elapsed());
        }
        (seen, best)
    };
    let bytes_before = chain.stored_bytes();
    let (seen_before, scan_before) = sweep(&chain);
    let t = Instant::now();
    let stats = chain.compact().expect("compact");
    let compact_t = t.elapsed();
    let (seen_after, scan_after) = sweep(&chain);
    assert_eq!(seen_before, seen_after, "canonical blocks must survive");
    println!(
        "ledger_scale compaction: {FORKY_BLOCKS} blocks + {} forks, compact in {:.2?}: \
         dropped {} blocks, reclaimed {} of {} bytes ({} segments rewritten); \
         full canonical scan {:.2?} → {:.2?}",
        FORKY_BLOCKS / 10,
        compact_t,
        stats.blocks_dropped,
        stats.bytes_reclaimed,
        bytes_before,
        stats.segments_rewritten,
        scan_before,
        scan_after,
    );
    drop(chain);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_ledger_scale(c: &mut Criterion) {
    let (mem, mem_ids, durable, durable_ids, dir) = report_append_throughput();

    let mut group = c.benchmark_group("tx_lookup_100k_chain");
    group.sample_size(20);
    // Hot lookup: the same recent transaction over and over — the durable
    // chain serves this from its LRU hot set.
    for (label, chain, ids) in [
        ("mem", &mem, &mem_ids),
        ("all-tiers", &durable, &durable_ids),
    ] {
        let hot_id = *ids.last().expect("sample txs");
        group.bench_with_input(BenchmarkId::new("hot", label), &hot_id, |b, id| {
            b.iter(|| chain.get_tx(black_box(id)).expect("hot tx"))
        });
    }
    // Uniform lookup: sweep across the whole history — on the durable
    // chain most probes miss the hot set and hit the cold segment tier.
    for (label, chain, ids) in [
        ("mem", &mem, &mem_ids),
        ("all-tiers", &durable, &durable_ids),
    ] {
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::new("uniform", label), &(), |b, _| {
            b.iter(|| {
                let id = &ids[cursor % ids.len()];
                cursor = cursor.wrapping_add(1);
                chain.get_tx(black_box(id)).expect("indexed tx")
            })
        });
    }
    group.finish();

    // The durable index's *point lookup* path in isolation (no block
    // fetch): hot = one long-finalized id, its page pinned in the LRU page
    // cache; cold = sweep over all finalized ids.
    let mut group = c.benchmark_group("spilled_index_lookup");
    group.sample_size(20);
    let oldest = durable_ids.first().expect("sample txs");
    group.bench_with_input(BenchmarkId::new("hot", "page-cached"), oldest, |b, id| {
        b.iter(|| durable.tx_by_id(black_box(id)).expect("finalized tx"))
    });
    let mut cursor = 0usize;
    group.bench_with_input(BenchmarkId::new("cold", "page-sweep"), &(), |b, _| {
        b.iter(|| {
            let id = &durable_ids[cursor % durable_ids.len()];
            cursor = cursor.wrapping_add(1);
            durable.tx_by_id(black_box(id)).expect("finalized tx")
        })
    });
    // Secondary full-history query across both tiers.
    let auditor = AccountId::from_name("auditor");
    group.bench_with_input(
        BenchmarkId::new("by_author", "full-history"),
        &auditor,
        |b, author| b.iter(|| durable.txs_by_author(black_box(author)).len()),
    );
    group.finish();
    let (hits, misses) = durable.tx_index().expect("durable chain").cache_stats();
    println!("ledger_scale durable-index page cache: {hits} hits / {misses} misses");

    report_cold_start_sweep();
    report_ingest_scaling();
    report_batch_commit();
    report_compaction();

    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_ledger_scale);
criterion_main!(benches);
