//! Mixed read/write workload over the epoch-published read path.
//!
//! One writer thread floods `append_batch` into a fully-tiered chain while
//! 1/2/4/8 detached [`ChainReader`] threads hammer point queries
//! (`hash_at`, `tx_by_id`, `next_nonce_for`) and periodic sweep queries
//! (`txs_by_author`, `txs_by_kind`) against pinned snapshots. Because
//! readers never take the writer's locks — they load the published
//! `ChainSnapshot` and read sealed tier pages through sharded caches — the
//! numbers to watch are:
//!
//! * `mixed_rw/reader_only/p50_ns|p99_ns` — single-thread query latency
//!   with the writer idle (the baseline);
//! * `mixed_rw/readers/{R}/p50_ns|p99_ns|ops_per_s` — the same query mix
//!   with the writer flooding; p99 should stay within a small constant
//!   factor of the baseline (no reader ever blocks on a commit);
//! * `mixed_rw/writer/solo_blk_s` vs `mixed_rw/writer/with_{R}_readers_blk_s`
//!   — writer degradation from snapshot publishing + cache sharing.
//!
//! Honest caveat, printed at the end of the run: aggregate reader
//! throughput scaling from 1 → 4 threads is only observable with ≥ 4
//! hardware threads. On a single-core CI box the readers time-slice one
//! core and aggregate throughput stays flat (latency still must not
//! collapse — that part is scheduling-independent).
//!
//! `MIXED_RW_BLOCKS` caps both the pre-grown history and the flood stream
//! (CI smoke runs set a few hundred; the default is 10k/10k).

use blockprov_ledger::block::Block;
use blockprov_ledger::chain::{Chain, ChainConfig, ChainReader};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FINALITY_DEPTH: u64 = 64;
const BATCH: usize = 256;
const TX_KIND: u16 = 7;
/// Loop iterations for the reader-only baseline (each runs several ops).
const BASELINE_ITERS: usize = 4_000;

fn blocks_cap() -> u64 {
    std::env::var("MIXED_RW_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-bench-mixed-rw-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All three durable tiers at default (realistic) page sizes.
fn all_tiers_chain(dir: &std::path::Path) -> Chain {
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            segment: SegmentConfig {
                segment_bytes: 8 * 1024 * 1024,
            },
            hot_capacity: 256,
        },
    )
    .expect("open tiered store");
    let index = TxIndex::open(dir.join("txindex"), TxIndexConfig::default()).expect("open index");
    let meta = MetaStore::open(dir.join("meta"), MetaConfig::default()).expect("open meta");
    let config = ChainConfig {
        finality_depth: Some(FINALITY_DEPTH),
        ..ChainConfig::default()
    };
    Chain::replay_with_tiers(Box::new(store), Some(index), meta, config).expect("open tiers")
}

/// Deterministic xorshift so every phase replays the same query mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn authors() -> [AccountId; 3] {
    [
        AccountId::from_name("alice"),
        AccountId::from_name("bob"),
        AccountId::from_name("carol"),
    ]
}

/// Grow `blocks` history: every block carries one tx from a rotating
/// author, so point and sweep queries have real data in both tiers.
fn grow(chain: &mut Chain, blocks: u64) -> Vec<TxId> {
    let sealer = AccountId::from_name("sealer");
    let who = authors();
    let mut ids = Vec::with_capacity(blocks as usize);
    for i in 0..blocks {
        let tx = Transaction::new(who[(i % 3) as usize], i / 3, i + 1, TX_KIND, vec![0xAA; 24]);
        ids.push(tx.id());
        let block = chain.assemble_next(i + 1, sealer, 0, vec![tx]);
        chain.append(block).expect("append");
    }
    ids
}

/// Pre-assemble the flood stream off the current tip; every mixed phase
/// ingests identical blocks.
fn flood_stream(chain: &Chain, blocks: u64) -> Vec<Block> {
    let sealer = AccountId::from_name("flooder");
    let who = authors();
    let mut parent = chain.tip();
    let tip_block = chain.block(&parent).expect("tip readable");
    let (base_h, base_ts) = (tip_block.header.height, tip_block.header.timestamp_ms);
    (0..blocks)
        .map(|i| {
            let tx = Transaction::new(
                who[(i % 3) as usize],
                1_000_000 + i,
                base_ts + i + 1,
                TX_KIND,
                vec![0xBB; 24],
            );
            let b = Block::assemble(base_h + i + 1, parent, base_ts + i + 1, sealer, 0, vec![tx]);
            parent = b.hash();
            b
        })
        .collect()
}

/// One reader iteration against a freshly-pinned view: three timed point
/// ops, plus one timed sweep every 16th call. Returns per-op latencies.
fn reader_iteration(reader: &ChainReader, rng: &mut Rng, ids: &[TxId], n: usize, out: &mut Vec<u64>) {
    let who = authors();
    let v = reader.view();

    let h = rng.next() % (v.height() + 1);
    let t = Instant::now();
    black_box(v.hash_at(h));
    out.push(t.elapsed().as_nanos() as u64);

    let id = &ids[(rng.next() as usize) % ids.len()];
    let t = Instant::now();
    black_box(v.tx_by_id(id));
    out.push(t.elapsed().as_nanos() as u64);

    let author = &who[(rng.next() as usize) % 3];
    let t = Instant::now();
    black_box(v.next_nonce_for(author));
    out.push(t.elapsed().as_nanos() as u64);

    if n % 16 == 0 {
        let t = Instant::now();
        if n % 32 == 0 {
            black_box(v.txs_by_author(author).len());
        } else {
            black_box(v.txs_by_kind(TX_KIND).len());
        }
        out.push(t.elapsed().as_nanos() as u64);
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct ReaderStats {
    p50_ns: u64,
    p99_ns: u64,
    ops: usize,
    /// Sum of per-thread op rates (ops/s) — aggregate throughput.
    ops_per_s: f64,
}

fn aggregate(per_thread: Vec<(Vec<u64>, Duration)>) -> ReaderStats {
    let mut all: Vec<u64> = Vec::new();
    let mut ops_per_s = 0.0;
    for (samples, elapsed) in &per_thread {
        ops_per_s += samples.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        all.extend_from_slice(samples);
    }
    all.sort_unstable();
    ReaderStats {
        p50_ns: percentile(&all, 0.50),
        p99_ns: percentile(&all, 0.99),
        ops: all.len(),
        ops_per_s,
    }
}

/// Reader-only baseline: one thread, fixed iteration count, writer idle.
fn phase_reader_only(base_blocks: u64) -> ReaderStats {
    let dir = bench_dir("reader-only");
    let mut chain = all_tiers_chain(&dir);
    let ids = grow(&mut chain, base_blocks);
    let reader = chain.reader();
    let mut rng = Rng(0x9e3779b97f4a7c15);
    let mut samples = Vec::new();
    let t = Instant::now();
    for n in 0..BASELINE_ITERS {
        reader_iteration(&reader, &mut rng, &ids, n, &mut samples);
    }
    let elapsed = t.elapsed();
    drop(reader);
    drop(chain);
    let _ = std::fs::remove_dir_all(&dir);
    aggregate(vec![(samples, elapsed)])
}

/// Writer solo: flood the stream with no reader attached (the census gate
/// elides snapshot publishing entirely — the best-case writer number).
fn phase_writer_solo(base_blocks: u64, flood_blocks: u64) -> f64 {
    let dir = bench_dir("writer-solo");
    let mut chain = all_tiers_chain(&dir);
    let _ = grow(&mut chain, base_blocks);
    let stream = flood_stream(&chain, flood_blocks);
    let t = Instant::now();
    for batch in stream.chunks(BATCH) {
        chain.append_batch(batch.to_vec()).expect("batch append");
    }
    let rate = flood_blocks as f64 / t.elapsed().as_secs_f64();
    drop(chain);
    let _ = std::fs::remove_dir_all(&dir);
    rate
}

/// Mixed phase: writer floods on the bench thread while `n_readers`
/// threads run the query mix until the flood finishes.
fn phase_mixed(n_readers: usize, base_blocks: u64, flood_blocks: u64) -> (ReaderStats, f64) {
    let dir = bench_dir(&format!("mixed-{n_readers}"));
    let mut chain = all_tiers_chain(&dir);
    let ids = Arc::new(grow(&mut chain, base_blocks));
    let stream = flood_stream(&chain, flood_blocks);

    let done = Arc::new(AtomicBool::new(false));
    let first = chain.reader();
    let handles: Vec<_> = (0..n_readers)
        .map(|k| {
            let reader = first.clone();
            let ids = Arc::clone(&ids);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = Rng(0x2545f4914f6cdd1d ^ (k as u64 + 1));
                let mut samples = Vec::new();
                let mut n = 0usize;
                let t = Instant::now();
                while !done.load(Ordering::Acquire) {
                    reader_iteration(&reader, &mut rng, &ids, n, &mut samples);
                    n += 1;
                }
                (samples, t.elapsed())
            })
        })
        .collect();
    drop(first);

    let t = Instant::now();
    for batch in stream.chunks(BATCH) {
        chain.append_batch(batch.to_vec()).expect("batch append");
    }
    let writer_rate = flood_blocks as f64 / t.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    let per_thread: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .collect();
    drop(chain);
    let _ = std::fs::remove_dir_all(&dir);
    (aggregate(per_thread), writer_rate)
}

fn bench_mixed_rw(_c: &mut Criterion) {
    let cap = blocks_cap();
    let (base_blocks, flood_blocks) = (cap, cap);
    println!("mixed_rw: {base_blocks} pre-grown blocks, {flood_blocks} flooded blocks per phase");

    let baseline = phase_reader_only(base_blocks);
    record_metric("mixed_rw/reader_only/p50_ns", baseline.p50_ns as f64, "ns");
    record_metric("mixed_rw/reader_only/p99_ns", baseline.p99_ns as f64, "ns");
    println!(
        "mixed_rw reader-only baseline: {} ops, p50 {} ns, p99 {} ns, {:.0} ops/s",
        baseline.ops, baseline.p50_ns, baseline.p99_ns, baseline.ops_per_s
    );

    let solo = phase_writer_solo(base_blocks, flood_blocks);
    record_metric("mixed_rw/writer/solo_blk_s", solo, "blk/s");
    println!("mixed_rw writer solo (no readers attached): {solo:.0} blk/s");

    let mut agg_rates = Vec::new();
    for readers in [1usize, 2, 4, 8] {
        let (stats, writer_rate) = phase_mixed(readers, base_blocks, flood_blocks);
        record_metric(
            &format!("mixed_rw/readers/{readers}/p50_ns"),
            stats.p50_ns as f64,
            "ns",
        );
        record_metric(
            &format!("mixed_rw/readers/{readers}/p99_ns"),
            stats.p99_ns as f64,
            "ns",
        );
        record_metric(
            &format!("mixed_rw/readers/{readers}/ops_per_s"),
            stats.ops_per_s,
            "ops/s",
        );
        record_metric(
            &format!("mixed_rw/writer/with_{readers}_readers_blk_s"),
            writer_rate,
            "blk/s",
        );
        println!(
            "mixed_rw [{readers} readers + writer]: {} reader ops \
             (p50 {} ns, p99 {} ns, {:.0} ops/s aggregate), \
             writer {:.0} blk/s ({:.2}x of solo), \
             reader p99 {:.1}x of reader-only baseline",
            stats.ops,
            stats.p50_ns,
            stats.p99_ns,
            stats.ops_per_s,
            writer_rate,
            writer_rate / solo.max(1e-9),
            stats.p99_ns as f64 / (baseline.p99_ns as f64).max(1.0),
        );
        agg_rates.push((readers, stats.ops_per_s));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = agg_rates[0].1;
    let four = agg_rates[2].1;
    if four > one {
        println!(
            "mixed_rw scaling: aggregate reader throughput 1→4 threads rose \
             {one:.0} → {four:.0} ops/s ({:.2}x) on {cores} hardware threads",
            four / one.max(1e-9)
        );
    } else {
        println!(
            "mixed_rw scaling: aggregate reader throughput did NOT rise 1→4 threads \
             ({one:.0} → {four:.0} ops/s) — expected on {cores} hardware thread(s); \
             readers time-slice the same core(s), so latency (not aggregate rate) \
             is the meaningful signal here"
        );
    }
}

criterion_group!(benches, bench_mixed_rw);
criterion_main!(benches);
