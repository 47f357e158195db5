//! The repository benchmark: drives a release `blockprov-node` process over
//! HTTP with one of three workloads, checks every answer, and reports
//! end-to-end metrics (`--trace 0`) or a per-layer breakdown measured by
//! replaying the same inputs on each layer's public functions
//! (`--trace 1`). See `README.md` beside this crate.
//!
//! ```text
//! blockprov-perfbench --workload ingest|mixed|lineage --seed N --seconds S
//!     --trace 0|1 --node PATH/TO/blockprov-node --work DIR
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod client;
mod gen;
mod node;
mod oracle;
mod phases;
mod replay;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{stream_offset, Batch, History, Rng, ARTIFACTS, TXS_PER_BLOCK};
use node::{NodeFlags, NodeProc};
use oracle::ReadKey;
use phases::{copy_dir, dir_sizes, Ctx, Reads, Tally, Writes};
use stats::{median, Summary};
use trace::Tracer;

/// Node starts per run: at least the minimum, then more until the budget
/// is spent, so a cheap start is sampled hundreds of times; `setup_s` is
/// their median.
const SETUP_STARTS_MIN: usize = 5;
const SETUP_STARTS_MAX: usize = 2000;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// `ingest` rounds; the other workloads' end-to-end figures are medians
/// over this many slices of the window.
const SLICES: usize = 4;
/// Blocks per `POST /blocks` in `ingest` and in every preload.
const BATCH: u64 = 64;
/// `ingest` pre-generates this many blocks per second of a round, above
/// the 44–81k blk/s of an in-memory `Chain::append_batch` on seed code
/// (the node did 14–24k). A round that posts the whole stream before its
/// deadline fails the run.
const INGEST_BLOCKS_PER_S: u64 = 96_000;
/// `ingest` reads the node's peak memory once a round has committed this
/// many batches (32 768 blocks; seed code commits 70–90k blocks a round),
/// so the figure does not grow with the node's speed.
const INGEST_RSS_MARK: usize = 512;
/// `mixed` history: far beyond the 1024-block hot cache.
const MIXED_PRELOAD: u64 = 40_000;
/// `mixed` writer: blocks per POST and POSTs due per second. The rate is a
/// quarter of the 3400 POST/s a closed loop of such POSTs committed on
/// this history with the reader idle (seed code, 2 vCPUs), so the writer
/// keeps up with room to spare and a slower write path shows as latency.
const MIXED_WRITE_BATCH: u64 = 2;
const MIXED_WRITE_RATE: u64 = 850;
/// `lineage` history: 15 360 provenance records, 60 per artifact, in
/// 3.75 times as many blocks as the hot cache holds.
const LINEAGE_PRELOAD: u64 = 3840;
/// Point reads of each kind re-read for the oracle after the window.
const ORACLE_PER_KIND: usize = 32;
/// Most window reads a traced run replays on the direct view.
const REPLAY_POINT_READS: usize = 20_000;
const REPLAY_LINEAGE_READS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Mixed,
    Lineage,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
            Workload::Lineage => "lineage",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    node: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut node, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "mixed" => Workload::Mixed,
                    "lineage" => Workload::Lineage,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--node" => node = Some(PathBuf::from(&value)),
            "--work" => work = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        node: node.ok_or("--node is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
}

fn us(v: &[u64]) -> f64 {
    mean(v) / 1e3
}

/// Median latency of the traced operations over that of the same
/// operations in an untraced window, minus one.
fn trace_overhead(untraced: &[u64], traced: &[u64]) -> f64 {
    let base = Summary::new(untraced.to_vec()).p(50.0) as f64;
    if base == 0.0 {
        return 0.0;
    }
    Summary::new(traced.to_vec()).p(50.0) as f64 / base - 1.0
}

/// An untraced window: its traffic and the node's read-side figures.
struct Untraced {
    writes: Option<Writes>,
    reads: Option<Reads>,
    server_query_us: f64,
    hits: f64,
    misses: f64,
}

/// The write traffic a traced run decomposes, and the node's view of it.
struct WritePhase<'a> {
    writes: &'a Writes,
    server_ingest_us: f64,
    sizes_before: [u64; 4],
    sizes_after: [u64; 4],
}

/// What a run produced.
struct Outcome {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    tally: Tally,
    report: Vec<String>,
    manifest: String,
}

fn run(args: &Args) -> io::Result<Outcome> {
    let flags = NodeFlags::BENCH;
    std::fs::create_dir_all(&args.work)?;
    let dir = args.work.join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let _scratch = Scratch(dir.clone());
    let ctx = Ctx {
        node_bin: args.node.clone(),
        dir: dir.clone(),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        flags: flags.clone(),
        origin: Instant::now(),
    };
    let mut tracer = ctx.tracer(1);
    let mut tally = Tally::default();
    let mut report = Vec::new();
    let w = args.workload;

    // Inputs: the preloaded history (seed-independent, so every run starts
    // from an identical directory) and the window's stream (seeded).
    let mut hist = History::genesis();
    let base_batches = match w {
        Workload::Ingest => Vec::new(),
        Workload::Mixed => hist.extend(MIXED_PRELOAD, BATCH, 0),
        Workload::Lineage => hist.extend(LINEAGE_PRELOAD, BATCH, 0),
    };
    let base_height = hist.height();
    let window_batches = match w {
        Workload::Ingest => hist.extend(
            INGEST_BLOCKS_PER_S * args.seconds.div_ceil(SLICES as u64),
            BATCH,
            stream_offset(args.seed),
        ),
        Workload::Mixed => hist.extend(
            (MIXED_WRITE_RATE * args.seconds + 1) * MIXED_WRITE_BATCH,
            MIXED_WRITE_BATCH,
            base_height * TXS_PER_BLOCK + stream_offset(args.seed),
        ),
        Workload::Lineage => Vec::new(),
    };

    // Preload through a node of its own, then stop it cleanly: the
    // directory it leaves is what every start of this run copies.
    let preload = dir.join("preload");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&preload)?;
    std::fs::create_dir_all(&empty)?;
    let mut loader = None;
    let mut backpressure = 0.0;
    // The write-path replicas follow the traffic a traced run decomposes:
    // the window's writes, or on `lineage` the preload.
    let mut replica = None;
    if !base_batches.is_empty() {
        if w == Workload::Lineage {
            replica = write_replay(args, &dir, &empty, &[])?;
        }
        let node = NodeProc::start(&ctx.node_bin, &preload, &flags)?;
        let before = node.metrics()?;
        let lw = phases::post_closed_loop(
            &node,
            &base_batches,
            None,
            None,
            &mut tracer,
            &mut tally,
            replica.as_mut(),
        )?;
        let after = node.metrics()?;
        node.stop()?;
        if lw.batches != base_batches.len() {
            return Err(io::Error::other(format!(
                "preload failed: {:?}",
                tally.notes
            )));
        }
        backpressure += after.get("node_ingest_backpressure_total");
        loader = Some((lw, after.mean_us_since(&before, "node_ingest_latency")));
    }
    let preload_sizes = dir_sizes(&preload)?;

    let (mut node, mut setup_times) = phases::setup(
        &ctx,
        &preload,
        SETUP_STARTS_MIN,
        SETUP_BUDGET,
        SETUP_STARTS_MAX,
    )?;

    // `ingest` runs its window as rounds, each on a fresh node over a fresh
    // copy of the preload, replaying the same stream, so a long window
    // never grows one node without bound. A traced run of another workload
    // first runs an untraced half window the same way. The untraced rounds
    // are what `bench.trace_overhead` compares the traced window with, and
    // where a traced run takes its read-path node figures.
    let (untraced_windows, window) = match w {
        Workload::Ingest => (SLICES - 1, ctx.window / SLICES as u32),
        _ if args.trace => (1, ctx.window / 2),
        _ => (0, ctx.window),
    };
    let wctx = ctx.with_window(window);
    let mut untraced = Vec::new();
    let mut round_rss = Vec::new();
    for r in 0..untraced_windows {
        let mut quiet = Tracer::new(false, ctx.origin, 0);
        let m0 = node.metrics()?;
        let (wr, rd) = drive(
            w,
            &wctx,
            &node,
            &hist,
            &window_batches,
            base_height,
            &mut quiet,
            &mut tally,
            None,
        )?;
        let m1 = node.metrics()?;
        if let Some(wr) = &wr {
            phases::check_tip(&node, &hist, base_height + wr.blocks, &mut tally)?;
        }
        round_rss.push(peak_rss_mb(&node, wr.as_ref())?);
        backpressure += m1.get("node_ingest_backpressure_total");
        untraced.push(Untraced {
            writes: wr,
            reads: rd,
            server_query_us: m1.mean_us_since(&m0, "node_query_latency"),
            hits: m1.delta(&m0, "node_reader_cache_hits"),
            misses: m1.delta(&m0, "node_reader_cache_misses"),
        });
        let old = node.data_dir.clone();
        node.stop()?;
        std::fs::remove_dir_all(old)?;
        let data = dir.join(format!("round-{r}"));
        copy_dir(&preload, &data)?;
        node = NodeProc::start(&ctx.node_bin, &data, &flags)?;
        setup_times.push(node.ready_s);
    }

    if w != Workload::Lineage {
        replica = write_replay(args, &dir, &preload, &base_batches)?;
    }
    let data = node.data_dir.clone();
    let start_sizes = dir_sizes(&data)?;
    let m0 = node.metrics()?;
    let (writes, reads) = drive(
        w,
        &wctx,
        &node,
        &hist,
        &window_batches,
        base_height,
        &mut tracer,
        &mut tally,
        replica.as_mut(),
    )?;
    let m1 = node.metrics()?;
    let committed = base_height + writes.as_ref().map_or(0, |w| w.blocks);
    let sample = phases::oracle_sample(
        &ctx,
        &node,
        &hist,
        committed,
        ORACLE_PER_KIND,
        &mut tracer,
        &mut tally,
    )?;
    let m2 = node.metrics()?;
    backpressure += m2.get("node_ingest_backpressure_total");
    round_rss.push(peak_rss_mb(&node, writes.as_ref())?);
    let rss_mb = median(&round_rss);
    node.stop()?;
    let end_sizes = dir_sizes(&data)?;

    // The direct view over the node's own directory: the oracle for the
    // sampled answers, and the read path the traced run replays.
    let final_copy = dir.join("final-chain");
    if args.trace {
        copy_dir(&data, &final_copy)?;
    }
    let t = Instant::now();
    let mut ledger = replay::open_ledger(&data, &flags)?;
    let open_s = t.elapsed().as_secs_f64();
    let view = ledger.reader().view();
    tally.attempted += 1;
    if view.height() != committed || view.tip() != hist.hash_at(committed) {
        tally.wrong += 1;
        report.push(format!(
            "tip mismatch: direct view at {} but the generator committed {committed}",
            view.height()
        ));
    }
    for (key, body) in &sample.bodies {
        if let Err(msg) = key.check_direct(&hist, &view, body) {
            tally.wrong += 1;
            report.push(msg);
        }
    }

    // End-to-end metrics: medians over the `ingest` rounds, or over
    // slices of the window.
    let setup_s = median(&setup_times);
    let untraced_writes: Vec<&Writes> = untraced.iter().filter_map(|u| u.writes.as_ref()).collect();
    let pooled = writes.as_ref().map(|last| {
        let mut all = Writes::default();
        if w == Workload::Ingest {
            untraced_writes.iter().for_each(|e| all.absorb(e));
        }
        all.absorb(last);
        all
    });
    let slice = window / SLICES as u32;
    // `ops_per_s` counts the closed loop (ingest blocks, or reads); the
    // latencies are the writes' where the workload writes (on `mixed`, the
    // open-loop writer's, from due time), else the reads'.
    let (rate_sl, lat_sl) = match (w, &writes, &reads) {
        (Workload::Ingest, Some(last), _) => {
            let rounds = per_round(untraced_writes.iter().copied().chain([last]));
            (rounds, None)
        }
        (Workload::Mixed, Some(wr), Some(rd)) => (
            sliced(&rd.at, &rd.call, slice),
            Some(sliced(&wr.at, &wr.latency, slice)),
        ),
        (_, _, Some(rd)) => (sliced(&rd.at, &rd.call, slice), None),
        _ => unreachable!("every workload has a primary traffic"),
    };
    let lat_sl = lat_sl.as_ref().unwrap_or(&rate_sl);
    report.push(format!(
        "{} ({}): ops/s {:?}; latency p50 us {:?}, tail us {:?}",
        if w == Workload::Ingest {
            "rounds"
        } else {
            "slices"
        },
        rate_sl.len(),
        rate_sl.iter().map(|s| s.0.round()).collect::<Vec<_>>(),
        lat_sl
            .iter()
            .map(|s| s.1.p(50.0) / 1000)
            .collect::<Vec<_>>(),
        lat_sl
            .iter()
            .map(|s| format!("p{}={}", s.1.tail().0, s.1.tail().1 / 1000))
            .collect::<Vec<_>>(),
    ));
    let med = |sl: &[(f64, Summary)], f: &dyn Fn(&(f64, Summary)) -> f64| {
        median(&sl.iter().map(f).collect::<Vec<_>>())
    };
    let e2e = vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", med(&rate_sl, &|s| s.0), "1/s"),
        metric("p50_us", med(lat_sl, &|s| s.1.p(50.0) as f64 / 1e3), "us"),
        metric("p90_us", med(lat_sl, &|s| s.1.p(90.0) as f64 / 1e3), "us"),
        metric("node_rss_mb", rss_mb, "MB"),
    ];
    let disk = writes
        .as_ref()
        .map(|last| (end_sizes[3] as f64 - start_sizes[3] as f64, last.bytes));
    report.extend(full_report(
        w,
        &setup_times,
        pooled.as_ref(),
        reads.as_ref(),
        &tally,
        rss_mb,
        disk,
    ));

    let mut layers = Vec::new();
    if args.trace {
        let mut rng = Rng::new(args.seed, 4);
        let (mut keys, mut parents): (Vec<ReadKey>, Vec<u64>) = match (w, &reads) {
            (Workload::Mixed, Some(rd)) => cap(rd, REPLAY_POINT_READS),
            (Workload::Lineage, Some(rd)) => cap(rd, REPLAY_LINEAGE_READS),
            _ => (Vec::new(), Vec::new()),
        };
        if w != Workload::Mixed {
            keys.extend(&sample.reads.keys);
            parents.extend(&sample.reads.spans);
        }
        if w != Workload::Lineage {
            keys.push(ReadKey::Provenance(rng.below(ARTIFACTS)));
            parents.push(0);
        }
        let rt = replay::replay_reads(&mut tracer, &view, &hist, &keys, &parents);
        drop(view);
        drop(ledger);

        let t = Instant::now();
        let chain = replay::open_chain(&final_copy, &flags)?;
        let replay_s = t.elapsed().as_secs_f64();
        drop(chain);
        std::fs::remove_dir_all(&final_copy)?;

        let wp = match (w, &writes, &loader) {
            (Workload::Lineage, _, Some((lw, server))) => WritePhase {
                writes: lw,
                server_ingest_us: *server,
                sizes_before: [0; 4],
                sizes_after: preload_sizes,
            },
            (_, Some(wr), _) => WritePhase {
                writes: wr,
                server_ingest_us: m1.mean_us_since(&m0, "node_ingest_latency"),
                sizes_before: start_sizes,
                sizes_after: end_sizes,
            },
            _ => unreachable!("every workload has write traffic in some phase"),
        };
        let wt = replica
            .take()
            .expect("traced runs keep write replicas")
            .finish()?;

        // The untraced traffic: the pooled earlier rounds on `ingest`, the
        // first half window elsewhere.
        let mut base = Writes::default();
        untraced_writes.iter().for_each(|e| base.absorb(e));
        let first = untraced
            .first()
            .expect("traced runs have an untraced window");
        let (overhead, lag, base_sl) = match (w, &writes, &reads, &first.reads) {
            (Workload::Ingest, Some(wr), _, _) => (
                trace_overhead(&base.call, &wr.call),
                &base.gen_lag,
                per_round(untraced_writes.iter().copied()),
            ),
            (Workload::Mixed, Some(wr), _, Some(_)) => {
                let bwr = first.writes.as_ref().expect("mixed writes");
                (
                    trace_overhead(&bwr.latency, &wr.latency),
                    &bwr.gen_lag,
                    sliced(&bwr.at, &bwr.latency, slice),
                )
            }
            (_, _, Some(rd), Some(brd)) => (
                trace_overhead(&brd.call, &rd.call),
                &brd.gen_lag,
                sliced(&brd.at, &brd.call, slice),
            ),
            _ => unreachable!("every workload has a primary traffic"),
        };
        // Read-path node figures: the oracle's sample on `ingest` (its
        // window has no reads), the untraced window elsewhere.
        let (rd, server_query_us, hits, misses) = match (w, &first.reads) {
            (Workload::Ingest, _) => (
                &sample.reads,
                sample.server_query_us,
                m2.delta(&m1, "node_reader_cache_hits"),
                m2.delta(&m1, "node_reader_cache_misses"),
            ),
            (_, Some(brd)) => (brd, first.server_query_us, first.hits, first.misses),
            _ => unreachable!("every workload has read traffic in some phase"),
        };
        let payload = wp.writes.bytes as f64;
        let core = Summary::new(wt.core.clone());
        layers = vec![
            metric("wire.decode_batch_us", us(&wt.decode), "us"),
            metric("wire.batch_bytes", payload / wp.writes.batches as f64, "B"),
            metric("node.server_ingest_us", wp.server_ingest_us, "us"),
            metric(
                "node.http_ingest_overhead_us",
                us(&wp.writes.call) - wp.server_ingest_us,
                "us",
            ),
            metric(
                "node.queue_handoff_us",
                wp.server_ingest_us - us(&wt.decode) - us(&wt.core),
                "us",
            ),
            metric("node.server_query_us", server_query_us, "us"),
            metric(
                "node.http_query_overhead_us",
                us(&rd.call) - server_query_us,
                "us",
            ),
            metric("node.backpressure_429", backpressure, "count"),
            metric("core.ingest_blocks_us", core.mean() / 1e3, "us"),
            metric("core.ingest_blocks_p50_us", core.p(50.0) as f64 / 1e3, "us"),
            metric(
                "core.ingest_blocks_p99_us",
                core.tail().1 as f64 / 1e3,
                "us",
            ),
            metric(
                "core.absorb_share",
                1.0 - us(&wt.append) / us(&wt.core),
                "ratio",
            ),
            metric("core.open_s", open_s, "s"),
            metric("ledger.append_batch_us", us(&wt.append), "us"),
            metric("ledger.append_batch_mem_us", us(&wt.append_mem), "us"),
            metric(
                "ledger.durable_share",
                1.0 - us(&wt.append_mem) / us(&wt.append),
                "ratio",
            ),
            metric(
                "ledger.blocks_bytes_per_payload_byte",
                (wp.sizes_after[0] as f64 - wp.sizes_before[0] as f64) / payload,
                "ratio",
            ),
            metric(
                "ledger.index_bytes_per_payload_byte",
                (wp.sizes_after[1] as f64 - wp.sizes_before[1] as f64) / payload,
                "ratio",
            ),
            metric(
                "ledger.meta_bytes_per_payload_byte",
                (wp.sizes_after[2] as f64 - wp.sizes_before[2] as f64) / payload,
                "ratio",
            ),
            metric("ledger.replay_s", replay_s, "s"),
            metric("ledger.view_block_at_ns", mean(&rt.block_at), "ns"),
            metric("ledger.view_find_tx_ns", mean(&rt.find_tx), "ns"),
            metric("ledger.view_prove_tx_ns", mean(&rt.prove_tx), "ns"),
            metric("ledger.view_get_tx_ns", mean(&rt.get_tx), "ns"),
            metric("ledger.view_txs_by_kind_us", us(&rt.txs_by_kind), "us"),
            metric(
                "ledger.hot_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                "ratio",
            ),
            metric("provenance.record_decode_ns", mean(&rt.record_decode), "ns"),
            metric(
                "provenance.lineage_examined_per_result",
                rt.examined as f64 / rt.returned.max(1) as f64,
                "ratio",
            ),
            metric("crypto.proof_verify_ns", mean(&rt.proof_verify), "ns"),
            metric(
                "bench.gen_lag_p99_ms",
                Summary::new(lag.clone()).tail().1 as f64 / 1e6,
                "ms",
            ),
            metric("bench.trace_overhead", overhead, "ratio"),
            metric(
                "bench.p99_us",
                med(&base_sl, &|s| s.1.tail().1 as f64 / 1e3),
                "us",
            ),
            metric("bench.client_post_us", us(&wp.writes.call), "us"),
            metric("bench.client_read_us", us(&rd.call), "us"),
        ];
        // The terms that subtract a direct replay from the node's own
        // figure; on `lineage` the write traffic is the preload, outside
        // the window, and too small to hold them to this.
        let replay_terms: &[&str] = if w == Workload::Lineage {
            &[]
        } else {
            &[
                "node.queue_handoff_us",
                "core.absorb_share",
                "ledger.durable_share",
            ]
        };
        for &term in replay_terms {
            let v = layers
                .iter()
                .find(|m| m.name == term)
                .expect("listed above")
                .value;
            if v < 0.0 {
                tally.failed += 1;
                report.push(format!("decomposition term {term} = {v} is negative: the replay did not measure the node's work"));
            }
        }
        let spans_path = args.work.join(format!("spans-{}.jsonl", w.name()));
        tracer.write_jsonl(&spans_path)?;
        report.push(format!(
            "{} spans written to {}",
            tracer.len(),
            spans_path.display()
        ));
    }

    let manifest = manifest(args, &flags, base_height, committed);
    Ok(Outcome {
        e2e,
        layers,
        tally,
        report,
        manifest,
    })
}

/// Cut a window's operations into consecutive slices of length `slice` by
/// send (or due) time; per slice, the rate between the first and the last
/// send, and the latencies. The end-to-end figures are medians over slices,
/// so a short stall of the shared machine moves at most one slice.
fn sliced(at: &[u64], lat: &[u64], slice: Duration) -> Vec<(f64, Summary)> {
    let width = slice.as_nanos() as u64;
    let mut buckets = vec![(Vec::new(), u64::MAX, 0); SLICES];
    for (&t, &l) in at.iter().zip(lat) {
        if let Some((b, first, last)) = buckets.get_mut((t / width) as usize) {
            b.push(l);
            *first = t.min(*first);
            *last = t.max(*last);
        }
    }
    buckets
        .into_iter()
        .map(|(b, first, last)| {
            let span = last.saturating_sub(first) as f64 / 1e9;
            let rate = if b.len() > 1 {
                (b.len() - 1) as f64 / span
            } else {
                0.0
            };
            (rate, Summary::new(b))
        })
        .collect()
}

/// The node's peak memory: at the round's memory mark on `ingest`, else
/// now.
fn peak_rss_mb(node: &NodeProc, writes: Option<&Writes>) -> io::Result<f64> {
    match writes.and_then(|w| w.rss_mb) {
        Some(mb) => Ok(mb),
        None => node.peak_rss_mb(),
    }
}

/// Per `ingest` round: committed blocks per second of the round, and its
/// latencies.
fn per_round<'a>(rounds: impl Iterator<Item = &'a Writes>) -> Vec<(f64, Summary)> {
    rounds
        .map(|r| {
            (
                r.blocks as f64 / r.elapsed_s,
                Summary::new(r.latency.clone()),
            )
        })
        .collect()
}

/// Drive one window of workload `w` on `node`. A closed-loop `ingest`
/// round that posts its whole stream before the deadline fails the run:
/// the stream must outlast the fastest node it can meet.
#[allow(clippy::too_many_arguments)]
fn drive(
    w: Workload,
    ctx: &Ctx,
    node: &NodeProc,
    hist: &History,
    batches: &[Batch],
    base_height: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    replica: Option<&mut replay::WriteReplay>,
) -> io::Result<(Option<Writes>, Option<Reads>)> {
    Ok(match w {
        Workload::Ingest => {
            let wr = phases::post_closed_loop(
                node,
                batches,
                Some(ctx.window),
                Some(INGEST_RSS_MARK),
                tracer,
                tally,
                replica,
            )?;
            if wr.batches == batches.len() {
                tally.failed += 1;
                tally.note(format!(
                    "the ingest stream ran out after {:.2} s of a {:.2} s round: raise INGEST_BLOCKS_PER_S",
                    wr.elapsed_s,
                    ctx.window.as_secs_f64()
                ));
            }
            (Some(wr), None)
        }
        Workload::Mixed => {
            let plan = phases::OpenLoop {
                batches,
                interval: Duration::from_secs(1) / MIXED_WRITE_RATE as u32,
                base_height,
            };
            let (wr, rd) = phases::mixed_window(ctx, node, hist, &plan, tracer, tally, replica)?;
            (Some(wr), Some(rd))
        }
        Workload::Lineage => (
            None,
            Some(phases::lineage_window(ctx, node, hist, tracer, tally)?),
        ),
    })
}

/// In a traced run, direct write-path replicas starting from copies of
/// `base` (and, in memory, from `prefix`).
fn write_replay(
    args: &Args,
    dir: &Path,
    base: &Path,
    prefix: &[Batch],
) -> io::Result<Option<replay::WriteReplay>> {
    if !args.trace {
        return Ok(None);
    }
    let (core_dir, chain_dir) = (dir.join("replay-core"), dir.join("replay-chain"));
    copy_dir(base, &core_dir)?;
    copy_dir(base, &chain_dir)?;
    replay::WriteReplay::open(&NodeFlags::BENCH, &core_dir, &chain_dir, prefix).map(Some)
}

fn cap(rd: &Reads, n: usize) -> (Vec<ReadKey>, Vec<u64>) {
    let n = n.min(rd.keys.len());
    (rd.keys[..n].to_vec(), rd.spans[..n].to_vec())
}

/// The full end-to-end metric set of a workload, with sample counts, for
/// the human-readable report.
fn full_report(
    w: Workload,
    setup_times: &[f64],
    writes: Option<&Writes>,
    reads: Option<&Reads>,
    tally: &Tally,
    rss_mb: f64,
    disk: Option<(f64, u64)>,
) -> Vec<String> {
    let starts = Summary::new(setup_times.iter().map(|t| (t * 1e9) as u64).collect());
    let mut out = vec![format!(
        "setup_s              {:.4} s (median of {} starts; p10 {:.4}, p90 {:.4})",
        median(setup_times),
        setup_times.len(),
        starts.p(10.0) as f64 / 1e9,
        starts.p(90.0) as f64 / 1e9,
    )];
    if let Some(wr) = writes {
        let s = Summary::new(wr.latency.clone());
        let (tp, tv) = s.tail();
        let from = if w == Workload::Mixed {
            "from due time"
        } else {
            "from send"
        };
        out.push(format!(
            "ingest_blk_per_s     {:.1} blk/s ({} blocks in {:.2} s)",
            wr.blocks as f64 / wr.elapsed_s,
            wr.blocks,
            wr.elapsed_s
        ));
        out.push(format!(
            "ingest_p50_ms        {:.3} ms ({from}, n={})",
            s.p(50.0) as f64 / 1e6,
            s.count()
        ));
        out.push(format!(
            "ingest_p{tp}_ms        {:.3} ms (n={})",
            tv as f64 / 1e6,
            s.count()
        ));
    }
    if let Some((added, posted)) = disk {
        out.push(format!(
            "disk_bytes_per_payload_byte {:.3} ({added} bytes added / {posted} posted, last round)",
            added / posted as f64
        ));
    }
    if let Some(rd) = reads {
        let s = Summary::new(rd.call.clone());
        let (tp, tv) = s.tail();
        out.push(format!(
            "read_ops_per_s       {:.1} 1/s ({} reads in {:.2} s)",
            rd.call.len() as f64 / rd.elapsed_s,
            rd.call.len(),
            rd.elapsed_s
        ));
        out.push(format!(
            "read_p50_us          {:.1} us (n={})",
            s.p(50.0) as f64 / 1e3,
            s.count()
        ));
        out.push(format!(
            "read_p{tp}_us          {:.1} us (n={})",
            tv as f64 / 1e3,
            s.count()
        ));
    }
    out.push(format!(
        "error_rate           {} ({} failed + {} refused + {} wrong / {} attempted)",
        tally.errors() as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.refused,
        tally.wrong,
        tally.attempted
    ));
    out.push(format!(
        "node_rss_mb          {rss_mb:.1} MB (VmHWM at run end)"
    ));
    out
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What produced a result: code, toolchain, machine, flags and sizes.
fn manifest(args: &Args, flags: &NodeFlags, base_height: u64, final_height: u64) -> String {
    let git = command_output("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut m = String::new();
    let _ = write!(
        m,
        "{{\"git_revision\":\"{git}\",\"rustc\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\",\"nproc\":{nproc},\
         \"profile\":\"{}\",\"node_flags\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"batch_blocks\":{BATCH},\"txs_per_block\":{TXS_PER_BLOCK},\"preload_blocks\":{base_height},\
         \"final_height\":{final_height},\"mixed_write_batch_blocks\":{MIXED_WRITE_BATCH},\
         \"mixed_write_rate_per_s\":{MIXED_WRITE_RATE},\"slices\":{SLICES}}}",
        rustc,
        std::env::consts::OS,
        std::env::consts::ARCH,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        flags.args().join(" "),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
    );
    m
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn write_result(dir: &Path, args: &Args, line: &str, manifest: &str) -> io::Result<()> {
    let results = dir.join("results");
    std::fs::create_dir_all(&results)?;
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        path,
        format!("{{\"manifest\":{manifest},\"result\":{line}}}\n"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let Outcome {
        e2e,
        layers,
        tally,
        report,
        manifest,
    } = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("manifest {manifest}");
    for line in &report {
        println!("  {line}");
    }
    for note in &tally.notes {
        println!("  error: {note}");
    }
    let shown = if args.trace { &layers } else { &e2e };
    for m in shown {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(bad) = shown.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", bad.name);
        return ExitCode::FAILURE;
    }
    let failed = tally.errors();
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        tally.attempted.max(1),
        metrics_json(shown)
    );
    if let Err(e) = write_result(&args.work, &args, &line, &manifest) {
        eprintln!("perfbench: could not write the result file: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_rate_between_first_and_last_send() {
        let ms = 1_000_000;
        // Slice 0: sends at 0, 1, 2 ms; slice 1: at 5 ms only (too few for
        // a rate); slices 2 and 3 are empty.
        let at = [0, ms, 2 * ms, 5 * ms];
        let lat = [10, 20, 30, 40];
        let sl = sliced(&at, &lat, Duration::from_millis(4));
        assert_eq!(sl.len(), SLICES);
        assert!((sl[0].0 - 1000.0).abs() < 1e-6, "2 intervals in 2 ms");
        assert_eq!(sl[0].1.count(), 3);
        assert_eq!((sl[1].0, sl[1].1.count()), (0.0, 1));
        assert_eq!(sl[3].1.count(), 0);
    }

    #[test]
    fn rounds_rate_over_their_own_time() {
        let round = |blocks, elapsed_s| Writes {
            blocks,
            elapsed_s,
            latency: vec![1, 2, 3],
            ..Writes::default()
        };
        // A round that ended early is not diluted by the others' length.
        let r = per_round([round(640, 0.5), round(640, 1.0)].iter());
        assert_eq!(r[0].0, 1280.0);
        assert_eq!(r[1].0, 640.0);
    }

    #[test]
    fn trace_overhead_compares_medians() {
        assert!((trace_overhead(&[100, 100, 100], &[110, 110, 110]) - 0.1).abs() < 1e-12);
        assert_eq!(trace_overhead(&[], &[5]), 0.0);
    }
}
