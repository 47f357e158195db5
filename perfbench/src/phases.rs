//! The phases of one run: load a history, start the node (several times,
//! for `setup_s`), drive the timed window, and re-read a seeded sample for
//! the oracle.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::client::{field_u64, Conn, Reply};
use crate::gen::{Batch, History, Rng, ARTIFACTS, TXS_PER_BLOCK};
use crate::node::{NodeFlags, NodeProc};
use crate::oracle::{point_sample, skewed_height, ReadKey};
use crate::replay::WriteReplay;
use crate::trace::Tracer;

/// Heights counted as "recent" by the skewed key picker: half the node's
/// 1024-block hot cache.
const RECENT: u64 = 512;

/// Everything a run shares between phases.
pub struct Ctx {
    pub node_bin: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub flags: NodeFlags,
    pub origin: Instant,
}

impl Ctx {
    pub fn tracer(&self, tag: u64) -> Tracer {
        Tracer::new(self.trace, self.origin, tag)
    }

    /// The same run with a window of another length.
    pub fn with_window(&self, window: Duration) -> Ctx {
        Ctx {
            node_bin: self.node_bin.clone(),
            dir: self.dir.clone(),
            seed: self.seed,
            window,
            trace: self.trace,
            flags: self.flags.clone(),
            origin: self.origin,
        }
    }
}

/// Failed, refused and wrong answers, against attempts.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    pub fn errors(&self) -> u64 {
        self.failed + self.refused + self.wrong
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.wrong += other.wrong;
        for n in other.notes {
            self.note(n);
        }
    }

    /// Count one exchange; `true` when its answer was right.
    fn judge(
        &mut self,
        what: &str,
        reply: &io::Result<Reply>,
        check: impl FnOnce(&Reply) -> Result<(), String>,
    ) -> bool {
        self.attempted += 1;
        match reply {
            Err(e) => {
                self.failed += 1;
                self.note(format!("{what}: {e}"));
                false
            }
            Ok(r) if r.status == 429 || r.status == 503 => {
                self.refused += 1;
                self.note(format!("{what}: refused with {}", r.status));
                false
            }
            Ok(r) => match check(r) {
                Ok(()) => true,
                Err(msg) => {
                    self.wrong += 1;
                    self.note(format!("{what}: {msg}"));
                    false
                }
            },
        }
    }
}

/// Client-side record of the write traffic of a phase.
#[derive(Debug, Default, Clone)]
pub struct Writes {
    /// Batches committed: a prefix of the phase's batch list.
    pub batches: usize,
    pub blocks: u64,
    pub bytes: u64,
    /// Per batch: from due time (open loop) or send (closed loop) to the
    /// durable `200`.
    pub latency: Vec<u64>,
    /// Per batch: send to reply.
    pub call: Vec<u64>,
    /// Per batch: how late the generator sent it, beyond any wait for the
    /// previous reply.
    pub gen_lag: Vec<u64>,
    /// Per batch: when it was sent (due, for the open loop), from the start
    /// of the phase.
    pub at: Vec<u64>,
    pub elapsed_s: f64,
    /// The node's peak resident memory when the phase reached its memory
    /// mark, if it did.
    pub rss_mb: Option<f64>,
}

impl Writes {
    /// Append another round's traffic to this one (send times are not
    /// kept).
    pub fn absorb(&mut self, other: &Writes) {
        self.batches += other.batches;
        self.blocks += other.blocks;
        self.bytes += other.bytes;
        self.latency.extend(&other.latency);
        self.call.extend(&other.call);
        self.gen_lag.extend(&other.gen_lag);
        self.elapsed_s += other.elapsed_s;
    }
}

/// Client-side record of the read traffic of a phase.
#[derive(Debug, Default)]
pub struct Reads {
    pub keys: Vec<ReadKey>,
    /// Per read: send to reply.
    pub call: Vec<u64>,
    pub spans: Vec<u64>,
    pub gen_lag: Vec<u64>,
    /// Per operation: when it was sent (due, for the open loop), from the
    /// start of the phase.
    pub at: Vec<u64>,
    pub elapsed_s: f64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Latency and generator lag of one open-loop operation. Latency counts
/// from when the operation was due, so a stall is also charged to every
/// operation queued behind it; the lag is how late the generator sent it
/// beyond both its due time and the previous reply.
fn open_loop_times(due: Instant, prev_reply: Instant, sent: Instant, done: Instant) -> (u64, u64) {
    (ns(done - due), ns(sent - due.max(prev_reply)))
}

fn post_check(blocks: u64) -> impl Fn(&Reply) -> Result<(), String> {
    move |r: &Reply| {
        if r.status == 200 && field_u64(&r.body, "committed") == Some(blocks) {
            Ok(())
        } else {
            Err(format!("status {}: {}", r.status, r.body))
        }
    }
}

/// In a traced run, replay batch `i`, the node's `committed`-th, on the
/// direct write path; returns how long the generator paused for it, which
/// is not generator lag.
///
/// The node records its server-side latency after sending the reply, so
/// the replay first waits for that record: started at once, it would
/// compete with the bookkeeping and stretch the node's own figure.
fn replay_committed(
    replay: Option<&mut WriteReplay>,
    node: &NodeProc,
    committed: usize,
    tracer: &mut Tracer,
    batch: &Batch,
    span: u64,
    i: usize,
) -> io::Result<Duration> {
    let Some(replay) = replay else {
        return Ok(Duration::ZERO);
    };
    let paused = Instant::now();
    while node.metrics()?.get("node_ingest_latency_ns_count") < committed as f64 {
        std::thread::yield_now();
    }
    replay.apply(tracer, batch, span, i as u64)?;
    Ok(paused.elapsed())
}

/// POST `batches` in order over one connection, closed loop, until all are
/// committed, the deadline passes, or an answer is wrong (the stream
/// cannot continue past a missing block). The node's peak memory is read
/// once `rss_mark` batches are committed.
#[allow(clippy::too_many_arguments)]
pub fn post_closed_loop(
    node: &NodeProc,
    batches: &[Batch],
    deadline: Option<Duration>,
    rss_mark: Option<usize>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut replay: Option<&mut WriteReplay>,
) -> io::Result<Writes> {
    let mut conn = Conn::open(&node.addr)?;
    let mut w = Writes::default();
    let start = Instant::now();
    let mut prev_reply = start;
    for (i, batch) in batches.iter().enumerate() {
        if deadline.is_some_and(|d| start.elapsed() >= d) {
            break;
        }
        let sent = Instant::now();
        let reply = conn.post("/blocks", &batch.body);
        let done = Instant::now();
        let span = tracer.record("client.post_blocks", 0, i as u64, sent, done);
        if !tally.judge("POST /blocks", &reply, post_check(batch.blocks)) {
            break;
        }
        let paused = replay_committed(
            replay.as_deref_mut(),
            node,
            w.batches + 1,
            tracer,
            batch,
            span,
            i,
        )?;
        w.batches += 1;
        w.blocks += batch.blocks;
        w.bytes += batch.body.len() as u64;
        if rss_mark == Some(w.batches) {
            w.rss_mb = Some(node.peak_rss_mb()?);
        }
        w.latency.push(ns(done - sent));
        w.call.push(ns(done - sent));
        w.gen_lag.push(ns(sent - prev_reply));
        w.at.push(ns(sent - start));
        prev_reply = done + paused;
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    Ok(w)
}

/// Start a node on a fresh copy of `preload` at least `min` times, and
/// again while `budget` lasts, up to `max`; every start but the last is
/// killed again. Returns the running node and every start's time to first
/// `200 /healthz`.
pub fn setup(
    ctx: &Ctx,
    preload: &Path,
    min: usize,
    budget: Duration,
    max: usize,
) -> io::Result<(NodeProc, Vec<f64>)> {
    let began = Instant::now();
    let mut times = Vec::with_capacity(max);
    for k in 0.. {
        let data = ctx.dir.join(format!("data-{k}"));
        copy_dir(preload, &data)?;
        let node = NodeProc::start(&ctx.node_bin, &data, &ctx.flags)?;
        times.push(node.ready_s);
        if times.len() >= max || (times.len() >= min && began.elapsed() >= budget) {
            return Ok((node, times));
        }
        // Killed, not drained: its directory is discarded, and a drain
        // waits out the node's 100 ms signal poll.
        drop(node);
        std::fs::remove_dir_all(&data)?;
    }
    unreachable!("the loop returns once `max` starts are made")
}

/// Check that the node's tip is exactly the generator's block at `height`.
pub fn check_tip(
    node: &NodeProc,
    hist: &History,
    height: u64,
    tally: &mut Tally,
) -> io::Result<()> {
    let reply = Conn::open(&node.addr)?.get("/tip");
    tally.judge("GET /tip", &reply, |r| {
        if field_u64(&r.body, "height") != Some(height) {
            return Err(format!("tip is not at height {height}: {}", r.body));
        }
        ReadKey::Tip.check(hist, height, r.status, &r.body)
    });
    Ok(())
}

/// The `mixed` read mix: /tx, /block and /prove 30% each, /tip 10%.
fn mixed_key(rng: &mut Rng, top: u64) -> ReadKey {
    let r = rng.below(10);
    let h = skewed_height(rng, top, RECENT);
    match r {
        0..=2 => ReadKey::Tx(h, rng.below(TXS_PER_BLOCK)),
        3..=5 => ReadKey::Block(h),
        6..=8 => ReadKey::Prove(h, rng.below(TXS_PER_BLOCK)),
        _ => ReadKey::Tip,
    }
}

/// The `mixed` writer: one batch due every `interval`, on top of a
/// history of `base_height` blocks.
pub struct OpenLoop<'a> {
    pub batches: &'a [Batch],
    pub interval: Duration,
    pub base_height: u64,
}

/// `mixed`: an open-loop writer and a closed-loop point reader, one
/// connection each.
pub fn mixed_window(
    ctx: &Ctx,
    node: &NodeProc,
    hist: &History,
    plan: &OpenLoop,
    tracer: &mut Tracer,
    tally: &mut Tally,
    replay: Option<&mut WriteReplay>,
) -> io::Result<(Writes, Reads)> {
    let OpenLoop {
        batches,
        interval,
        base_height,
    } = *plan;
    let confirmed = AtomicU64::new(base_height);
    let start = Instant::now();
    let writer = |tracer: &mut Tracer,
                  tally: &mut Tally,
                  mut replay: Option<&mut WriteReplay>|
     -> io::Result<Writes> {
        let mut conn = Conn::open(&node.addr)?;
        let mut w = Writes::default();
        let mut prev_reply = start;
        for (i, batch) in batches.iter().enumerate() {
            let due = start + interval * i as u32;
            if due - start >= ctx.window {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let reply = conn.post("/blocks", &batch.body);
            let done = Instant::now();
            let span = tracer.record("client.post_blocks", 0, i as u64, sent, done);
            if !tally.judge("POST /blocks", &reply, post_check(batch.blocks)) {
                break;
            }
            let paused = replay_committed(
                replay.as_deref_mut(),
                node,
                w.batches + 1,
                tracer,
                batch,
                span,
                i,
            )?;
            w.batches += 1;
            w.blocks += batch.blocks;
            w.bytes += batch.body.len() as u64;
            let (latency, lag) = open_loop_times(due, prev_reply, sent, done);
            w.latency.push(latency);
            w.call.push(ns(done - sent));
            w.gen_lag.push(lag);
            w.at.push(ns(due - start));
            prev_reply = done + paused;
            confirmed.store(base_height + w.blocks, Ordering::Release);
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        Ok(w)
    };
    let reader = |tracer: &mut Tracer, tally: &mut Tally| -> io::Result<Reads> {
        let mut conn = Conn::open(&node.addr)?;
        let mut rng = Rng::new(ctx.seed, 1);
        let mut r = Reads::default();
        let mut prev_reply = start;
        loop {
            if start.elapsed() >= ctx.window {
                break;
            }
            let top = confirmed.load(Ordering::Acquire);
            let key = mixed_key(&mut rng, top);
            let path = key.path(hist);
            let sent = Instant::now();
            let reply = conn.get(&path);
            let done = Instant::now();
            let span = tracer.record(read_span_name(&key), 0, r.keys.len() as u64, sent, done);
            let ok = tally.judge("GET", &reply, |rep| {
                key.check(hist, top, rep.status, &rep.body)
            });
            if !ok && reply.is_err() {
                break;
            }
            r.keys.push(key);
            r.call.push(ns(done - sent));
            r.spans.push(span);
            r.gen_lag.push(ns(sent - prev_reply));
            r.at.push(ns(sent - start));
            prev_reply = done;
        }
        r.elapsed_s = start.elapsed().as_secs_f64();
        Ok(r)
    };
    let mut wtracer = ctx.tracer(2);
    let mut wtally = Tally::default();
    let (writes, reads) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&mut wtracer, &mut wtally, replay));
        let r = reader(tracer, tally);
        (w.join().expect("writer thread panicked"), r)
    });
    tracer.absorb(wtracer);
    tally.merge(wtally);
    Ok((writes?, reads?))
}

/// `lineage`: one closed-loop reader of `/provenance/{artifact}`, artifacts
/// drawn by seed.
pub fn lineage_window(
    ctx: &Ctx,
    node: &NodeProc,
    hist: &History,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<Reads> {
    let mut conn = Conn::open(&node.addr)?;
    let mut rng = Rng::new(ctx.seed, 2);
    let mut r = Reads::default();
    let start = Instant::now();
    let mut prev_reply = start;
    loop {
        if start.elapsed() >= ctx.window {
            break;
        }
        let key = ReadKey::Provenance(rng.below(ARTIFACTS));
        let path = key.path(hist);
        let sent = Instant::now();
        let reply = conn.get(&path);
        let done = Instant::now();
        let span = tracer.record("client.get_provenance", 0, r.keys.len() as u64, sent, done);
        let ok = tally.judge("GET", &reply, |rep| {
            key.check(hist, 0, rep.status, &rep.body)
        });
        if !ok && reply.is_err() {
            break;
        }
        r.keys.push(key);
        r.call.push(ns(done - sent));
        r.spans.push(span);
        r.gen_lag.push(ns(sent - prev_reply));
        r.at.push(ns(sent - start));
        prev_reply = done;
    }
    r.elapsed_s = start.elapsed().as_secs_f64();
    Ok(r)
}

fn read_span_name(key: &ReadKey) -> &'static str {
    match key {
        ReadKey::Tip => "client.get_tip",
        ReadKey::Block(_) => "client.get_block",
        ReadKey::Tx(..) => "client.get_tx",
        ReadKey::Prove(..) => "client.get_prove",
        ReadKey::Provenance(_) => "client.get_provenance",
    }
}

/// The oracle's post-window re-read.
pub struct Sample {
    /// Replies that passed the generator check, kept for the direct
    /// comparison.
    pub bodies: Vec<(ReadKey, String)>,
    /// The reads themselves: the read path the traced `ingest` run
    /// decomposes, its window having none.
    pub reads: Reads,
    /// The node's mean query latency over them (`/metrics`).
    pub server_query_us: f64,
}

/// Re-read a seeded point sample over `1..=top` after the window and check
/// each answer against the generator.
pub fn oracle_sample(
    ctx: &Ctx,
    node: &NodeProc,
    hist: &History,
    top: u64,
    per_kind: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<Sample> {
    let mut rng = Rng::new(ctx.seed, 3);
    let keys = point_sample(&mut rng, top, RECENT, per_kind);
    let before = node.metrics()?;
    let mut conn = Conn::open(&node.addr)?;
    let mut bodies = Vec::with_capacity(keys.len());
    let mut r = Reads::default();
    let start = Instant::now();
    let mut prev_reply = start;
    for key in keys {
        let sent = Instant::now();
        let reply = conn.get(&key.path(hist));
        let done = Instant::now();
        let span = tracer.record(read_span_name(&key), 0, r.keys.len() as u64, sent, done);
        if tally.judge("oracle GET", &reply, |rep| {
            key.check(hist, top, rep.status, &rep.body)
        }) {
            bodies.push((key, reply.expect("judged ok").body));
        }
        r.keys.push(key);
        r.call.push(ns(done - sent));
        r.spans.push(span);
        r.gen_lag.push(ns(sent - prev_reply));
        r.at.push(ns(sent - start));
        prev_reply = done;
    }
    r.elapsed_s = start.elapsed().as_secs_f64();
    Ok(Sample {
        bodies,
        reads: r,
        server_query_us: node.metrics()?.mean_us_since(&before, "node_query_latency"),
    })
}

/// Bytes under `dir`, by tier subdirectory: `[blocks, index, meta, total]`.
pub fn dir_sizes(dir: &Path) -> io::Result<[u64; 4]> {
    fn walk(p: &Path) -> io::Result<u64> {
        let mut n = 0;
        if !p.exists() {
            return Ok(0);
        }
        for e in std::fs::read_dir(p)? {
            let e = e?;
            let m = e.metadata()?;
            n += if m.is_dir() {
                walk(&e.path())?
            } else {
                m.len()
            };
        }
        Ok(n)
    }
    let b = walk(&dir.join("blocks"))?;
    let i = walk(&dir.join("index"))?;
    let m = walk(&dir.join("meta"))?;
    Ok([b, i, m, walk(dir)?])
}

/// Recursive copy (regular files and directories only).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let target = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), &target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let ms = Duration::from_millis;
        // The previous reply came 3 ms after this operation was due; the
        // generator then took 0.5 ms to send; the node answered 1 ms later.
        let (latency, lag) = open_loop_times(
            due,
            due + ms(3),
            due + ms(3) + ms(1) / 2,
            due + ms(4) + ms(1) / 2,
        );
        assert_eq!(latency, ns(ms(4) + ms(1) / 2), "the 3 ms wait counts");
        assert_eq!(lag, ns(ms(1) / 2), "only the generator's own delay is lag");
        // Sent on time: no lag, latency equals the call.
        let (latency, lag) = open_loop_times(due, due - ms(1), due, due + ms(2));
        assert_eq!((latency, lag), (ns(ms(2)), 0));
    }
}
