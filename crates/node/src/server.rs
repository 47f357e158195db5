//! The node proper: one writer thread owning the [`ProvenanceLedger`], a
//! bounded ingest queue in front of it, and an accept loop that serves
//! every read from a cloneable [`ChainReader`] — request threads never
//! touch the writer.
//!
//! # Threading model
//!
//! ```text
//!  clients ──► accept loop ──► per-connection handler threads
//!                                  │ reads: reader.view() (pinned snapshot)
//!                                  │ writes: try_send ──► bounded queue ──► writer thread
//!                                  │          (full ⇒ 429 Retry-After)        │
//!                                  └── reply channel ◄── ingest_blocks ───────┘
//! ```
//!
//! The writer thread is the only owner of the `ProvenanceLedger`; ingest
//! batches reach it through a [`std::sync::mpsc::sync_channel`] whose bound
//! is the backpressure limit. Handlers `try_send` — a full queue is an
//! immediate `429` with `Retry-After`, never a blocked accept thread. Each
//! job carries a reply channel, so `POST /blocks` returns only after the
//! batch is group-flushed across all durable tiers ([PR 8] semantics:
//! committed means on disk).
//!
//! # Shutdown
//!
//! [`Node::shutdown`] flips the drain flag (new ingest → `503`), drops the
//! queue's sender, and joins the writer: the writer first drains every
//! queued batch, then calls [`ProvenanceLedger::sync`] to write the
//! clean-shutdown checkpoint snapshot the next open fast-starts from. The
//! accept loop is unblocked with a self-connection and joined; in-flight
//! read connections finish on their own threads against reader handles
//! that outlive the writer.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use blockprov_core::{txkind, CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_health::metrics::NodeMetrics;
use blockprov_ledger::{
    Block, ChainReader, ChainView, MetaConfig, MetaStore, TieredConfig, TieredReader, TieredStore, TxId,
    TxIndex, TxIndexConfig,
};
use blockprov_provenance::ProvenanceRecord;
use blockprov_wire::{decode_seq, Codec, Reader};

use crate::http::{percent_decode, read_request, write_response, Request, Response};
use crate::json::{arr, str_lit, Obj};

/// How the node opens its ledger and sizes its queue.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Durable root directory (`blocks/`, `index/`, `meta/` subtrees).
    /// `None` runs fully in memory — useful for tests, useless for
    /// restarts.
    pub data_dir: Option<PathBuf>,
    /// Finality depth (PR 6 checkpoint cadence).
    pub finality_depth: u64,
    /// Stateless-validation worker threads inside the ledger (PR 4).
    pub ingest_threads: usize,
    /// Ingest queue bound: batches that may wait for the writer before
    /// handlers start answering `429`.
    pub queue_capacity: usize,
    /// Hot-tier block cache capacity (blocks) for the durable store.
    pub hot_capacity: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            data_dir: None,
            finality_depth: 16,
            ingest_threads: 4,
            queue_capacity: 64,
            hot_capacity: 1024,
        }
    }
}

/// One queued ingest batch plus its reply path.
struct IngestJob {
    blocks: Vec<Block>,
    received: Instant,
    reply: mpsc::Sender<Result<usize, String>>,
}

/// State shared by the accept loop, every handler thread and [`Node`].
struct Shared {
    reader: ChainReader,
    metrics: Arc<NodeMetrics>,
    /// `Some(sender)` while accepting ingest; `None` once draining.
    ingest: Mutex<Option<SyncSender<IngestJob>>>,
    /// Set by [`Node::shutdown`]; read endpoints keep serving, ingest
    /// answers `503`, the accept loop exits on its next wakeup.
    draining: AtomicBool,
    /// Hot-tier stats source for the reader-cache gauges (durable mode
    /// only; the in-memory store has no tiered cache).
    tier_reader: Option<TieredReader>,
}

/// A running node: accept loop + writer thread + shared reader handles.
///
/// Dropping the node shuts it down (best-effort); call [`Node::shutdown`]
/// for an error-checked drain.
pub struct Node {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<io::Result<()>>>,
}

impl Node {
    /// Open the ledger per `config`, bind `addr` (use port 0 for an
    /// ephemeral port) and start serving.
    pub fn start(addr: &str, config: NodeConfig) -> io::Result<Node> {
        let ledger_config = LedgerConfig::private_default()
            .with_finality(config.finality_depth)
            .with_ingest_threads(config.ingest_threads);

        let (mut ledger, tier_reader) = match &config.data_dir {
            Some(dir) => {
                let store = TieredStore::open(
                    dir.join("blocks"),
                    TieredConfig {
                        hot_capacity: config.hot_capacity,
                        ..TieredConfig::default()
                    },
                )?;
                let tier_reader = store.tiered_reader();
                let index = TxIndex::open(dir.join("index"), TxIndexConfig::default())?;
                let meta = MetaStore::open(dir.join("meta"), MetaConfig::default())?;
                let ledger = ProvenanceLedger::open_with_tiers(
                    ledger_config,
                    Box::new(store),
                    index,
                    meta,
                )?;
                (ledger, Some(tier_reader))
            }
            None => (ProvenanceLedger::open(ledger_config), None),
        };

        let reader = ledger.reader();
        let metrics = Arc::new(NodeMetrics::new());
        let (tx, rx) = mpsc::sync_channel::<IngestJob>(config.queue_capacity);

        let writer_metrics = Arc::clone(&metrics);
        let writer = thread::Builder::new()
            .name("node-writer".into())
            .spawn(move || -> io::Result<()> {
                for job in rx {
                    writer_metrics.queue_depth.dec();
                    let txs: usize = job.blocks.iter().map(|b| b.txs.len()).sum();
                    match ledger.ingest_blocks(job.blocks) {
                        Ok(outcomes) => {
                            writer_metrics.ingest_batches.inc();
                            writer_metrics.ingest_blocks.add(outcomes.len() as u64);
                            writer_metrics.ingest_txs.add(txs as u64);
                            let _ = job.reply.send(Ok(outcomes.len()));
                        }
                        Err(e) => {
                            writer_metrics.ingest_invalid.inc();
                            let _ = job.reply.send(Err(describe_core_error(&e)));
                        }
                    }
                    writer_metrics
                        .ingest_latency
                        .record(job.received.elapsed());
                }
                // All senders gone: the queue is drained. Write the
                // clean-shutdown snapshot so the next open fast-starts.
                ledger.sync()
            })?;

        let shared = Arc::new(Shared {
            reader,
            metrics,
            ingest: Mutex::new(Some(tx)),
            draining: AtomicBool::new(false),
            tier_reader,
        });

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("node-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&accept_shared);
                    let _ = thread::Builder::new()
                        .name("node-conn".into())
                        .spawn(move || handle_connection(stream, shared));
                }
            })?;

        Ok(Node {
            addr: local,
            shared,
            accept: Some(accept),
            writer: Some(writer),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's metrics registry (shared with all server threads).
    pub fn metrics(&self) -> Arc<NodeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// A fresh reader handle over the node's ledger.
    pub fn reader(&self) -> ChainReader {
        self.shared.reader.clone()
    }

    /// Graceful drain: refuse new ingest (`503`), drain every queued
    /// batch, write the clean-shutdown snapshot, stop accepting.
    ///
    /// Idempotent; returns the writer's final sync result.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Dropping the sender lets the writer drain and exit.
        *self.shared.ingest.lock().unwrap() = None;
        // Unblock the accept loop so it observes the drain flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        match self.writer.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("node writer thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Flatten a [`CoreError`] into the stable one-line form ingest replies
/// carry (the full enum is not part of the HTTP contract).
fn describe_core_error(e: &CoreError) -> String {
    format!("{e}")
}

/// Serve one connection until EOF, `Connection: close`, or a parse error.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                shared.metrics.http_requests.inc();
                let close = req.wants_close();
                let resp = route(&req, &shared);
                if write_response(&mut stream, &resp).is_err() || close {
                    break;
                }
            }
            Ok(None) => break, // client done
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.metrics.http_bad_request.inc();
                let resp = error_body(400, &e.to_string());
                let _ = write_response(&mut stream, &resp);
                break;
            }
            Err(_) => break, // connection-level failure
        }
    }
}

/// Dispatch one request to its endpoint.
fn route(req: &Request, shared: &Shared) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["blocks"]) => ingest(req, shared),
        ("GET", ["tip"]) => timed_query(shared, &shared.metrics.query_tip, get_tip),
        ("GET", ["healthz"]) => healthz(shared),
        ("GET", ["metrics"]) => metrics_page(shared),
        ("GET", ["block", height]) => {
            let height = height.to_string();
            timed_query(shared, &shared.metrics.query_block, move |view| {
                get_block(view, &height)
            })
        }
        ("GET", ["tx", id]) => {
            let id = id.to_string();
            timed_query(shared, &shared.metrics.query_tx, move |view| {
                get_tx(view, &id)
            })
        }
        ("GET", ["provenance", artifact]) => {
            let artifact = percent_decode(artifact);
            timed_query(shared, &shared.metrics.query_provenance, move |view| {
                get_provenance(view, &artifact)
            })
        }
        ("GET", ["prove", id]) => {
            let id = id.to_string();
            timed_query(shared, &shared.metrics.query_prove, move |view| {
                get_prove(view, &id)
            })
        }
        ("GET", _) => {
            shared.metrics.http_not_found.inc();
            error_body(404, "no such endpoint")
        }
        _ => error_body(405, "method not allowed"),
    }
}

/// Pin one snapshot, run the endpoint against it, record latency, and
/// bump the endpoint counter (plus the 404 counter when the entity is
/// absent).
fn timed_query(
    shared: &Shared,
    counter: &blockprov_health::metrics::Counter,
    f: impl FnOnce(&ChainView) -> Response,
) -> Response {
    let start = Instant::now();
    let view = shared.reader.view();
    let resp = f(&view);
    shared.metrics.query_latency.record(start.elapsed());
    counter.inc();
    if resp.status == 404 {
        shared.metrics.http_not_found.inc();
    } else if resp.status == 400 {
        shared.metrics.http_bad_request.inc();
    }
    resp
}

/// `POST /blocks`: body is the wire codec's `encode_seq` of blocks.
fn ingest(req: &Request, shared: &Shared) -> Response {
    let start = Instant::now();
    let mut r = Reader::new(&req.body);
    let blocks: Vec<Block> = match decode_seq(&mut r) {
        Ok(blocks) if r.remaining() == 0 && !blocks.is_empty() => blocks,
        Ok(_) => {
            shared.metrics.http_bad_request.inc();
            return error_body(400, "empty batch or trailing bytes");
        }
        Err(e) => {
            shared.metrics.http_bad_request.inc();
            return error_body(400, &format!("undecodable block batch: {e:?}"));
        }
    };
    // Clone the sender out of the slot so the lock is never held across
    // the blocking wait for the writer's reply.
    let sender = shared.ingest.lock().unwrap().clone();
    let Some(sender) = sender else {
        shared.metrics.ingest_shutdown.inc();
        return error_body(503, "node is draining");
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = IngestJob {
        blocks,
        received: start,
        reply: reply_tx,
    };
    match sender.try_send(job) {
        Ok(()) => shared.metrics.queue_depth.inc(),
        Err(TrySendError::Full(_)) => {
            shared.metrics.ingest_backpressure.inc();
            return error_body(429, "ingest queue full").with_header("retry-after", "1".into());
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.metrics.ingest_shutdown.inc();
            return error_body(503, "node is draining");
        }
    }
    drop(sender);
    match reply_rx.recv() {
        Ok(Ok(committed)) => Response::json(
            200,
            Obj::new()
                .num("committed", committed)
                .num("height", shared.reader.view().height())
                .build(),
        ),
        Ok(Err(msg)) => error_body(409, &msg),
        Err(_) => error_body(503, "writer exited before reply"),
    }
}

/// `GET /tip`.
fn get_tip(view: &ChainView) -> Response {
    Response::json(
        200,
        Obj::new()
            .num("height", view.height())
            .str("hash", &view.tip().0.to_hex())
            .num("finalized_height", view.finalized_height())
            .build(),
    )
}

/// `GET /block/{height}`.
fn get_block(view: &ChainView, height: &str) -> Response {
    let Ok(height) = height.parse::<u64>() else {
        return error_body(400, "height must be a decimal integer");
    };
    let Some(block) = view.block_at(height) else {
        return error_body(404, "no canonical block at that height");
    };
    let txs = arr(block.txs.iter().map(|tx| str_lit(&tx.id().0.to_hex())));
    Response::json(
        200,
        Obj::new()
            .num("height", block.header.height)
            .str("hash", &block.hash().0.to_hex())
            .str("prev", &block.header.prev.0.to_hex())
            .num("timestamp_ms", block.header.timestamp_ms)
            .str("proposer", &block.header.proposer.0.to_hex())
            .str("tx_root", &block.header.tx_root.to_hex())
            .num("tx_count", block.txs.len())
            .raw("txs", &txs)
            .build(),
    )
}

/// `GET /tx/{id}` (id = 64-char hex).
fn get_tx(view: &ChainView, id: &str) -> Response {
    let Some(id) = parse_tx_id(id) else {
        return error_body(400, "tx id must be 64 hex chars");
    };
    let Some((block, pos)) = view.find_tx(&id) else {
        return error_body(404, "transaction not on the canonical chain");
    };
    let tx = &block.txs[pos as usize];
    let mut obj = Obj::new()
        .str("id", &id.0.to_hex())
        .str("author", &tx.author.0.to_hex())
        .num("nonce", tx.nonce)
        .num("timestamp_ms", tx.timestamp_ms)
        .num("kind", tx.kind)
        .num("payload_len", tx.payload.len())
        .str("block", &block.hash().0.to_hex())
        .num("block_height", block.header.height)
        .num("position", pos);
    if tx.kind == txkind::PROVENANCE {
        if let Some(record) = decode_record_prefix(&tx.payload) {
            obj = obj.raw("record", &record_json(&id, &record));
        }
    }
    Response::json(200, obj.build())
}

/// `GET /provenance/{artifact}`: every canonical provenance record whose
/// subject is the (percent-decoded) artifact name, oldest first.
fn get_provenance(view: &ChainView, artifact: &str) -> Response {
    let mut records = Vec::new();
    for id in view.txs_by_kind(txkind::PROVENANCE) {
        let Some(tx) = view.get_tx(&id) else { continue };
        let Some(record) = decode_record_prefix(&tx.payload) else {
            continue;
        };
        if record.subject == artifact {
            records.push(record_json(&id, &record));
        }
    }
    Response::json(
        200,
        Obj::new()
            .str("artifact", artifact)
            .num("count", records.len())
            .raw("records", &arr(records))
            .build(),
    )
}

/// `GET /prove/{tx}`: self-contained Merkle inclusion proof.
fn get_prove(view: &ChainView, id: &str) -> Response {
    let Some(id) = parse_tx_id(id) else {
        return error_body(400, "tx id must be 64 hex chars");
    };
    let Some(proof) = view.prove_tx(&id) else {
        return error_body(404, "transaction not on the canonical chain");
    };
    let siblings = arr(proof.proof.siblings.iter().map(|s| {
        Obj::new()
            .str("hash", &s.hash.to_hex())
            .bool("left", s.sibling_on_left)
            .build()
    }));
    let header = Obj::new()
        .num("height", proof.header.height)
        .str("prev", &proof.header.prev.0.to_hex())
        .str("tx_root", &proof.header.tx_root.to_hex())
        .num("timestamp_ms", proof.header.timestamp_ms)
        .str("proposer", &proof.header.proposer.0.to_hex())
        .build();
    Response::json(
        200,
        Obj::new()
            .str("tx_id", &proof.tx_id.0.to_hex())
            .str("block", &proof.block_hash.0.to_hex())
            .raw("header", &header)
            .num("leaf_index", proof.proof.leaf_index)
            .num("leaf_count", proof.proof.leaf_count)
            .raw("siblings", &siblings)
            .bool("verified", proof.verify())
            .build(),
    )
}

/// `GET /healthz`: liveness plus a one-glance ledger summary.
fn healthz(shared: &Shared) -> Response {
    sample_cache_gauges(shared);
    let view = shared.reader.view();
    let draining = shared.draining.load(Ordering::SeqCst);
    Response::json(
        200,
        Obj::new()
            .str("status", if draining { "draining" } else { "ok" })
            .num("height", view.height())
            .str("tip", &view.tip().0.to_hex())
            .num("finalized_height", view.finalized_height())
            .num("queue_depth", shared.metrics.queue_depth.get())
            .num("ingested_blocks", shared.metrics.ingest_blocks.get())
            .num("queries_served", shared.metrics.queries_total())
            .build(),
    )
}

/// `GET /metrics`: Prometheus-style text exposition.
fn metrics_page(shared: &Shared) -> Response {
    sample_cache_gauges(shared);
    Response::text(200, shared.metrics.render())
}

/// Refresh the reader-cache gauges from the shared hot tier (durable
/// deployments only).
fn sample_cache_gauges(shared: &Shared) {
    if let Some(tr) = &shared.tier_reader {
        let (hits, misses) = tr.tier_stats();
        shared.metrics.reader_cache_hits.set(hits as i64);
        shared.metrics.reader_cache_misses.set(misses as i64);
    }
}

/// Uniform error body.
fn error_body(status: u16, msg: &str) -> Response {
    Response::json(status, Obj::new().str("error", msg).build())
}

fn parse_tx_id(hex: &str) -> Option<TxId> {
    blockprov_crypto::sha256::Hash256::from_hex(hex).map(TxId)
}

/// Decode a provenance record from the front of a payload (OnChainFull
/// payloads carry raw content after the record, so a prefix decode — the
/// same convention [`ProvenanceLedger`] uses when absorbing blocks).
fn decode_record_prefix(payload: &[u8]) -> Option<ProvenanceRecord> {
    let mut r = Reader::new(payload);
    ProvenanceRecord::decode(&mut r).ok()
}

fn record_json(tx_id: &TxId, record: &ProvenanceRecord) -> String {
    Obj::new()
        .str("tx", &tx_id.0.to_hex())
        .str("subject", &record.subject)
        .str("agent", &record.agent.0.to_hex())
        .str("action", record.action.label())
        .str("domain", record.domain.name())
        .num("timestamp_ms", record.timestamp_ms)
        .build()
}
