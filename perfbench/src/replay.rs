//! Direct layer calls: the same inputs the node received, fed to each
//! layer's public functions on the same tiers with the same flags, timed
//! one call at a time.

use std::io;
use std::path::Path;
use std::time::Instant;

use blockprov_core::{txkind, LedgerConfig, ProvenanceLedger};
use blockprov_ledger::{
    Block, Chain, ChainConfig, ChainView, MetaConfig, MetaStore, TieredConfig, TieredStore,
    TxIndex, TxIndexConfig,
};
use blockprov_wire::{decode_seq, Reader};

use crate::gen::{Batch, History};
use crate::node::NodeFlags;
use crate::oracle::{decode_record, ReadKey};
use crate::trace::Tracer;

/// The ledger configuration the node builds from its flags.
fn ledger_config(flags: &NodeFlags) -> LedgerConfig {
    LedgerConfig::private_default()
        .with_finality(flags.finality)
        .with_ingest_threads(flags.ingest_threads)
}

/// The chain parameters `ProvenanceLedger` derives from
/// [`ledger_config`] (a private ledger: no proof of work, no nonce
/// sequencing).
fn chain_config(flags: &NodeFlags) -> ChainConfig {
    let c = ledger_config(flags);
    ChainConfig {
        signature_policy: c.signature_policy,
        require_pow: false,
        max_block_txs: c.max_block_txs,
        timestamp_tolerance_ms: 5_000,
        enforce_nonces: false,
        finality_depth: c.finality_depth,
        ingest_threads: c.ingest_threads,
    }
}

type Tiers = (TieredStore, TxIndex, MetaStore);

fn open_tiers(dir: &Path, flags: &NodeFlags) -> io::Result<Tiers> {
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            hot_capacity: flags.hot_capacity,
            ..TieredConfig::default()
        },
    )?;
    let index = TxIndex::open(dir.join("index"), TxIndexConfig::default())?;
    let meta = MetaStore::open(dir.join("meta"), MetaConfig::default())?;
    Ok((store, index, meta))
}

/// Open a data directory exactly as the node does.
pub fn open_ledger(dir: &Path, flags: &NodeFlags) -> io::Result<ProvenanceLedger> {
    let (store, index, meta) = open_tiers(dir, flags)?;
    ProvenanceLedger::open_with_tiers(ledger_config(flags), Box::new(store), index, meta)
}

/// Open the same tiers as a bare chain, without the provenance layer.
pub fn open_chain(dir: &Path, flags: &NodeFlags) -> io::Result<Chain> {
    let (store, index, meta) = open_tiers(dir, flags)?;
    Chain::replay_with_tiers(Box::new(store), Some(index), meta, chain_config(flags))
}

fn decode(batch: &Batch) -> Vec<Block> {
    decode_seq(&mut Reader::new(&batch.body)).expect("generated batches decode")
}

/// Per-call times (ns) of the write-path layers over one batch sequence.
#[derive(Default)]
pub struct WriteTimes {
    pub decode: Vec<u64>,
    pub core: Vec<u64>,
    pub append: Vec<u64>,
    pub append_mem: Vec<u64>,
}

/// Direct replicas of the node's write path, fed every batch the node
/// commits as soon as it has acknowledged it. Node and replicas are then
/// timed in the same moments of a shared machine whose speed drifts, and a
/// closed-loop node is idle while they run.
///
/// Each batch is replayed on:
/// - `wire::decode_seq` of the posted body;
/// - `ProvenanceLedger::ingest_blocks` on a ledger opened over `core_dir`;
/// - `Chain::append_batch` on a chain opened over `chain_dir`;
/// - `Chain::append_batch` on an in-memory chain that first absorbed
///   `prefix` untimed, so it holds the same history.
///
/// `core_dir` and `chain_dir` are copies of the directory the node started
/// the phase from.
pub struct WriteReplay {
    ledger: ProvenanceLedger,
    chain: Chain,
    mem: Chain,
    times: WriteTimes,
}

fn diverged(layer: &str, req: u64) -> io::Error {
    io::Error::other(format!(
        "{layer} replay of batch {req} did not commit every block"
    ))
}

impl WriteReplay {
    pub fn open(
        flags: &NodeFlags,
        core_dir: &Path,
        chain_dir: &Path,
        prefix: &[Batch],
    ) -> io::Result<Self> {
        let mut mem = Chain::new(chain_config(flags));
        for (i, b) in prefix.iter().enumerate() {
            mem.append_batch(decode(b))
                .map_err(|_| diverged("in-memory prefix", i as u64))?;
        }
        Ok(Self {
            ledger: open_ledger(core_dir, flags)?,
            chain: open_chain(chain_dir, flags)?,
            mem,
            times: WriteTimes::default(),
        })
    }

    /// Replay one committed batch; `parent` is its client span.
    pub fn apply(
        &mut self,
        tracer: &mut Tracer,
        batch: &Batch,
        parent: u64,
        req: u64,
    ) -> io::Result<()> {
        let (blocks, ns) = tracer.span("wire.decode_seq", parent, req, || decode(batch));
        self.times.decode.push(ns);
        let n = blocks.len();

        let owned = blocks.clone();
        let ledger = &mut self.ledger;
        let (res, ns) = tracer.span("core.ingest_blocks", parent, req, || {
            ledger.ingest_blocks(owned)
        });
        if !res.is_ok_and(|o| o.len() == n) {
            return Err(diverged("core", req));
        }
        self.times.core.push(ns);

        for (chain, name, out) in [
            (
                &mut self.chain,
                "ledger.append_batch",
                &mut self.times.append,
            ),
            (
                &mut self.mem,
                "ledger.append_batch_mem",
                &mut self.times.append_mem,
            ),
        ] {
            let owned = blocks.clone();
            let (res, ns) = tracer.span(name, parent, req, || chain.append_batch(owned));
            if !res.is_ok_and(|o| o.len() == n) {
                return Err(diverged(name, req));
            }
            out.push(ns);
        }
        Ok(())
    }

    /// Flush the durable replicas and hand back the timings.
    pub fn finish(mut self) -> io::Result<WriteTimes> {
        self.ledger.sync()?;
        self.chain.sync_meta()?;
        Ok(self.times)
    }
}

/// Per-call times (ns) of the read-path layers.
#[derive(Default)]
pub struct ReadTimes {
    pub block_at: Vec<u64>,
    pub find_tx: Vec<u64>,
    pub prove_tx: Vec<u64>,
    pub get_tx: Vec<u64>,
    pub txs_by_kind: Vec<u64>,
    pub record_decode: Vec<u64>,
    pub proof_verify: Vec<u64>,
    /// Provenance transactions examined and records returned by the
    /// lineage scans.
    pub examined: u64,
    pub returned: u64,
}

/// Replay `keys` on the `ChainView` methods their endpoints call.
/// Lineage keys replay the node's whole scan: `txs_by_kind`, then
/// `get_tx` and a record decode per provenance transaction. Point keys
/// replay their lookup, plus `get_tx` and a record decode of the same
/// transaction, so every read layer is timed on every workload.
pub fn replay_reads(
    tracer: &mut Tracer,
    view: &ChainView,
    hist: &History,
    keys: &[ReadKey],
    parents: &[u64],
) -> ReadTimes {
    let mut t = ReadTimes::default();
    for (i, key) in keys.iter().enumerate() {
        let (p, req) = (parents[i], i as u64);
        match *key {
            ReadKey::Tip => {}
            ReadKey::Block(h) => {
                let (_, ns) = tracer.span("ledger.view.block_at", p, req, || view.block_at(h));
                t.block_at.push(ns);
            }
            ReadKey::Tx(h, pos) => {
                let tx_id = hist.tx_at(h, pos);
                let (_, ns) = tracer.span("ledger.view.find_tx", p, req, || view.find_tx(&tx_id));
                t.find_tx.push(ns);
                let (tx, ns) = tracer.span("ledger.view.get_tx", p, req, || view.get_tx(&tx_id));
                t.get_tx.push(ns);
                let payload = tx.expect("sampled transactions exist").payload;
                let (_, ns) = tracer.span("provenance.record_decode", p, req, || {
                    decode_record(&payload)
                });
                t.record_decode.push(ns);
            }
            ReadKey::Prove(h, pos) => {
                let tx_id = hist.tx_at(h, pos);
                let (proof, ns) =
                    tracer.span("ledger.view.prove_tx", p, req, || view.prove_tx(&tx_id));
                t.prove_tx.push(ns);
                let proof = proof.expect("sampled transactions exist");
                let (_, ns) = tracer.span("crypto.proof_verify", p, req, || proof.verify());
                t.proof_verify.push(ns);
            }
            ReadKey::Provenance(a) => {
                let subject = blockprov_bench::flood::artifact_name(a);
                let (ids, ns) = tracer.span("ledger.view.txs_by_kind", p, req, || {
                    view.txs_by_kind(txkind::PROVENANCE)
                });
                t.txs_by_kind.push(ns);
                for tx_id in &ids {
                    let start = Instant::now();
                    let tx = view.get_tx(tx_id);
                    let mid = Instant::now();
                    let record = tx.and_then(|tx| decode_record(&tx.payload));
                    let end = Instant::now();
                    t.get_tx.push((mid - start).as_nanos() as u64);
                    t.record_decode.push((end - mid).as_nanos() as u64);
                    t.examined += 1;
                    if record.is_some_and(|r| r.subject == subject) {
                        t.returned += 1;
                    }
                }
            }
        }
    }
    t
}
