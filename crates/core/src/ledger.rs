//! [`ProvenanceLedger`]: the framework facade assembling chain, capture,
//! graph, query, access control and contracts behind one API.

use crate::config::{BlockchainKind, LedgerConfig, StorageMode};
use crate::offchain::OffChainStore;
use crate::txkind;
use blockprov_access::rbac::{Permission, RbacEngine, Role};
use blockprov_access::views::ViewManager;
use blockprov_consensus::poa::AuthoritySet;
use blockprov_consensus::pos::ValidatorSet;
use blockprov_consensus::pow;
use blockprov_contracts::ContractRuntime;
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::chain::{
    AppendOutcome, BatchError, Chain, ChainConfig, ChainReader, TxInclusionProof, ValidationError,
};
use blockprov_ledger::mempool::{Mempool, MempoolError};
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use blockprov_provenance::capture::{CaptureError, CapturePipeline, DataOperation};
use blockprov_provenance::graph::{GraphError, ProvGraph};
use blockprov_provenance::model::{Action, MissingField, ProvenanceRecord, RecordId};
use blockprov_provenance::query::{ProvQuery, QueryCache, QueryEngine, QueryResult};
use blockprov_wire::Codec;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Framework-level errors.
#[derive(Debug)]
pub enum CoreError {
    /// Chain-level validation failure.
    Chain(ValidationError),
    /// Mempool refusal.
    Mempool(MempoolError),
    /// Capture pathway refusal.
    Capture(CaptureError),
    /// DAG violation.
    Graph(GraphError),
    /// Table 1 schema violation.
    Schema(MissingField),
    /// Unknown agent (not registered).
    UnknownAgent(AccountId),
    /// PoW search exhausted its budget.
    MiningFailed,
    /// Record not found on the canonical chain.
    UnknownRecord(RecordId),
    /// The durable transaction index failed a read (corruption or I/O) —
    /// surfaced loudly instead of rebuilding a partial provenance graph.
    IndexIo(std::io::Error),
    /// A batched block ingest stopped at an invalid block. Blocks before
    /// it committed; the failing block and everything after it did not.
    Batch(BatchError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Chain(e) => write!(f, "chain: {e}"),
            CoreError::Mempool(e) => write!(f, "mempool: {e}"),
            CoreError::Capture(e) => write!(f, "capture: {e}"),
            CoreError::Graph(e) => write!(f, "graph: {e}"),
            CoreError::Schema(e) => write!(f, "schema: {e}"),
            CoreError::UnknownAgent(a) => write!(f, "unknown agent {a}"),
            CoreError::MiningFailed => write!(f, "mining budget exhausted"),
            CoreError::UnknownRecord(r) => write!(f, "unknown record {r}"),
            CoreError::IndexIo(e) => write!(f, "transaction index read failed: {e}"),
            CoreError::Batch(e) => write!(f, "ingest: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ValidationError> for CoreError {
    fn from(e: ValidationError) -> Self {
        CoreError::Chain(e)
    }
}
impl From<MempoolError> for CoreError {
    fn from(e: MempoolError) -> Self {
        CoreError::Mempool(e)
    }
}
impl From<CaptureError> for CoreError {
    fn from(e: CaptureError) -> Self {
        CoreError::Capture(e)
    }
}
impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}
impl From<BatchError> for CoreError {
    fn from(e: BatchError) -> Self {
        CoreError::Batch(e)
    }
}

/// A self-contained, user-verifiable proof that a provenance record is
/// anchored on the chain — what a ProvChain auditor hands back to a client.
#[derive(Debug, Clone)]
pub struct RecordProof {
    /// The proven record id.
    pub record_id: RecordId,
    /// The transaction carrying the record.
    pub tx_id: TxId,
    /// Inclusion proof of the transaction in its block.
    pub inclusion: TxInclusionProof,
}

impl RecordProof {
    /// Verify the whole chain of custody of the proof:
    /// record → transaction payload → Merkle root → block hash.
    pub fn verify(&self, record: &ProvenanceRecord) -> bool {
        if record.id() != self.record_id {
            return false;
        }
        self.inclusion.tx_id == self.tx_id && self.inclusion.verify()
    }
}

/// The assembled provenance ledger.
pub struct ProvenanceLedger {
    config: LedgerConfig,
    chain: Chain,
    mempool: Mempool,
    capture: CapturePipeline,
    graph: ProvGraph,
    engine: QueryEngine,
    cache: QueryCache,
    offchain: OffChainStore,
    /// Role-based access control over ledger operations.
    pub rbac: RbacEngine,
    /// LedgerView-style filtered views.
    pub views: ViewManager,
    /// Smart-contract runtime (state root sealed into headers).
    pub contracts: ContractRuntime,
    authorities: AuthoritySet,
    validators: ValidatorSet,
    epoch_seed: Hash256,
    agents: BTreeMap<AccountId, String>,
    nonces: HashMap<AccountId, u64>,
    /// record → carrying tx (filled at seal time).
    record_tx: HashMap<RecordId, TxId>,
    /// Logical clock (ms); deterministic and strictly monotonic.
    now_ms: u64,
}

impl ProvenanceLedger {
    /// The chain-level validation parameters implied by a ledger config.
    fn chain_config(config: &LedgerConfig) -> ChainConfig {
        ChainConfig {
            signature_policy: config.signature_policy,
            require_pow: matches!(config.kind, BlockchainKind::Public { .. }),
            max_block_txs: config.max_block_txs,
            timestamp_tolerance_ms: 5_000,
            enforce_nonces: false,
            finality_depth: config.finality_depth,
            ingest_threads: config.ingest_threads,
        }
    }

    /// Open a fresh in-memory ledger under `config`.
    pub fn open(config: LedgerConfig) -> Self {
        let chain = Chain::new(Self::chain_config(&config));
        Self::assemble(config, chain)
    }

    /// Open a durable ledger over a block store (typically a
    /// [`blockprov_ledger::segment::TieredStore`]), a transaction index and
    /// the metadata tier — fresh on empty directories, resumed otherwise
    /// (see [`Chain::replay_with_tiers`]).
    ///
    /// The chain fast-starts from the metadata tier's checkpoint snapshot
    /// when one exists: cold start re-validates only the non-finalized
    /// suffix, and a snapshot that contradicts the block store fails the
    /// open loudly. The provenance layer (graph, query indexes, record→tx
    /// anchoring, author nonces, logical clock) is rebuilt by walking the
    /// provenance-kind index entries. Off-chain payloads, agent
    /// registrations and unsealed mempool contents are process state, not
    /// chain state, and do not survive a restart.
    pub fn open_with_tiers(
        config: LedgerConfig,
        store: Box<dyn blockprov_ledger::store::BlockStore>,
        index: blockprov_ledger::index::TxIndex,
        meta: blockprov_ledger::meta::MetaStore,
    ) -> std::io::Result<Self> {
        let chain =
            Chain::replay_with_tiers(store, Some(index), meta, Self::chain_config(&config))?;
        let mut ledger = Self::assemble(config, chain);
        ledger.rehydrate_provenance().map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("replay: {e}"))
        })?;
        Ok(ledger)
    }

    /// Rebuild the provenance layer from the canonical chain after replay.
    ///
    /// Index-driven: only provenance-carrying transactions are visited (via
    /// the two-tier located-by-kind query, which hands back each entry's
    /// block and position so no per-id point lookup re-probes the index),
    /// in canonical order — blocks with no provenance payload are never
    /// decoded, and consecutive transactions of one block hit the store's
    /// hot cache. A durable-index read failure fails the open loudly
    /// instead of silently rebuilding a partial provenance graph. The
    /// logical clock resumes from the tip header and the visited
    /// records/blocks — for ledger-sealed histories the tip carries the
    /// maximum timestamp.
    fn rehydrate_provenance(&mut self) -> Result<(), CoreError> {
        self.now_ms = self.now_ms.max(self.chain.tip_header().timestamp_ms);
        let located = self
            .chain
            .try_txs_by_kind_located(txkind::PROVENANCE)
            .map_err(CoreError::IndexIo)?;
        for (id, hash, pos) in located {
            // A located entry whose block is unreadable means the index and
            // store disagree (e.g. the store was rolled back without its
            // index directory) — fail the open rather than silently
            // rebuilding a partial provenance graph.
            let block = self.chain.block(&hash).ok_or_else(|| {
                CoreError::IndexIo(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("index entry for {id} references block {hash} missing from the store"),
                ))
            })?;
            let tx = &block.txs[pos as usize];
            self.now_ms = self.now_ms.max(block.header.timestamp_ms);
            // OnChainFull transactions append raw content after the
            // record, so decode from the payload prefix (a payload that
            // is exactly one record is the prefix case with no tail).
            let Some(record) = Self::decode_record_prefix(&tx.payload) else {
                continue;
            };
            let record_id = record.id();
            self.now_ms = self.now_ms.max(record.timestamp_ms);
            let nonce = self.nonces.entry(tx.author).or_insert(0);
            *nonce = (*nonce).max(tx.nonce + 1);
            self.record_tx.insert(record_id, id);
            if self.graph.get(&record_id).is_none() {
                self.graph.insert(record.clone())?;
                self.engine.index_record(record_id, &record);
            }
        }
        Ok(())
    }

    /// Decode a provenance record from the front of an `OnChainFull`
    /// payload (record bytes followed by raw content).
    fn decode_record_prefix(payload: &[u8]) -> Option<ProvenanceRecord> {
        let mut r = blockprov_wire::Reader::new(payload);
        ProvenanceRecord::decode(&mut r).ok()
    }

    /// Assemble the framework around an existing chain.
    fn assemble(config: LedgerConfig, chain: Chain) -> Self {
        let mut capture = CapturePipeline::new(config.capture, config.domain);
        if config.pseudonymize {
            capture = capture.with_pseudonyms(sha256(b"blockprov-epoch-0"));
        }
        let (authorities, validators) = match &config.kind {
            BlockchainKind::Private { authorities } => {
                (AuthoritySet::new(authorities.clone()), ValidatorSet::new())
            }
            BlockchainKind::Consortium { validators } => {
                let mut vs = ValidatorSet::new();
                for (v, s) in validators {
                    vs.bond(*v, *s);
                }
                (AuthoritySet::default(), vs)
            }
            BlockchainKind::Public { .. } => (AuthoritySet::default(), ValidatorSet::new()),
        };
        Self {
            chain,
            mempool: Mempool::new(config.max_block_txs * 64),
            capture,
            graph: ProvGraph::new(),
            engine: QueryEngine::new(),
            cache: QueryCache::new(config.cache_capacity.max(1)),
            offchain: OffChainStore::new(),
            rbac: RbacEngine::new(),
            views: ViewManager::new(),
            contracts: ContractRuntime::new(),
            authorities,
            validators,
            epoch_seed: sha256(b"blockprov-pos-epoch"),
            agents: BTreeMap::new(),
            nonces: HashMap::new(),
            record_tx: HashMap::new(),
            now_ms: 1,
            config,
        }
    }

    /// The configuration this ledger runs under.
    pub fn config(&self) -> &LedgerConfig {
        &self.config
    }

    /// The underlying chain (read access for audits and experiments).
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Attach a concurrent, cloneable query handle over the chain.
    ///
    /// The handle is `Send + Sync` and answers from epoch-published chain
    /// snapshots plus the durable tiers' published states, so query threads
    /// never block the sealing/ingest path and never observe torn commit
    /// state. While at least one handle is alive the chain re-publishes a
    /// snapshot at every commit point; queries then lag live state by at
    /// most one commit. Provenance-graph state (records, DAG edges) is not
    /// covered — this is the chain-level view: id/author/kind lookups,
    /// height/hash resolution, block fetch and Merkle inclusion proofs.
    pub fn reader(&mut self) -> ChainReader {
        self.chain.reader()
    }

    /// Force a clean-shutdown sync: flush staged commits across every
    /// durable tier and write the checkpoint snapshot the next open
    /// fast-starts from.
    ///
    /// Dropping the ledger performs the same sync implicitly; long-running
    /// services call this explicitly (e.g. on SIGTERM) so a durability
    /// failure surfaces as an error instead of being swallowed by `Drop`.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.chain.sync_meta()
    }

    /// The provenance DAG.
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    /// The off-chain store.
    pub fn offchain(&self) -> &OffChainStore {
        &self.offchain
    }

    /// Capture-pipeline work counters (F3/E4).
    pub fn capture_stats(&self) -> &blockprov_provenance::CaptureStats {
        &self.capture.stats
    }

    /// Query-cache hit/miss counters (E2).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Advance the logical clock and return the new time.
    fn tick(&mut self) -> u64 {
        self.now_ms += 1;
        self.now_ms
    }

    /// Current logical time (ms).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advance the logical clock by one tick and return the new time.
    ///
    /// Domain crates building records directly (rather than through
    /// [`ProvenanceLedger::apply_operation`]) must stamp each record with a
    /// fresh tick so that semantically identical consecutive records (e.g.
    /// repeated disclosure audits) keep distinct content-addressed ids.
    pub fn advance_clock(&mut self) -> u64 {
        self.tick()
    }

    /// Register an agent by name. Grants the default `participant` role and
    /// authenticates the agent with third-party capture pathways.
    pub fn register_agent(&mut self, name: &str) -> Result<AccountId, CoreError> {
        let id = AccountId::from_name(name);
        self.agents.insert(id, name.to_string());
        let role = Role::new("participant");
        self.rbac.grant(&role, Permission::new("record.append"));
        self.rbac.grant(&role, Permission::new("record.read"));
        self.rbac.assign(id, &role);
        self.capture.authenticate(id);
        Ok(id)
    }

    /// Whether an agent is registered.
    pub fn is_registered(&self, agent: &AccountId) -> bool {
        self.agents.contains_key(agent)
    }

    /// Register an entity: captures and submits a `Create` record over the
    /// initial content. Returns the subject name for chaining.
    pub fn register_entity(&mut self, subject: &str, content: &[u8]) -> Result<String, CoreError> {
        // System-level creation uses the first registered agent if any,
        // otherwise an internal system account.
        let agent = self
            .agents
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| AccountId::from_name("system"));
        self.apply_operation(&agent, subject, Action::Create, content)?;
        Ok(subject.to_string())
    }

    /// Record an action with empty content.
    pub fn record_action(
        &mut self,
        agent: &AccountId,
        subject: &str,
        action: Action,
    ) -> Result<RecordId, CoreError> {
        self.apply_operation(agent, subject, action, &[])
    }

    /// Capture one data operation end-to-end: pathway → record → schema
    /// check → (off-chain payload) → mempool transaction.
    pub fn apply_operation(
        &mut self,
        agent: &AccountId,
        subject: &str,
        action: Action,
        content: &[u8],
    ) -> Result<RecordId, CoreError> {
        if !self.agents.contains_key(agent) && *agent != AccountId::from_name("system") {
            return Err(CoreError::UnknownAgent(*agent));
        }
        let ts = self.tick();
        let op = DataOperation {
            user: *agent,
            object: subject.to_string(),
            action,
            timestamp_ms: ts,
            content: content.to_vec(),
        };
        let mut record = self.capture.capture(&op)?;
        // Derivation edge: link to the latest prior record of this subject.
        if let Some(prev) = self
            .engine
            .execute(&self.graph, &ProvQuery::BySubject(subject.to_string()))
            .ids
            .last()
        {
            record = record.with_parent(*prev);
        }
        if self.config.enforce_schema {
            record.validate_schema().map_err(CoreError::Schema)?;
        }
        self.submit_record(record, content)
    }

    /// Submit a pre-built record (domain crates use this directly).
    pub fn submit_record(
        &mut self,
        record: ProvenanceRecord,
        content: &[u8],
    ) -> Result<RecordId, CoreError> {
        let payload = match self.config.storage {
            StorageMode::HashAnchored => {
                if !content.is_empty() {
                    self.offchain.put(content);
                }
                record.to_wire()
            }
            StorageMode::OnChainFull => {
                let mut bytes = record.to_wire();
                bytes.extend_from_slice(content);
                bytes
            }
        };
        let author = record.agent;
        let nonce = self.nonces.entry(author).or_insert(0);
        let tx = Transaction::new(
            author,
            *nonce,
            record.timestamp_ms,
            txkind::PROVENANCE,
            payload,
        );
        *nonce += 1;
        let record_id = record.id();
        self.mempool.insert(tx)?;
        // Insert into the graph immediately (pending); queries see pending
        // records, proofs only exist after sealing.
        self.graph.insert(record.clone())?;
        self.engine.index_record(record_id, &record);
        Ok(record_id)
    }

    /// Seal pending transactions into a block under the configured
    /// consensus. Returns the new block hash (or the current tip if the
    /// mempool was empty).
    pub fn seal_block(&mut self) -> Result<BlockHash, CoreError> {
        let txs = self.mempool.take_batch(self.config.max_block_txs);
        if txs.is_empty() {
            return Ok(self.chain.tip());
        }
        let ts = self.tick();
        let height = self.chain.height() + 1;
        let (proposer, difficulty) = match &self.config.kind {
            BlockchainKind::Public { pow_bits } => (AccountId::from_name("miner-0"), *pow_bits),
            BlockchainKind::Private { .. } => (
                self.authorities
                    .sealer_for(height)
                    .unwrap_or_else(|| AccountId::from_name("authority-0")),
                0,
            ),
            BlockchainKind::Consortium { .. } => (
                self.validators
                    .leader(&self.epoch_seed, height)
                    .unwrap_or_else(|| AccountId::from_name("validator-0")),
                0,
            ),
        };
        let tx_ids: Vec<TxId> = txs.iter().map(Transaction::id).collect();
        let record_ids: Vec<(RecordId, TxId)> = txs
            .iter()
            .filter(|t| t.kind == txkind::PROVENANCE)
            .filter_map(|t| {
                ProvenanceRecord::from_wire(&t.payload)
                    .ok()
                    .map(|r| (r.id(), t.id()))
            })
            .collect();
        let mut block = self.chain.assemble_next(ts, proposer, difficulty, txs);
        block.header.state_root = self.contracts.state_root();
        if difficulty > 0 {
            match pow::mine(&mut block.header, 1 << 28) {
                pow::MiningOutcome::Found { .. } => {}
                pow::MiningOutcome::Exhausted => return Err(CoreError::MiningFailed),
            }
        }
        let outcome = self.chain.append(block)?;
        self.mempool.remove_committed(&tx_ids);
        for (rid, txid) in record_ids {
            self.record_tx.insert(rid, txid);
        }
        Ok(outcome.hash)
    }

    /// Ingest a batch of externally produced blocks (e.g. replicated from
    /// a peer) through the two-stage pipeline: stateless validation fans
    /// out across [`LedgerConfig::ingest_threads`] workers, the serialized
    /// commit section applies fork choice, finality and the provenance
    /// layer per committed block. Durability is batch-granular: the chain
    /// group-flushes every tier once per call, on the error path too, so
    /// blocks this method reports as committed are on disk — which is also
    /// what lets the loop below read the committed prefix's bodies back
    /// for provenance absorption before surfacing the error. Blocks before
    /// the first invalid one commit, and the error reports which block
    /// failed and why (a `StoreIo` error with `index == committed.len()`
    /// means the group flush itself failed; reopen and replay).
    pub fn ingest_blocks(&mut self, blocks: Vec<Block>) -> Result<Vec<AppendOutcome>, CoreError> {
        let (outcomes, err) = match self.chain.append_batch(blocks) {
            Ok(outcomes) => (outcomes, None),
            Err(e) => (e.committed.clone(), Some(e)),
        };
        for outcome in &outcomes {
            let Some(block) = self.chain.block(&outcome.hash) else {
                continue; // already pruned by finality — nothing to absorb
            };
            self.absorb_block_provenance(&block)?;
        }
        match err {
            None => Ok(outcomes),
            Some(e) => Err(CoreError::Batch(e)),
        }
    }

    /// Fold one committed block into the provenance layer: logical clock,
    /// author nonces, record→tx anchoring, graph and query indexes — the
    /// same per-transaction work [`Self::rehydrate_provenance`] does on
    /// replay.
    fn absorb_block_provenance(&mut self, block: &Block) -> Result<(), CoreError> {
        self.now_ms = self.now_ms.max(block.header.timestamp_ms);
        for tx in &block.txs {
            if tx.kind != txkind::PROVENANCE {
                continue;
            }
            let Some(record) = Self::decode_record_prefix(&tx.payload) else {
                continue;
            };
            let record_id = record.id();
            self.now_ms = self.now_ms.max(record.timestamp_ms);
            let nonce = self.nonces.entry(tx.author).or_insert(0);
            *nonce = (*nonce).max(tx.nonce + 1);
            self.record_tx.insert(record_id, tx.id());
            if self.graph.get(&record_id).is_none() {
                self.graph.insert(record.clone())?;
                self.engine.index_record(record_id, &record);
            }
        }
        Ok(())
    }

    /// Number of transactions waiting to be sealed.
    pub fn pending(&self) -> usize {
        self.mempool.len()
    }

    /// Execute a provenance query through the repeated-query cache.
    pub fn query(&mut self, query: &ProvQuery) -> QueryResult {
        self.cache.execute(&self.engine, &self.graph, query)
    }

    /// Fetch a record body by id.
    pub fn record(&self, id: &RecordId) -> Option<&ProvenanceRecord> {
        self.graph.get(id)
    }

    /// Produce a user-verifiable anchoring proof for a sealed record.
    pub fn prove_record(&self, id: &RecordId) -> Result<RecordProof, CoreError> {
        let tx_id = self
            .record_tx
            .get(id)
            .ok_or(CoreError::UnknownRecord(*id))?;
        let inclusion = self
            .chain
            .prove_tx(tx_id)
            .ok_or(CoreError::UnknownRecord(*id))?;
        Ok(RecordProof {
            record_id: *id,
            tx_id: *tx_id,
            inclusion,
        })
    }

    /// Re-verify the whole chain (Figure 2 integrity walk).
    pub fn verify_chain(&self) -> Result<(), CoreError> {
        self.chain.verify_integrity().map_err(CoreError::Chain)
    }

    /// On-chain bytes (block store) — experiment E3.
    pub fn onchain_bytes(&self) -> u64 {
        self.chain.stored_bytes()
    }

    /// Off-chain bytes — experiment E3.
    pub fn offchain_bytes(&self) -> u64 {
        self.offchain.stored_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_provenance::Domain;

    fn ledger() -> ProvenanceLedger {
        ProvenanceLedger::open(LedgerConfig::private_default())
    }

    #[test]
    fn end_to_end_record_seal_prove_verify() {
        let mut l = ledger();
        let alice = l.register_agent("alice").unwrap();
        l.register_entity("report.pdf", b"v1").unwrap();
        let rid = l
            .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
            .unwrap();
        l.seal_block().unwrap();

        let proof = l.prove_record(&rid).unwrap();
        let record = l.record(&rid).unwrap().clone();
        assert!(proof.verify(&record));
        assert!(l.chain().is_canonical(&proof.inclusion.block_hash));
        l.verify_chain().unwrap();
    }

    #[test]
    fn unknown_agent_rejected() {
        let mut l = ledger();
        let ghost = AccountId::from_name("ghost");
        assert!(matches!(
            l.apply_operation(&ghost, "f", Action::Read, &[]),
            Err(CoreError::UnknownAgent(_))
        ));
    }

    #[test]
    fn unsealed_record_has_no_proof_but_is_queryable() {
        let mut l = ledger();
        let alice = l.register_agent("alice").unwrap();
        let rid = l
            .apply_operation(&alice, "f", Action::Create, b"x")
            .unwrap();
        assert!(matches!(
            l.prove_record(&rid),
            Err(CoreError::UnknownRecord(_))
        ));
        let res = l.query(&ProvQuery::BySubject("f".into()));
        assert_eq!(res.ids, vec![rid]);
    }

    #[test]
    fn derivation_chain_links_successive_operations() {
        let mut l = ledger();
        let alice = l.register_agent("alice").unwrap();
        let r1 = l
            .apply_operation(&alice, "f", Action::Create, b"v1")
            .unwrap();
        let r2 = l
            .apply_operation(&alice, "f", Action::Update, b"v2")
            .unwrap();
        let r3 = l
            .apply_operation(&alice, "f", Action::Update, b"v3")
            .unwrap();
        let rec3 = l.record(&r3).unwrap();
        assert_eq!(rec3.parents, vec![r2]);
        let anc = l.graph().ancestors(&r3).unwrap();
        assert_eq!(anc, vec![r2, r1]);
    }

    #[test]
    fn storage_modes_split_bytes_differently() {
        let payload = vec![0xABu8; 4096];
        let mut anchored = ProvenanceLedger::open(
            LedgerConfig::private_default().with_storage(StorageMode::HashAnchored),
        );
        let a = anchored.register_agent("a").unwrap();
        anchored
            .apply_operation(&a, "f", Action::Create, &payload)
            .unwrap();
        anchored.seal_block().unwrap();

        let mut full = ProvenanceLedger::open(
            LedgerConfig::private_default().with_storage(StorageMode::OnChainFull),
        );
        let b = full.register_agent("a").unwrap();
        full.apply_operation(&b, "f", Action::Create, &payload)
            .unwrap();
        full.seal_block().unwrap();

        assert!(full.onchain_bytes() > anchored.onchain_bytes() + 3000);
        assert_eq!(full.offchain_bytes(), 0);
        assert!(anchored.offchain_bytes() >= 4096);
    }

    #[test]
    fn public_chain_mines_and_validates_pow() {
        let mut l = ProvenanceLedger::open(LedgerConfig::public_default());
        let a = l.register_agent("a").unwrap();
        l.apply_operation(&a, "f", Action::Create, b"x").unwrap();
        let hash = l.seal_block().unwrap();
        let block = l.chain().block(&hash).unwrap();
        assert!(block.header.difficulty_bits == 8);
        assert!(block.header.meets_difficulty());
        l.verify_chain().unwrap();
    }

    #[test]
    fn consortium_rotates_stake_weighted_proposers() {
        let mut l =
            ProvenanceLedger::open(LedgerConfig::consortium(4).with_domain(Domain::Generic));
        let a = l.register_agent("a").unwrap();
        let mut proposers = std::collections::BTreeSet::new();
        for i in 0..12 {
            l.apply_operation(&a, &format!("f{i}"), Action::Create, b"x")
                .unwrap();
            let h = l.seal_block().unwrap();
            proposers.insert(l.chain().block(&h).unwrap().header.proposer);
        }
        assert!(proposers.len() > 1, "multiple validators should win");
    }

    #[test]
    fn empty_seal_is_a_noop() {
        let mut l = ledger();
        let tip = l.chain().tip();
        assert_eq!(l.seal_block().unwrap(), tip);
    }

    #[test]
    fn cache_serves_repeated_queries() {
        let mut l = ledger();
        let a = l.register_agent("a").unwrap();
        l.apply_operation(&a, "f", Action::Create, b"x").unwrap();
        let q = ProvQuery::BySubject("f".into());
        let _ = l.query(&q);
        let second = l.query(&q);
        assert!(second.from_cache);
        assert_eq!(l.cache_stats().0, 1);
    }

    /// Open a durable ledger over the three tiers under `dir`.
    fn durable(config: &LedgerConfig, dir: &std::path::Path) -> ProvenanceLedger {
        use blockprov_ledger::index::{TxIndex, TxIndexConfig};
        use blockprov_ledger::meta::{MetaConfig, MetaStore};
        use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
        let store = TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                segment: SegmentConfig {
                    segment_bytes: 64 * 1024,
                },
                hot_capacity: 16,
            },
        )
        .unwrap();
        let index = TxIndex::open(
            dir.join("txindex"),
            TxIndexConfig {
                partitions: 4,
                page_entries: 8,
                cached_pages: 8,
                ..TxIndexConfig::default()
            },
        )
        .unwrap();
        let meta = MetaStore::open(
            dir.join("meta"),
            MetaConfig {
                page_heights: 8,
                cached_pages: 4,
                ..MetaConfig::default()
            },
        )
        .unwrap();
        ProvenanceLedger::open_with_tiers(config.clone(), Box::new(store), index, meta).unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blockprov-core-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_ledger_replays_blocks_after_losing_its_derived_tiers() {
        let dir = temp_dir("tiered");
        let config = LedgerConfig::private_default().with_finality(4);
        let (rid, tip, height);
        {
            let mut l = durable(&config, &dir);
            let alice = l.register_agent("alice").unwrap();
            l.register_entity("report.pdf", b"v1").unwrap();
            rid = l
                .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
                .unwrap();
            l.seal_block().unwrap();
            // Grow history so finality advances and old blocks go cold.
            for i in 0..12 {
                l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
                l.seal_block().unwrap();
            }
            // Query paths run over the tiered chain.
            let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
            assert_eq!(res.ids.len(), 2);
            let proof = l.prove_record(&rid).unwrap();
            let record = l.record(&rid).unwrap().clone();
            assert!(proof.verify(&record));
            l.verify_chain().unwrap();
            assert!(l.chain().finalized_height() > 0);
            assert!(l.chain().resident_blocks() <= 16);
            tip = l.chain().tip();
            height = l.chain().height();
        }

        // Restart with only the block segments: without a snapshot the
        // open scans and replays every stored block.
        std::fs::remove_dir_all(dir.join("txindex")).unwrap();
        std::fs::remove_dir_all(dir.join("meta")).unwrap();
        let mut l = durable(&config, &dir);
        assert!(l.chain().appended_blocks() >= height - 1, "full replay");
        assert_eq!(l.chain().tip(), tip);
        assert_eq!(l.chain().height(), height);
        l.verify_chain().unwrap();
        // Sealed provenance state is reconstructed: graph, query indexes,
        // and record→tx anchoring all survive.
        let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
        assert_eq!(res.ids.len(), 2);
        let record = l.record(&rid).unwrap().clone();
        let proof = l.prove_record(&rid).unwrap();
        assert!(proof.verify(&record));
        // The derivation edge survives replay too.
        assert_eq!(l.graph().ancestors(&rid).unwrap().len(), 1);
        drop(l);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_ledger_bounds_resident_index_and_reopens() {
        let dir = temp_dir("indexed");
        let config = LedgerConfig::private_default().with_finality(4);
        let (rid, tip, height);
        {
            let mut l = durable(&config, &dir);
            let alice = l.register_agent("alice").unwrap();
            l.register_entity("report.pdf", b"v1").unwrap();
            rid = l
                .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
                .unwrap();
            l.seal_block().unwrap();
            for i in 0..24 {
                l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
                l.seal_block().unwrap();
            }
            // The mutable index covers only the non-finalized suffix…
            let suffix = l.chain().height() - l.chain().finalized_height();
            assert!(
                (l.chain().resident_index_entries() as u64) <= 2 * suffix,
                "resident index entries {} not bounded by suffix {suffix}",
                l.chain().resident_index_entries()
            );
            // …while finalized entries are served from the durable tier.
            assert!(l.chain().tx_index().unwrap().entries() > 0);
            let proof = l.prove_record(&rid).unwrap();
            assert!(proof.verify(&l.record(&rid).unwrap().clone()));
            tip = l.chain().tip();
            height = l.chain().height();
        }

        // Restart: chain queries rehydrate from index pages, and the
        // provenance layer is rebuilt via txs_by_kind.
        let mut l = durable(&config, &dir);
        assert_eq!(l.chain().tip(), tip);
        assert_eq!(l.chain().height(), height);
        l.verify_chain().unwrap();
        let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
        assert_eq!(res.ids.len(), 2);
        let record = l.record(&rid).unwrap().clone();
        assert!(l.prove_record(&rid).unwrap().verify(&record));
        // Nonces continue, so new operations seal cleanly.
        let alice = l.register_agent("alice").unwrap();
        l.apply_operation(&alice, "f-new", Action::Create, b"y")
            .unwrap();
        l.seal_block().unwrap();
        l.verify_chain().unwrap();
        drop(l);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_over_all_three_tiers_fast_starts_from_snapshot() {
        let dir = temp_dir("tiers");
        let config = LedgerConfig::private_default().with_finality(4);
        let (rid, tip, height);
        {
            let mut l = durable(&config, &dir);
            let alice = l.register_agent("alice").unwrap();
            l.register_entity("report.pdf", b"v1").unwrap();
            rid = l
                .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
                .unwrap();
            l.seal_block().unwrap();
            for i in 0..24 {
                l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
                l.seal_block().unwrap();
            }
            // Resident chain metadata is bounded by the finality window,
            // not history.
            let r = l.chain().resident_metadata();
            let suffix = l.chain().height() - l.chain().finalized_height();
            assert!(
                (r.canonical as u64) == suffix + 1,
                "canonical suffix {} vs window {suffix}",
                r.canonical
            );
            tip = l.chain().tip();
            height = l.chain().height();
        }

        // Restart: the chain fast-starts from the snapshot — only the
        // non-finalized suffix is re-validated — while provenance state
        // rehydrates from the durable index as before.
        let mut l = durable(&config, &dir);
        assert_eq!(l.chain().tip(), tip);
        assert_eq!(l.chain().height(), height);
        assert!(
            l.chain().appended_blocks() <= 5,
            "fast start re-absorbed {} blocks",
            l.chain().appended_blocks()
        );
        l.verify_chain().unwrap();
        let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
        assert_eq!(res.ids.len(), 2);
        let record = l.record(&rid).unwrap().clone();
        assert!(l.prove_record(&rid).unwrap().verify(&record));
        // Nonces continue across the fast start.
        let alice = l.register_agent("alice").unwrap();
        l.apply_operation(&alice, "f-new", Action::Create, b"y")
            .unwrap();
        l.seal_block().unwrap();
        l.verify_chain().unwrap();
        drop(l);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_restores_author_nonces() {
        let dir = temp_dir("nonces");
        let config = LedgerConfig::private_default();
        {
            let mut l = durable(&config, &dir);
            let a = l.register_agent("alice").unwrap();
            for i in 0..3 {
                l.apply_operation(&a, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
            }
            l.seal_block().unwrap();
        }
        let mut l = durable(&config, &dir);
        // A fresh operation must continue the nonce sequence, not restart it
        // (a restarted sequence would collide in the mempool).
        let a = l.register_agent("alice").unwrap();
        l.apply_operation(&a, "f-new", Action::Create, b"y").unwrap();
        l.seal_block().unwrap();
        l.verify_chain().unwrap();
        assert_eq!(l.chain().height(), 2);
        drop(l);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_reader_serves_concurrent_queries_while_sealing() {
        let mut l = ProvenanceLedger::open(LedgerConfig::private_default().with_finality(4));
        let alice = l.register_agent("alice").unwrap();
        l.apply_operation(&alice, "f0", Action::Create, b"x").unwrap();
        l.seal_block().unwrap();
        let reader = l.reader();
        let poller = {
            let r = reader.clone();
            std::thread::spawn(move || loop {
                // Every pinned view must be internally consistent no matter
                // where the writer is: the tip resolves at the view's own
                // height.
                let v = r.view();
                assert_eq!(v.hash_at(v.height()), Some(v.tip()), "torn view");
                if v.height() >= 10 {
                    break;
                }
                std::thread::yield_now();
            })
        };
        for i in 1..=12 {
            l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                .unwrap();
            l.seal_block().unwrap();
        }
        poller.join().unwrap();
        let view = reader.view();
        assert_eq!(view.height(), l.chain().height());
        assert_eq!(view.tip(), l.chain().tip());
        let provenance = view.txs_by_kind(txkind::PROVENANCE);
        assert_eq!(provenance.len(), 13);
        let proof = view.prove_tx(&provenance[4]).expect("proof through reader");
        assert!(proof.verify());
    }

    #[test]
    fn schema_enforcement_rejects_incomplete_domain_records() {
        let mut l = ProvenanceLedger::open(
            LedgerConfig::private_default().with_domain(Domain::SupplyChain),
        );
        let a = l.register_agent("factory").unwrap();
        // The capture pipeline does not fill supply-chain fields, so schema
        // enforcement must reject the bare operation.
        assert!(matches!(
            l.apply_operation(&a, "device-1", Action::Create, b""),
            Err(CoreError::Schema(_))
        ));
        // A fully-specified record submitted directly passes.
        let record = ProvenanceRecord::new("device-1", a, Action::Create, 99, Domain::SupplyChain)
            .with_field("unique_product_id", "device-1")
            .with_field("manufacturer_id", "acme");
        l.submit_record(record, b"").unwrap();
    }
}
