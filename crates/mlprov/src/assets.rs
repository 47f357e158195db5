//! AI asset provenance (Lüthi et al. \[51\]).
//!
//! Assets are datasets, operations and models linked in a DAG: operations
//! consume datasets/models and produce new ones. The graph answers the two
//! questions the paper motivates: *where did this model come from?*
//! (ancestry) and *who should be paid when it is used?* (dataset
//! contribution shares).

use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use std::collections::BTreeMap;
use std::fmt;

/// Asset classes of the Lüthi model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssetKind {
    /// Training/evaluation data.
    Dataset,
    /// A transformation (training run, preprocessing, evaluation).
    Operation,
    /// A trained model.
    Model,
}

impl AssetKind {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            AssetKind::Dataset => "dataset",
            AssetKind::Operation => "operation",
            AssetKind::Model => "model",
        }
    }
}

/// Asset identifier (its name).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AssetId(pub String);

/// ML-domain errors.
#[derive(Debug)]
pub enum MlError {
    /// Unknown asset referenced.
    UnknownAsset(AssetId),
    /// Asset name already registered.
    DuplicateAsset(AssetId),
    /// Structural rule violated (e.g. dataset with inputs).
    BadStructure(String),
    /// Ledger failure.
    Core(CoreError),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::UnknownAsset(a) => write!(f, "unknown asset {}", a.0),
            MlError::DuplicateAsset(a) => write!(f, "duplicate asset {}", a.0),
            MlError::BadStructure(m) => write!(f, "bad structure: {m}"),
            MlError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for MlError {}

impl From<CoreError> for MlError {
    fn from(e: CoreError) -> Self {
        MlError::Core(e)
    }
}

#[derive(Debug, Clone)]
struct AssetState {
    kind: AssetKind,
    owner: AccountId,
    inputs: Vec<AssetId>,
    record: RecordId,
}

/// The asset DAG anchored to a provenance ledger.
pub struct AssetGraph {
    ledger: ProvenanceLedger,
    assets: BTreeMap<AssetId, AssetState>,
}

impl Default for AssetGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl AssetGraph {
    /// Open over a consortium ledger (federated settings have no single
    /// trusted party).
    pub fn new() -> Self {
        let config = LedgerConfig::consortium(4).with_domain(Domain::MachineLearning);
        Self {
            ledger: ProvenanceLedger::open(config),
            assets: BTreeMap::new(),
        }
    }

    /// Register a participant.
    pub fn register_participant(&mut self, name: &str) -> Result<AccountId, MlError> {
        Ok(self.ledger.register_agent(name)?)
    }

    /// Register an asset with its input assets.
    ///
    /// Structural rules: datasets have no inputs; operations must have at
    /// least one input; models must name the operation that produced them.
    pub fn register_asset(
        &mut self,
        owner: AccountId,
        name: &str,
        kind: AssetKind,
        inputs: &[AssetId],
    ) -> Result<AssetId, MlError> {
        let id = AssetId(name.to_string());
        if self.assets.contains_key(&id) {
            return Err(MlError::DuplicateAsset(id));
        }
        match kind {
            AssetKind::Dataset if !inputs.is_empty() => {
                return Err(MlError::BadStructure("datasets are source nodes".into()))
            }
            AssetKind::Operation if inputs.is_empty() => {
                return Err(MlError::BadStructure(
                    "operations must consume inputs".into(),
                ))
            }
            AssetKind::Model => {
                let has_op = inputs.iter().any(|i| {
                    self.assets
                        .get(i)
                        .is_some_and(|a| a.kind == AssetKind::Operation)
                });
                if !has_op {
                    return Err(MlError::BadStructure(
                        "models must be produced by an operation".into(),
                    ));
                }
            }
            _ => {}
        }
        let mut parent_records = Vec::with_capacity(inputs.len());
        for input in inputs {
            let state = self
                .assets
                .get(input)
                .ok_or_else(|| MlError::UnknownAsset(input.clone()))?;
            parent_records.push(state.record);
        }
        let ts = self.ledger.advance_clock();
        let dataset_inputs: Vec<String> = inputs
            .iter()
            .filter(|i| {
                self.assets
                    .get(i)
                    .is_some_and(|a| a.kind == AssetKind::Dataset)
            })
            .map(|i| i.0.clone())
            .collect();
        let mut record =
            ProvenanceRecord::new(name, owner, Action::Create, ts, Domain::MachineLearning)
                .with_field("asset_kind", kind.label())
                .with_field("dataset_ids", &dataset_inputs.join(","))
                .with_field(
                    "operation",
                    if kind == AssetKind::Operation {
                        name
                    } else {
                        ""
                    },
                )
                .with_field("model_version", "1")
                .with_field("training_round", "0");
        for p in parent_records {
            record = record.with_parent(p);
        }
        let rid = self.ledger.submit_record(record, &[])?;
        self.assets.insert(
            id.clone(),
            AssetState {
                kind,
                owner,
                inputs: inputs.to_vec(),
                record: rid,
            },
        );
        Ok(id)
    }

    /// Kind of an asset.
    pub fn kind_of(&self, id: &AssetId) -> Option<AssetKind> {
        self.assets.get(id).map(|a| a.kind)
    }

    /// All transitive dataset ancestors of an asset.
    pub fn dataset_ancestry(&self, id: &AssetId) -> Result<Vec<AssetId>, MlError> {
        if !self.assets.contains_key(id) {
            return Err(MlError::UnknownAsset(id.clone()));
        }
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![id.clone()];
        while let Some(next) = stack.pop() {
            let state = &self.assets[&next];
            for input in &state.inputs {
                if seen.insert(input.clone()) {
                    if self.assets[input].kind == AssetKind::Dataset {
                        out.push(input.clone());
                    }
                    stack.push(input.clone());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Fair-remuneration shares for a model: each contributing dataset
    /// owner's fraction (equal split across contributing datasets — the
    /// paper's "equitable remuneration" baseline).
    pub fn remuneration_shares(
        &self,
        model: &AssetId,
    ) -> Result<BTreeMap<AccountId, f64>, MlError> {
        let datasets = self.dataset_ancestry(model)?;
        let mut shares = BTreeMap::new();
        if datasets.is_empty() {
            return Ok(shares);
        }
        let per = 1.0 / datasets.len() as f64;
        for d in datasets {
            *shares.entry(self.assets[&d].owner).or_insert(0.0) += per;
        }
        Ok(shares)
    }

    /// Seal pending provenance.
    pub fn seal(&mut self) -> Result<(), MlError> {
        self.ledger.seal_block()?;
        Ok(())
    }

    /// Underlying ledger.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AssetGraph, AccountId, AccountId) {
        let mut g = AssetGraph::new();
        let a = g.register_participant("org-a").unwrap();
        let b = g.register_participant("org-b").unwrap();
        (g, a, b)
    }

    #[test]
    fn value_chain_registers_and_traces() {
        let (mut g, a, b) = setup();
        let d1 = g
            .register_asset(a, "hospital-data", AssetKind::Dataset, &[])
            .unwrap();
        let d2 = g
            .register_asset(b, "clinic-data", AssetKind::Dataset, &[])
            .unwrap();
        let op = g
            .register_asset(
                a,
                "train-v1",
                AssetKind::Operation,
                &[d1.clone(), d2.clone()],
            )
            .unwrap();
        let model = g
            .register_asset(a, "model-v1", AssetKind::Model, &[op])
            .unwrap();
        let ancestry = g.dataset_ancestry(&model).unwrap();
        // Sorted by asset name: "clinic-data" < "hospital-data".
        assert_eq!(ancestry, vec![d2, d1]);
    }

    #[test]
    fn structural_rules_enforced() {
        let (mut g, a, _) = setup();
        let d = g.register_asset(a, "d", AssetKind::Dataset, &[]).unwrap();
        assert!(matches!(
            g.register_asset(a, "d2", AssetKind::Dataset, std::slice::from_ref(&d)),
            Err(MlError::BadStructure(_))
        ));
        assert!(matches!(
            g.register_asset(a, "op0", AssetKind::Operation, &[]),
            Err(MlError::BadStructure(_))
        ));
        // A model not produced by an operation is rejected.
        assert!(matches!(
            g.register_asset(a, "m0", AssetKind::Model, &[d]),
            Err(MlError::BadStructure(_))
        ));
    }

    #[test]
    fn duplicate_and_unknown_assets() {
        let (mut g, a, _) = setup();
        g.register_asset(a, "d", AssetKind::Dataset, &[]).unwrap();
        assert!(matches!(
            g.register_asset(a, "d", AssetKind::Dataset, &[]),
            Err(MlError::DuplicateAsset(_))
        ));
        assert!(matches!(
            g.register_asset(a, "op", AssetKind::Operation, &[AssetId("ghost".into())]),
            Err(MlError::UnknownAsset(_))
        ));
    }

    #[test]
    fn remuneration_splits_across_dataset_owners() {
        let (mut g, a, b) = setup();
        let d1 = g.register_asset(a, "d1", AssetKind::Dataset, &[]).unwrap();
        let d2 = g.register_asset(b, "d2", AssetKind::Dataset, &[]).unwrap();
        let d3 = g.register_asset(b, "d3", AssetKind::Dataset, &[]).unwrap();
        let op = g
            .register_asset(a, "train", AssetKind::Operation, &[d1, d2, d3])
            .unwrap();
        let model = g.register_asset(a, "m", AssetKind::Model, &[op]).unwrap();
        let shares = g.remuneration_shares(&model).unwrap();
        assert!((shares[&a] - 1.0 / 3.0).abs() < 1e-9);
        assert!((shares[&b] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn chained_models_inherit_upstream_datasets() {
        let (mut g, a, b) = setup();
        let d1 = g.register_asset(a, "d1", AssetKind::Dataset, &[]).unwrap();
        let op1 = g
            .register_asset(a, "op1", AssetKind::Operation, &[d1])
            .unwrap();
        let m1 = g.register_asset(a, "m1", AssetKind::Model, &[op1]).unwrap();
        // Fine-tune m1 on b's data.
        let d2 = g.register_asset(b, "d2", AssetKind::Dataset, &[]).unwrap();
        let op2 = g
            .register_asset(b, "op2", AssetKind::Operation, &[m1, d2])
            .unwrap();
        let m2 = g.register_asset(b, "m2", AssetKind::Model, &[op2]).unwrap();
        let ancestry = g.dataset_ancestry(&m2).unwrap();
        assert_eq!(ancestry.len(), 2, "both generations of data: {ancestry:?}");
    }

    #[test]
    fn assets_are_anchored_on_chain() {
        let (mut g, a, _) = setup();
        g.register_asset(a, "d", AssetKind::Dataset, &[]).unwrap();
        g.seal().unwrap();
        g.ledger().verify_chain().unwrap();
        assert_eq!(g.kind_of(&AssetId("d".into())), Some(AssetKind::Dataset));
    }
}
