//! SynergyChain \[21\]: a three-tier multichain data-sharing architecture
//! with hierarchical access control.
//!
//! The paper (§5): *"To address the challenges of achieving unified
//! verification mechanisms for shared data and protecting the privacy of
//! sensitive data owners without permission control, SynergyChain
//! introduces a three-tier architecture … aggregates data in a multichain
//! system to facilitate data sharing among multiple institutions"* and
//! *"reduc\[es\] data query latency compared to sequentially requesting
//! multichain data."*
//!
//! Tiers here:
//!
//! 1. **data tier** — each institution's own provenance ledger;
//! 2. **aggregation tier** — a shared index chain holding `(keyword →
//!    (chain, record))` catalog entries, so a consumer resolves a query
//!    with one aggregation lookup instead of asking every institution;
//! 3. **access tier** — hierarchical (organization / department / dataset)
//!    grants: access to a node of the hierarchy implies access to its
//!    subtree.

use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use std::collections::BTreeMap;
use std::fmt;

/// A path in the sharing hierarchy, e.g. `org-a/radiology/ct-2026`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HierPath(pub String);

impl HierPath {
    /// Whether `self` is `other` or an ancestor of `other`.
    pub fn covers(&self, other: &HierPath) -> bool {
        other.0 == self.0 || other.0.starts_with(&format!("{}/", self.0))
    }
}

/// SynergyChain errors.
#[derive(Debug)]
pub enum SynergyError {
    /// Institution index out of range.
    UnknownInstitution(usize),
    /// Consumer lacks a grant covering the dataset's hierarchy path.
    AccessDenied {
        /// The requesting consumer.
        consumer: AccountId,
        /// The dataset path access was requested for.
        path: HierPath,
    },
    /// Ledger failure.
    Core(CoreError),
}

impl fmt::Display for SynergyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynergyError::UnknownInstitution(i) => write!(f, "unknown institution {i}"),
            SynergyError::AccessDenied { consumer, path } => {
                write!(f, "{consumer} has no grant covering {}", path.0)
            }
            SynergyError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for SynergyError {}

impl From<CoreError> for SynergyError {
    fn from(e: CoreError) -> Self {
        SynergyError::Core(e)
    }
}

#[derive(Debug, Clone)]
struct CatalogEntry {
    institution: usize,
    record: RecordId,
    path: HierPath,
}

/// Result of a catalog-backed query, with the latency comparison the
/// SynergyChain paper reports.
#[derive(Debug, Clone)]
pub struct SynergyQueryReport {
    /// Matching `(institution, record)` pairs.
    pub matches: Vec<(usize, RecordId)>,
    /// Chain accesses via the aggregation tier (1 + distinct data chains hit).
    pub aggregated_accesses: u64,
    /// Chain accesses a sequential multichain sweep would need (all chains).
    pub sequential_accesses: u64,
}

/// The three-tier network.
pub struct SynergyNetwork {
    institutions: Vec<ProvenanceLedger>,
    institution_agents: Vec<AccountId>,
    /// Aggregation tier: its own chain anchoring catalog entries.
    aggregation: ProvenanceLedger,
    aggregation_agent: AccountId,
    catalog: BTreeMap<String, Vec<CatalogEntry>>,
    /// Access tier: consumer → granted hierarchy subtrees.
    grants: BTreeMap<AccountId, Vec<HierPath>>,
}

impl SynergyNetwork {
    /// Create a network of `n` institutions plus the aggregation chain.
    pub fn new(n: usize) -> Self {
        let mut institutions = Vec::with_capacity(n);
        let mut institution_agents = Vec::with_capacity(n);
        for i in 0..n {
            let mut ledger = ProvenanceLedger::open(
                LedgerConfig::private_default().with_domain(Domain::Generic),
            );
            let agent = ledger
                .register_agent(&format!("institution-{i}"))
                .expect("register");
            institutions.push(ledger);
            institution_agents.push(agent);
        }
        let mut aggregation =
            ProvenanceLedger::open(LedgerConfig::consortium(4).with_domain(Domain::Generic));
        let aggregation_agent = aggregation.register_agent("aggregator").expect("register");
        Self {
            institutions,
            institution_agents,
            aggregation,
            aggregation_agent,
            catalog: BTreeMap::new(),
            grants: BTreeMap::new(),
        }
    }

    /// Number of institutions (data-tier chains).
    pub fn n_institutions(&self) -> usize {
        self.institutions.len()
    }

    /// Publish a dataset on an institution's chain and index it in the
    /// aggregation tier under `keyword` at hierarchy `path`.
    pub fn publish(
        &mut self,
        institution: usize,
        keyword: &str,
        path: &str,
        content: &[u8],
    ) -> Result<RecordId, SynergyError> {
        if institution >= self.institutions.len() {
            return Err(SynergyError::UnknownInstitution(institution));
        }
        let agent = self.institution_agents[institution];
        let ledger = &mut self.institutions[institution];
        let ts = ledger.advance_clock();
        let record = ProvenanceRecord::new(path, agent, Action::Create, ts, Domain::Generic)
            .with_field("keyword", keyword)
            .with_field("hier_path", path)
            .with_content(content);
        let rid = ledger.submit_record(record, content)?;
        ledger.seal_block()?;

        // Aggregation-tier catalog entry, anchored on the shared chain.
        let ats = self.aggregation.advance_clock();
        let entry = ProvenanceRecord::new(
            &format!("catalog:{keyword}"),
            self.aggregation_agent,
            Action::Custom("catalog".into()),
            ats,
            Domain::Generic,
        )
        .with_field("institution", &institution.to_string())
        .with_field("record", &rid.to_string())
        .with_field("hier_path", path);
        self.aggregation.submit_record(entry, &[])?;
        self.aggregation.seal_block()?;

        self.catalog
            .entry(keyword.to_string())
            .or_default()
            .push(CatalogEntry {
                institution,
                record: rid,
                path: HierPath(path.to_string()),
            });
        Ok(rid)
    }

    /// Access tier: grant a consumer a hierarchy subtree.
    pub fn grant(&mut self, consumer: AccountId, subtree: &str) {
        self.grants
            .entry(consumer)
            .or_default()
            .push(HierPath(subtree.to_string()));
    }

    /// Revoke all of a consumer's grants under a subtree.
    pub fn revoke(&mut self, consumer: &AccountId, subtree: &str) {
        let prefix = HierPath(subtree.to_string());
        if let Some(grants) = self.grants.get_mut(consumer) {
            grants.retain(|g| !prefix.covers(g));
        }
    }

    fn covered(&self, consumer: &AccountId, path: &HierPath) -> bool {
        self.grants
            .get(consumer)
            .is_some_and(|gs| gs.iter().any(|g| g.covers(path)))
    }

    /// Query by keyword through the aggregation tier, enforcing the
    /// hierarchical grants, and report the latency comparison.
    pub fn query(
        &self,
        consumer: AccountId,
        keyword: &str,
    ) -> Result<SynergyQueryReport, SynergyError> {
        let entries = self.catalog.get(keyword).map_or(&[][..], Vec::as_slice);
        let mut matches = Vec::new();
        let mut chains_hit = std::collections::BTreeSet::new();
        for entry in entries {
            if !self.covered(&consumer, &entry.path) {
                return Err(SynergyError::AccessDenied {
                    consumer,
                    path: entry.path.clone(),
                });
            }
            matches.push((entry.institution, entry.record));
            chains_hit.insert(entry.institution);
        }
        Ok(SynergyQueryReport {
            matches,
            aggregated_accesses: 1 + chains_hit.len() as u64,
            sequential_accesses: self.institutions.len() as u64,
        })
    }

    /// Fetch a shared record body from its institution chain (post-query).
    pub fn fetch(&self, institution: usize, record: &RecordId) -> Option<&ProvenanceRecord> {
        self.institutions.get(institution)?.record(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network() -> (SynergyNetwork, AccountId) {
        let mut net = SynergyNetwork::new(4);
        net.publish(0, "ct-scans", "org-0/radiology/ct", b"scan set A")
            .unwrap();
        net.publish(1, "ct-scans", "org-1/imaging/ct", b"scan set B")
            .unwrap();
        net.publish(2, "lab-results", "org-2/lab/blood", b"panel C")
            .unwrap();
        (net, AccountId::from_name("consumer"))
    }

    #[test]
    fn hierarchical_grants_cover_subtrees() {
        let root = HierPath("org-0".into());
        assert!(root.covers(&HierPath("org-0/radiology/ct".into())));
        assert!(root.covers(&HierPath("org-0".into())));
        assert!(
            !root.covers(&HierPath("org-01/x".into())),
            "prefix must be path-aligned"
        );
        assert!(!root.covers(&HierPath("org-1/a".into())));
    }

    #[test]
    fn aggregated_query_beats_sequential_sweep() {
        let (mut net, consumer) = network();
        net.grant(consumer, "org-0");
        net.grant(consumer, "org-1");
        let report = net.query(consumer, "ct-scans").unwrap();
        assert_eq!(report.matches.len(), 2);
        assert_eq!(report.aggregated_accesses, 3, "1 catalog + 2 data chains");
        assert_eq!(report.sequential_accesses, 4, "sweep asks every chain");
        assert!(report.aggregated_accesses < report.sequential_accesses);
    }

    #[test]
    fn access_control_denies_uncovered_paths() {
        let (mut net, consumer) = network();
        net.grant(consumer, "org-0"); // but not org-1
        assert!(matches!(
            net.query(consumer, "ct-scans"),
            Err(SynergyError::AccessDenied { .. })
        ));
        // Revocation removes access again.
        net.grant(consumer, "org-1");
        net.query(consumer, "ct-scans").unwrap();
        net.revoke(&consumer, "org-1");
        assert!(net.query(consumer, "ct-scans").is_err());
    }

    #[test]
    fn fetch_returns_shared_record() {
        let (mut net, consumer) = network();
        net.grant(consumer, "org-2");
        let report = net.query(consumer, "lab-results").unwrap();
        let (inst, rid) = report.matches[0];
        let record = net.fetch(inst, &rid).unwrap();
        assert_eq!(record.fields["keyword"], "lab-results");
    }

    #[test]
    fn unknown_keyword_is_empty_not_error() {
        let (net, consumer) = network();
        let report = net.query(consumer, "nonexistent").unwrap();
        assert!(report.matches.is_empty());
    }

    #[test]
    fn catalog_and_data_tiers_are_anchored() {
        let (net, _) = network();
        net.aggregation.verify_chain().unwrap();
        for inst in &net.institutions {
            inst.verify_chain().unwrap();
        }
        assert_eq!(
            net.aggregation.chain().height(),
            3,
            "one catalog block per publish"
        );
    }

    #[test]
    fn publish_to_unknown_institution_fails() {
        let (mut net, _) = network();
        assert!(matches!(
            net.publish(9, "k", "p", b""),
            Err(SynergyError::UnknownInstitution(9))
        ));
    }
}
