//! Provenance records and the Table 1 domain field schemas.

use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_ledger::tx::AccountId;
use blockprov_wire::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a provenance record (digest of its canonical encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub Hash256);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec:{}", self.0.short())
    }
}

impl Codec for RecordId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RecordId(Hash256::decode(r)?))
    }
}

/// What the agent did to the subject (the data-operation vocabulary shared
/// by ProvChain-style cloud auditing and the collaborative domains).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Entity came into existence.
    Create,
    /// Entity content was read.
    Read,
    /// Entity content changed.
    Update,
    /// Entity removed.
    Delete,
    /// Entity shared with another party.
    Share,
    /// Custody/ownership moved.
    Transfer,
    /// A task/process executed over the entity.
    Execute,
    /// Entity (and dependents) declared invalid.
    Invalidate,
    /// Domain-specific action.
    Custom(String),
}

impl Action {
    /// Stable label.
    pub fn label(&self) -> &str {
        match self {
            Action::Create => "create",
            Action::Read => "read",
            Action::Update => "update",
            Action::Delete => "delete",
            Action::Share => "share",
            Action::Transfer => "transfer",
            Action::Execute => "execute",
            Action::Invalidate => "invalidate",
            Action::Custom(s) => s,
        }
    }
}

impl Codec for Action {
    fn encode(&self, w: &mut Writer) {
        match self {
            Action::Create => w.put_u8(0),
            Action::Read => w.put_u8(1),
            Action::Update => w.put_u8(2),
            Action::Delete => w.put_u8(3),
            Action::Share => w.put_u8(4),
            Action::Transfer => w.put_u8(5),
            Action::Execute => w.put_u8(6),
            Action::Invalidate => w.put_u8(7),
            Action::Custom(s) => {
                w.put_u8(255);
                w.put_str(s);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => Action::Create,
            1 => Action::Read,
            2 => Action::Update,
            3 => Action::Delete,
            4 => Action::Share,
            5 => Action::Transfer,
            6 => Action::Execute,
            7 => Action::Invalidate,
            255 => Action::Custom(r.get_string()?),
            v => {
                return Err(WireError::UnknownDiscriminant {
                    type_name: "Action",
                    value: v as u64,
                })
            }
        })
    }
}

/// Application domain (the columns of Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Single-entity cloud storage auditing (RQ1).
    Cloud,
    /// Product supply chains.
    SupplyChain,
    /// Digital forensics.
    DigitalForensics,
    /// Scientific workflow collaboration.
    ScientificCollaboration,
    /// Healthcare / EHR systems.
    Healthcare,
    /// Machine-learning asset tracking.
    MachineLearning,
    /// Unconstrained.
    Generic,
}

impl Domain {
    /// All domains, in Table 1/2 order.
    pub const ALL: [Domain; 7] = [
        Domain::SupplyChain,
        Domain::DigitalForensics,
        Domain::ScientificCollaboration,
        Domain::Healthcare,
        Domain::MachineLearning,
        Domain::Cloud,
        Domain::Generic,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Cloud => "Cloud Storage",
            Domain::SupplyChain => "Product Supply Chain",
            Domain::DigitalForensics => "Digital Forensics",
            Domain::ScientificCollaboration => "Scientific Collaboration",
            Domain::Healthcare => "Healthcare Systems",
            Domain::MachineLearning => "Machine Learning",
            Domain::Generic => "Generic",
        }
    }

    /// The provenance record fields of **Table 1** for this domain.
    ///
    /// Exactly the rows of the paper's table for the three tabulated
    /// domains; the remaining domains list the fields their surveyed
    /// systems record (§4.3–§4.4, \[47\]).
    pub fn record_fields(&self) -> &'static [&'static str] {
        match self {
            Domain::SupplyChain => &[
                "unique_product_id",
                "batch_or_lot_number",
                "manufacturing_date",
                "expiration_date",
                "travel_trace",
                "product_type_or_category",
                "manufacturer_id",
                "quick_access_url_or_qr",
            ],
            Domain::DigitalForensics => &[
                "case_number",
                "investigation_stage",
                "case_start_date",
                "case_closure_date",
                "file_types",
                "access_patterns",
                "files_dependency",
            ],
            Domain::ScientificCollaboration => &[
                "task_id",
                "workflow_id",
                "execution_time",
                "user_id",
                "input_data",
                "output_data",
                "invalidated_results",
            ],
            Domain::Healthcare => &[
                "patient_id",
                "record_type",
                "consent_reference",
                "provider_id",
                "access_purpose",
            ],
            Domain::MachineLearning => &[
                "asset_kind",
                "dataset_ids",
                "operation",
                "model_version",
                "training_round",
            ],
            Domain::Cloud => &["file_id", "operation", "user_pseudonym", "content_digest"],
            Domain::Generic => &[],
        }
    }

    /// Fields that must be present for a record of this domain to validate.
    ///
    /// A pragmatic subset of [`Domain::record_fields`] — fields knowable at
    /// record-creation time (e.g. `case_closure_date` only exists at case
    /// end, so it is optional).
    pub fn required_fields(&self) -> &'static [&'static str] {
        match self {
            Domain::SupplyChain => &["unique_product_id", "manufacturer_id"],
            Domain::DigitalForensics => &["case_number", "investigation_stage"],
            Domain::ScientificCollaboration => &["task_id", "workflow_id"],
            Domain::Healthcare => &["patient_id", "record_type"],
            Domain::MachineLearning => &["asset_kind"],
            Domain::Cloud => &["file_id", "operation"],
            Domain::Generic => &[],
        }
    }
}

impl Codec for Domain {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Domain::Cloud => 0,
            Domain::SupplyChain => 1,
            Domain::DigitalForensics => 2,
            Domain::ScientificCollaboration => 3,
            Domain::Healthcare => 4,
            Domain::MachineLearning => 5,
            Domain::Generic => 6,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => Domain::Cloud,
            1 => Domain::SupplyChain,
            2 => Domain::DigitalForensics,
            3 => Domain::ScientificCollaboration,
            4 => Domain::Healthcare,
            5 => Domain::MachineLearning,
            6 => Domain::Generic,
            v => {
                return Err(WireError::UnknownDiscriminant {
                    type_name: "Domain",
                    value: v as u64,
                })
            }
        })
    }
}

/// The on-chain unit of provenance.
///
/// A record states: `agent` performed `action` on `subject` at
/// `timestamp_ms`, deriving from `parents`, with `fields` carrying the
/// domain schema of Table 1 and `content_hash` anchoring off-chain payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Stable name of the entity the record is about (file id, device id,
    /// case/evidence id, task id…).
    pub subject: String,
    /// Acting account (possibly a pseudonym — see `AccountId::pseudonym`).
    pub agent: AccountId,
    /// What happened.
    pub action: Action,
    /// When (milliseconds).
    pub timestamp_ms: u64,
    /// Which domain schema `fields` follows.
    pub domain: Domain,
    /// Table 1 fields (sorted map ⇒ canonical encoding).
    pub fields: BTreeMap<String, String>,
    /// Records this one derives from (DAG edges).
    pub parents: Vec<RecordId>,
    /// Digest of the off-chain content this record attests, if any.
    pub content_hash: Option<Hash256>,
}

impl ProvenanceRecord {
    /// Build a minimal record.
    pub fn new(
        subject: &str,
        agent: AccountId,
        action: Action,
        timestamp_ms: u64,
        domain: Domain,
    ) -> Self {
        Self {
            subject: subject.to_string(),
            agent,
            action,
            timestamp_ms,
            domain,
            fields: BTreeMap::new(),
            parents: Vec::new(),
            content_hash: None,
        }
    }

    /// Builder: set a Table 1 field.
    pub fn with_field(mut self, key: &str, value: &str) -> Self {
        self.fields.insert(key.to_string(), value.to_string());
        self
    }

    /// Builder: add a parent edge.
    pub fn with_parent(mut self, parent: RecordId) -> Self {
        self.parents.push(parent);
        self
    }

    /// Builder: anchor off-chain content.
    pub fn with_content(mut self, content: &[u8]) -> Self {
        self.content_hash = Some(sha256(content));
        self
    }

    /// The record id (digest of the canonical encoding).
    pub fn id(&self) -> RecordId {
        RecordId(sha256(&self.to_wire()))
    }

    /// Check the Table 1 schema: all required fields for the domain present.
    pub fn validate_schema(&self) -> Result<(), MissingField> {
        for field in self.domain.required_fields() {
            if !self.fields.contains_key(*field) {
                return Err(MissingField {
                    domain: self.domain,
                    field,
                });
            }
        }
        Ok(())
    }

    /// Encoded size in bytes (storage experiments).
    pub fn encoded_len(&self) -> usize {
        self.to_wire().len()
    }
}

/// Schema violation: a required Table 1 field is absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingField {
    /// The record's domain.
    pub domain: Domain,
    /// The missing field name.
    pub field: &'static str,
}

impl fmt::Display for MissingField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record missing required field `{}`",
            self.domain.name(),
            self.field
        )
    }
}

impl std::error::Error for MissingField {}

impl Codec for ProvenanceRecord {
    fn encode(&self, w: &mut Writer) {
        self.subject.encode(w);
        self.agent.encode(w);
        self.action.encode(w);
        w.put_u64(self.timestamp_ms);
        self.domain.encode(w);
        w.put_varint(self.fields.len() as u64);
        for (k, v) in &self.fields {
            w.put_str(k);
            w.put_str(v);
        }
        encode_seq(&self.parents, w);
        self.content_hash.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let subject = String::decode(r)?;
        let agent = AccountId::decode(r)?;
        let action = Action::decode(r)?;
        let timestamp_ms = r.get_u64()?;
        let domain = Domain::decode(r)?;
        let n = r.get_len()?;
        let mut fields = BTreeMap::new();
        for _ in 0..n {
            let k = r.get_string()?;
            let v = r.get_string()?;
            fields.insert(k, v);
        }
        let parents = decode_seq(r)?;
        let content_hash = Option::<Hash256>::decode(r)?;
        Ok(Self {
            subject,
            agent,
            action,
            timestamp_ms,
            domain,
            fields,
            parents,
            content_hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ProvenanceRecord {
        ProvenanceRecord::new(
            "report.pdf",
            AccountId::from_name("alice"),
            Action::Update,
            1_700_000_000_000,
            Domain::Cloud,
        )
        .with_field("file_id", "report.pdf")
        .with_field("operation", "update")
        .with_content(b"v2 contents")
    }

    #[test]
    fn id_is_content_addressed() {
        let a = record();
        let b = record();
        assert_eq!(a.id(), b.id());
        let c = record().with_field("extra", "x");
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn codec_round_trip() {
        let r = record().with_parent(RecordId(sha256(b"parent")));
        let decoded = ProvenanceRecord::from_wire(&r.to_wire()).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.id(), r.id());
    }

    #[test]
    fn schema_validation_per_domain() {
        assert!(record().validate_schema().is_ok());
        let bad = ProvenanceRecord::new(
            "dev-1",
            AccountId::from_name("factory"),
            Action::Create,
            1,
            Domain::SupplyChain,
        );
        let err = bad.validate_schema().unwrap_err();
        assert_eq!(err.field, "unique_product_id");
        let good = bad
            .with_field("unique_product_id", "dev-1")
            .with_field("manufacturer_id", "acme");
        assert!(good.validate_schema().is_ok());
    }

    #[test]
    fn table1_fields_match_paper_columns() {
        // Spot-check the exact Table 1 rows.
        let sc = Domain::SupplyChain.record_fields();
        assert!(sc.contains(&"unique_product_id"));
        assert!(sc.contains(&"travel_trace"));
        assert!(sc.contains(&"quick_access_url_or_qr"));
        let df = Domain::DigitalForensics.record_fields();
        assert!(df.contains(&"case_number"));
        assert!(df.contains(&"files_dependency"));
        let sci = Domain::ScientificCollaboration.record_fields();
        assert!(sci.contains(&"workflow_id"));
        assert!(sci.contains(&"invalidated_results"));
    }

    #[test]
    fn custom_action_round_trips() {
        let mut r = record();
        r.action = Action::Custom("anonymize".to_string());
        let decoded = ProvenanceRecord::from_wire(&r.to_wire()).unwrap();
        assert_eq!(decoded.action.label(), "anonymize");
    }

    #[test]
    fn generic_domain_has_no_requirements() {
        let r = ProvenanceRecord::new(
            "x",
            AccountId::from_name("u"),
            Action::Read,
            0,
            Domain::Generic,
        );
        assert!(r.validate_schema().is_ok());
    }
}
