//! IoTFC \[45\]: blockchain-based digital forensics for the Internet of
//! Things.
//!
//! The surveyed framework's strengths are "efficient data acquisition and
//! secure verification mechanisms" across fleets of IoT devices. This
//! module reproduces that acquisition pipeline:
//!
//! * devices are **enrolled** with hash-based signing keys; the registry
//!   pins each device's verification key (the IoT root of trust);
//! * a device **acquires** evidence by signing `(device, sequence,
//!   digest)` — the signature travels with the evidence so any party can
//!   verify origin and integrity offline;
//! * per-device evidence hash chains give each device an append-only
//!   timeline, and a case-level Merkle root summarizes an acquisition
//!   sweep across many devices for one on-chain anchor;
//! * forged evidence (wrong key), replayed sequence numbers, and
//!   post-acquisition tampering are all rejected.

use blockprov_crypto::merkle::MerkleTree;
use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use blockprov_crypto::sig::{verify, Keypair, OtsScheme, PublicKey, Signature};
use std::collections::BTreeMap;
use std::fmt;

/// An enrolled IoT device (simulation host side: holds the signing key).
pub struct IotDevice {
    /// Device identifier (e.g. "cam-lobby-3").
    pub id: String,
    keypair: Keypair,
    next_seq: u64,
}

impl fmt::Debug for IotDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IotDevice")
            .field("id", &self.id)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl IotDevice {
    /// Manufacture a device with a seeded identity key (2^10 signatures).
    pub fn new(id: &str) -> Self {
        Self::with_capacity(id, 10)
    }

    /// Manufacture a device whose identity key holds `2^key_height`
    /// signatures. MSS keygen is linear in the leaf count, so fleet
    /// simulations that capture a handful of evidence items per device
    /// should pass a small height.
    pub fn with_capacity(id: &str, key_height: u32) -> Self {
        Self {
            id: id.to_string(),
            keypair: Keypair::from_name(&format!("iot-device/{id}"), OtsScheme::Wots, key_height),
            next_seq: 0,
        }
    }

    /// The device's verification key (what the registry pins at enrollment).
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public_key()
    }

    /// Produce signed evidence for `data` (a sensor log, a frame, …).
    pub fn capture(&mut self, data: &[u8]) -> SignedEvidence {
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = sha256(data);
        let msg = evidence_signing_bytes(&self.id, seq, &digest);
        let signature = self.keypair.sign(&msg).expect("device key sized for fleet life");
        SignedEvidence { device: self.id.clone(), seq, digest, signature }
    }
}

fn evidence_signing_bytes(device: &str, seq: u64, digest: &Hash256) -> Vec<u8> {
    let mut out = Vec::with_capacity(device.len() + 48);
    out.extend_from_slice(b"blockprov-iotfc-evidence");
    out.extend_from_slice(device.as_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(digest.as_bytes());
    out
}

/// Evidence as it leaves a device.
#[derive(Debug, Clone)]
pub struct SignedEvidence {
    /// Producing device.
    pub device: String,
    /// Device-local sequence number (replay defence).
    pub seq: u64,
    /// Digest of the evidence bytes.
    pub digest: Hash256,
    /// Device signature over (device, seq, digest).
    pub signature: Signature,
}

/// An accepted evidence record in the framework.
#[derive(Debug, Clone)]
pub struct EvidenceRecord {
    /// Producing device.
    pub device: String,
    /// Device-local sequence number.
    pub seq: u64,
    /// Evidence digest.
    pub digest: Hash256,
    /// Per-device hash-chain value.
    pub chain: Hash256,
}

/// Acquisition failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IotError {
    /// Device not enrolled.
    UnknownDevice(String),
    /// Device id already enrolled.
    DuplicateDevice(String),
    /// The signature does not verify under the enrolled key.
    BadSignature,
    /// Sequence number reused or out of order (replay).
    Replay {
        /// Expected next sequence.
        expected: u64,
        /// Sequence presented.
        got: u64,
    },
    /// Evidence bytes do not match the signed digest.
    DigestMismatch,
}

impl fmt::Display for IotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IotError::UnknownDevice(d) => write!(f, "device {d:?} not enrolled"),
            IotError::DuplicateDevice(d) => write!(f, "device {d:?} already enrolled"),
            IotError::BadSignature => write!(f, "device signature invalid"),
            IotError::Replay { expected, got } => {
                write!(f, "sequence replay: expected {expected}, got {got}")
            }
            IotError::DigestMismatch => write!(f, "evidence bytes do not match signed digest"),
        }
    }
}

impl std::error::Error for IotError {}

struct DeviceTrack {
    key: PublicKey,
    next_seq: u64,
    records: Vec<EvidenceRecord>,
}

/// The IoTFC acquisition framework: enrolled devices, per-device evidence
/// chains, and case-level sweep roots.
#[derive(Default)]
pub struct IotForensics {
    devices: BTreeMap<String, DeviceTrack>,
}

impl fmt::Debug for IotForensics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IotForensics")
            .field("devices", &self.devices.len())
            .finish_non_exhaustive()
    }
}

impl IotForensics {
    /// An empty framework.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enroll a device by pinning its verification key.
    pub fn enroll(&mut self, device: &IotDevice) -> Result<(), IotError> {
        if self.devices.contains_key(&device.id) {
            return Err(IotError::DuplicateDevice(device.id.clone()));
        }
        self.devices.insert(
            device.id.clone(),
            DeviceTrack { key: device.public_key(), next_seq: 0, records: Vec::new() },
        );
        Ok(())
    }

    /// Acquire one piece of signed evidence, verifying origin, order and
    /// integrity before accepting it.
    pub fn acquire(
        &mut self,
        evidence: &SignedEvidence,
        data: &[u8],
    ) -> Result<&EvidenceRecord, IotError> {
        let track = self
            .devices
            .get_mut(&evidence.device)
            .ok_or_else(|| IotError::UnknownDevice(evidence.device.clone()))?;
        if sha256(data) != evidence.digest {
            return Err(IotError::DigestMismatch);
        }
        if evidence.seq != track.next_seq {
            return Err(IotError::Replay { expected: track.next_seq, got: evidence.seq });
        }
        let msg = evidence_signing_bytes(&evidence.device, evidence.seq, &evidence.digest);
        if !verify(&track.key, &msg, &evidence.signature) {
            return Err(IotError::BadSignature);
        }
        let prev = track.records.last().map(|r| r.chain).unwrap_or(Hash256::ZERO);
        let chain = hash_parts(
            "blockprov-iotfc-chain",
            &[prev.as_bytes(), evidence.digest.as_bytes(), &evidence.seq.to_le_bytes()],
        );
        track.next_seq += 1;
        track.records.push(EvidenceRecord {
            device: evidence.device.clone(),
            seq: evidence.seq,
            digest: evidence.digest,
            chain,
        });
        Ok(track.records.last().expect("just pushed"))
    }

    /// A device's evidence timeline.
    pub fn timeline(&self, device: &str) -> Result<&[EvidenceRecord], IotError> {
        self.devices
            .get(device)
            .map(|t| t.records.as_slice())
            .ok_or_else(|| IotError::UnknownDevice(device.to_string()))
    }

    /// Verify a device's evidence hash chain.
    pub fn verify_timeline(&self, device: &str) -> Result<bool, IotError> {
        let records = self.timeline(device)?;
        let mut prev = Hash256::ZERO;
        for r in records {
            let expect = hash_parts(
                "blockprov-iotfc-chain",
                &[prev.as_bytes(), r.digest.as_bytes(), &r.seq.to_le_bytes()],
            );
            if r.chain != expect {
                return Ok(false);
            }
            prev = r.chain;
        }
        Ok(true)
    }

    /// Case-level sweep root: one Merkle root over every accepted evidence
    /// digest across all devices — the single value a custody record
    /// anchors for the whole acquisition.
    pub fn sweep_root(&self) -> Hash256 {
        let leaves: Vec<Vec<u8>> = self
            .devices
            .values()
            .flat_map(|t| t.records.iter().map(|r| r.chain.0.to_vec()))
            .collect();
        MerkleTree::from_data(&leaves).root()
    }

    /// Total accepted evidence records.
    pub fn len(&self) -> usize {
        self.devices.values().map(|t| t.records.len()).sum()
    }

    /// Whether no evidence has been acquired.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framework_with_cam() -> (IotForensics, IotDevice) {
        let mut fw = IotForensics::new();
        let cam = IotDevice::with_capacity("cam-lobby-3", 4);
        fw.enroll(&cam).unwrap();
        (fw, cam)
    }

    #[test]
    fn honest_acquisition_round_trip() {
        let (mut fw, mut cam) = framework_with_cam();
        let frame = b"frame-000:motion detected";
        let ev = cam.capture(frame);
        let rec = fw.acquire(&ev, frame).unwrap();
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.digest, sha256(frame));
        assert!(fw.verify_timeline("cam-lobby-3").unwrap());
    }

    #[test]
    fn forged_evidence_rejected() {
        let (mut fw, _) = framework_with_cam();
        // A rogue device mimics the enrolled id but has its own key.
        let mut rogue = IotDevice::with_capacity("cam-lobby-3-clone", 4);
        let mut ev = rogue.capture(b"planted");
        ev.device = "cam-lobby-3".into();
        assert_eq!(fw.acquire(&ev, b"planted").unwrap_err(), IotError::BadSignature);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (mut fw, mut cam) = framework_with_cam();
        let ev = cam.capture(b"original bytes");
        assert_eq!(
            fw.acquire(&ev, b"tampered bytes").unwrap_err(),
            IotError::DigestMismatch
        );
    }

    #[test]
    fn replayed_sequence_rejected() {
        let (mut fw, mut cam) = framework_with_cam();
        let e0 = cam.capture(b"a");
        fw.acquire(&e0, b"a").unwrap();
        // Replaying the same signed evidence is an out-of-order sequence.
        assert_eq!(
            fw.acquire(&e0, b"a").unwrap_err(),
            IotError::Replay { expected: 1, got: 0 }
        );
    }

    #[test]
    fn unknown_and_duplicate_devices() {
        let (mut fw, cam) = framework_with_cam();
        assert_eq!(fw.enroll(&cam).unwrap_err(), IotError::DuplicateDevice("cam-lobby-3".into()));
        let mut ghost = IotDevice::with_capacity("never-enrolled", 4);
        let ev = ghost.capture(b"x");
        assert_eq!(
            fw.acquire(&ev, b"x").unwrap_err(),
            IotError::UnknownDevice("never-enrolled".into())
        );
    }

    #[test]
    fn multi_device_sweep_root_is_stable_and_tamper_sensitive() {
        let mut fw = IotForensics::new();
        let mut cam = IotDevice::with_capacity("cam-1", 4);
        let mut lock = IotDevice::with_capacity("door-lock-7", 4);
        fw.enroll(&cam).unwrap();
        fw.enroll(&lock).unwrap();
        for i in 0..3u8 {
            let e = cam.capture(&[i]);
            fw.acquire(&e, &[i]).unwrap();
        }
        let e = lock.capture(b"unlocked 02:13");
        fw.acquire(&e, b"unlocked 02:13").unwrap();
        assert_eq!(fw.len(), 4);
        let root = fw.sweep_root();
        // More evidence changes the sweep root.
        let e = lock.capture(b"locked 02:19");
        fw.acquire(&e, b"locked 02:19").unwrap();
        assert_ne!(fw.sweep_root(), root);
    }

    #[test]
    fn timeline_is_ordered_per_device() {
        let (mut fw, mut cam) = framework_with_cam();
        for i in 0..5u8 {
            let e = cam.capture(&[i]);
            fw.acquire(&e, &[i]).unwrap();
        }
        let tl = fw.timeline("cam-lobby-3").unwrap();
        let seqs: Vec<u64> = tl.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(fw.verify_timeline("cam-lobby-3").unwrap());
    }
}
