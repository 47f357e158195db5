//! Transactions: the unit of ledger append.

use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use blockprov_crypto::sig::{self, PublicKey, Signature};
use blockprov_wire::{Codec, Reader, WireError, Writer};
use std::fmt;

/// Stable identity of a transaction author.
///
/// Real deployments derive it from a verifying key ([`AccountId::from_public_key`]);
/// tests and workload generators may use name-derived ids
/// ([`AccountId::from_name`]) when signatures are disabled by policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(pub Hash256);

impl AccountId {
    /// Derive from a verifying key.
    pub fn from_public_key(pk: &PublicKey) -> Self {
        AccountId(pk.id())
    }

    /// Derive from a human-readable name (development / unsigned ledgers).
    pub fn from_name(name: &str) -> Self {
        AccountId(hash_parts("blockprov-account", &[name.as_bytes()]))
    }

    /// Privacy-preserving pseudonym: ProvChain \[47\] stores hashed user ids
    /// on the public chain so provenance entries cannot be linked to owners
    /// without the salt. This derives such a pseudonym.
    pub fn pseudonym(&self, epoch_salt: &Hash256) -> AccountId {
        AccountId(hash_parts(
            "blockprov-pseudonym",
            &[self.0.as_bytes(), epoch_salt.as_bytes()],
        ))
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct:{}", self.0.short())
    }
}

impl Codec for AccountId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AccountId(Hash256::decode(r)?))
    }
}

/// Identifier of a transaction: the digest of its unsigned canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub Hash256);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0.short())
    }
}

impl Codec for TxId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TxId(Hash256::decode(r)?))
    }
}

/// A verifying key plus a signature over the transaction's signing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureEnvelope {
    /// Key that produced the signature; must hash to the author account id.
    pub public_key: PublicKey,
    /// Hash-based signature over [`Transaction::signing_bytes`].
    pub signature: Signature,
}

impl Codec for SignatureEnvelope {
    fn encode(&self, w: &mut Writer) {
        self.public_key.encode(w);
        self.signature.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            public_key: PublicKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

/// A ledger transaction.
///
/// `kind` is an application-defined tag (provenance record, contract call,
/// cross-chain receipt, …); the ledger treats `payload` as opaque bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Author account.
    pub author: AccountId,
    /// Per-author sequence number, enforced on the canonical chain.
    pub nonce: u64,
    /// Client-side timestamp (milliseconds).
    pub timestamp_ms: u64,
    /// Application-defined type tag.
    pub kind: u16,
    /// Application payload (opaque to the ledger).
    pub payload: Vec<u8>,
    /// Optional signature (chain policy decides whether it is required).
    pub signature: Option<SignatureEnvelope>,
}

impl Transaction {
    /// Build an unsigned transaction.
    pub fn new(
        author: AccountId,
        nonce: u64,
        timestamp_ms: u64,
        kind: u16,
        payload: Vec<u8>,
    ) -> Self {
        Self {
            author,
            nonce,
            timestamp_ms,
            kind,
            payload,
            signature: None,
        }
    }

    /// The canonical bytes covered by signatures and the transaction id.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.payload.len());
        self.author.encode(&mut w);
        w.put_varint(self.nonce);
        w.put_u64(self.timestamp_ms);
        w.put_u16(self.kind);
        w.put_bytes(&self.payload);
        w.into_bytes()
    }

    /// Transaction id (hash of the unsigned canonical bytes).
    pub fn id(&self) -> TxId {
        TxId(sha256(&self.signing_bytes()))
    }

    /// Sign in place with `keypair`, replacing any existing signature.
    ///
    /// The author field must already equal the keypair's account id —
    /// signing does not overwrite it, it checks it.
    pub fn sign(
        &mut self,
        keypair: &mut blockprov_crypto::sig::Keypair,
    ) -> Result<(), blockprov_crypto::sig::SigningError> {
        debug_assert_eq!(
            self.author,
            AccountId::from_public_key(&keypair.public_key()),
            "author must match signing key"
        );
        let bytes = self.signing_bytes();
        let signature = keypair.sign(&bytes)?;
        self.signature = Some(SignatureEnvelope {
            public_key: keypair.public_key(),
            signature,
        });
        Ok(())
    }

    /// Verify the signature envelope, if present.
    ///
    /// Returns `true` when (a) the envelope key hashes to the author id and
    /// (b) the signature verifies over the signing bytes. An absent envelope
    /// returns `false`; use chain policy to decide whether that matters.
    pub fn verify_signature(&self) -> bool {
        let Some(env) = &self.signature else {
            return false;
        };
        if AccountId::from_public_key(&env.public_key) != self.author {
            return false;
        }
        sig::verify(&env.public_key, &self.signing_bytes(), &env.signature)
    }

    /// Encoded size in bytes (storage accounting).
    pub fn encoded_len(&self) -> usize {
        self.to_wire().len()
    }
}

impl Codec for Transaction {
    fn encode(&self, w: &mut Writer) {
        self.author.encode(w);
        w.put_varint(self.nonce);
        w.put_u64(self.timestamp_ms);
        w.put_u16(self.kind);
        w.put_bytes(&self.payload);
        self.signature.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            author: AccountId::decode(r)?,
            nonce: r.get_varint()?,
            timestamp_ms: r.get_u64()?,
            kind: r.get_u16()?,
            payload: r.get_bytes()?,
            signature: Option::<SignatureEnvelope>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sig::{Keypair, OtsScheme};

    fn tx() -> Transaction {
        Transaction::new(
            AccountId::from_name("alice"),
            0,
            1_700_000_000_000,
            7,
            b"payload".to_vec(),
        )
    }

    #[test]
    fn id_ignores_signature() {
        let unsigned = tx();
        let mut signed = tx();
        let mut kp = Keypair::from_name("alice-key", OtsScheme::Wots, 2);
        signed.author = AccountId::from_public_key(&kp.public_key());
        let before = signed.id();
        signed.sign(&mut kp).unwrap();
        assert_eq!(signed.id(), before);
        assert_ne!(
            unsigned.id(),
            signed.id(),
            "different author → different id"
        );
    }

    #[test]
    fn id_changes_with_every_field() {
        let base = tx();
        let mut variants = Vec::new();
        let mut t = base.clone();
        t.nonce = 1;
        variants.push(t);
        let mut t = base.clone();
        t.timestamp_ms += 1;
        variants.push(t);
        let mut t = base.clone();
        t.kind = 8;
        variants.push(t);
        let mut t = base.clone();
        t.payload = b"other".to_vec();
        variants.push(t);
        for v in variants {
            assert_ne!(v.id(), base.id());
        }
    }

    #[test]
    fn sign_and_verify() {
        let mut kp = Keypair::from_name("bob-key", OtsScheme::Wots, 2);
        let mut t = Transaction::new(
            AccountId::from_public_key(&kp.public_key()),
            0,
            1,
            1,
            b"signed".to_vec(),
        );
        assert!(!t.verify_signature(), "unsigned fails verification");
        t.sign(&mut kp).unwrap();
        assert!(t.verify_signature());
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let mut kp = Keypair::from_name("carol-key", OtsScheme::Wots, 2);
        let mut t = Transaction::new(
            AccountId::from_public_key(&kp.public_key()),
            0,
            1,
            1,
            b"original".to_vec(),
        );
        t.sign(&mut kp).unwrap();
        t.payload = b"tampered".to_vec();
        assert!(!t.verify_signature());
    }

    #[test]
    fn envelope_key_must_match_author() {
        let mut kp = Keypair::from_name("dave-key", OtsScheme::Wots, 2);
        let mut t = Transaction::new(
            AccountId::from_public_key(&kp.public_key()),
            0,
            1,
            1,
            b"x".to_vec(),
        );
        t.sign(&mut kp).unwrap();
        // Re-point the author at someone else: key/author mismatch.
        t.author = AccountId::from_name("mallory");
        assert!(!t.verify_signature());
    }

    #[test]
    fn codec_round_trip_signed_and_unsigned() {
        let t = tx();
        assert_eq!(Transaction::from_wire(&t.to_wire()).unwrap(), t);

        let mut kp = Keypair::from_name("erin-key", OtsScheme::Lamport, 2);
        let mut t = Transaction::new(
            AccountId::from_public_key(&kp.public_key()),
            3,
            9,
            2,
            vec![1, 2, 3],
        );
        t.sign(&mut kp).unwrap();
        let decoded = Transaction::from_wire(&t.to_wire()).unwrap();
        assert_eq!(decoded, t);
        assert!(decoded.verify_signature());
    }

    #[test]
    fn pseudonym_unlinkable_across_epochs() {
        let id = AccountId::from_name("alice");
        let e1 = blockprov_crypto::sha256::sha256(b"epoch-1");
        let e2 = blockprov_crypto::sha256::sha256(b"epoch-2");
        assert_ne!(id.pseudonym(&e1), id.pseudonym(&e2));
        assert_ne!(id.pseudonym(&e1), id);
        // Deterministic within an epoch.
        assert_eq!(id.pseudonym(&e1), id.pseudonym(&e1));
    }
}
