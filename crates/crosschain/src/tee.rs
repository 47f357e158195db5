//! TEE-attested cross-chain queries — the enhancement the survey proposes
//! for Vassago \[31\].
//!
//! The paper suggests "implementing a Trusted Execution Environment (TEE)
//! for query authenticity": a relying party that cannot re-run a cross-chain
//! provenance query should still be able to check that (a) the query ran
//! inside genuine hardware, (b) it ran the *expected query program*, and
//! (c) the result bytes are exactly what that program produced.
//!
//! Since no enclave hardware is available (see DESIGN.md §Substitutions),
//! this module simulates the attestation *trust chain*, which is the part
//! the protocol depends on:
//!
//! * a [`Vendor`] (hardware manufacturer root) signs **attestation
//!   certificates** binding an enclave's signing key to its code
//!   **measurement** (digest of the query program);
//! * an [`Enclave`] executes a registered query program and signs
//!   `(input, output, measurement)` with its attestation key;
//! * [`verify_attested`] checks the full chain: vendor signature over the
//!   certificate, measurement pinned by the verifier, enclave signature
//!   over the result.
//!
//! What the simulation preserves: every verification decision and failure
//! mode (wrong program, tampered output, forged certificate, replayed
//! result). What it cannot provide: actual isolation of the enclave from
//! its host — that is physics, not protocol.

use blockprov_crypto::sha256::{hash_parts, Hash256};
use blockprov_crypto::sig::{verify, Keypair, OtsScheme, PublicKey, SigningError};
use std::fmt;

/// A code measurement: digest of the query program's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub Hash256);

impl Measurement {
    /// Measure a program (name + version + semantic digest).
    pub fn of_program(name: &str, version: u32, logic_digest: &Hash256) -> Self {
        Measurement(hash_parts(
            "blockprov-tee-measurement",
            &[name.as_bytes(), &version.to_le_bytes(), logic_digest.as_bytes()],
        ))
    }
}

/// An attestation certificate: the vendor vouches that `enclave_pk` belongs
/// to an enclave running code with `measurement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationCert {
    /// The attested enclave signing key.
    pub enclave_pk: PublicKey,
    /// The attested code measurement.
    pub measurement: Measurement,
    /// Vendor signature over (enclave_pk, measurement).
    pub vendor_sig: blockprov_crypto::sig::Signature,
}

fn cert_signing_bytes(pk: &PublicKey, m: &Measurement) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.extend_from_slice(b"blockprov-tee-cert");
    out.extend_from_slice(pk.root.as_bytes());
    out.extend_from_slice(m.0.as_bytes());
    out
}

/// The hardware vendor's certification authority.
pub struct Vendor {
    keypair: Keypair,
}

impl fmt::Debug for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vendor").finish_non_exhaustive()
    }
}

impl Vendor {
    /// A vendor root derived from a seed.
    pub fn new(seed: &str) -> Self {
        Self::with_capacity(seed, 8)
    }

    /// A vendor root with an explicit certification capacity
    /// (`2^key_height` enclave certificates; keygen is linear in leaves).
    pub fn with_capacity(seed: &str, key_height: u32) -> Self {
        Self {
            keypair: Keypair::from_name(seed, OtsScheme::Wots, key_height),
        }
    }

    /// The vendor's root verification key (pinned by relying parties).
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public_key()
    }

    /// Certify an enclave: sign its key + measurement.
    pub fn certify(
        &mut self,
        enclave_pk: PublicKey,
        measurement: Measurement,
    ) -> Result<AttestationCert, SigningError> {
        let sig = self.keypair.sign(&cert_signing_bytes(&enclave_pk, &measurement))?;
        Ok(AttestationCert { enclave_pk, measurement, vendor_sig: sig })
    }
}

/// An attested result: what the enclave returns to the relying party.
#[derive(Debug, Clone)]
pub struct AttestedResult {
    /// Digest of the query input.
    pub input_digest: Hash256,
    /// The query output bytes.
    pub output: Vec<u8>,
    /// Measurement of the program that ran.
    pub measurement: Measurement,
    /// Enclave signature over (input_digest, output, measurement).
    pub enclave_sig: blockprov_crypto::sig::Signature,
    /// The attestation certificate chain.
    pub cert: AttestationCert,
}

fn result_signing_bytes(input_digest: &Hash256, output: &[u8], m: &Measurement) -> Vec<u8> {
    let mut out = Vec::with_capacity(96 + output.len());
    out.extend_from_slice(b"blockprov-tee-result");
    out.extend_from_slice(input_digest.as_bytes());
    out.extend_from_slice(&(output.len() as u64).to_le_bytes());
    out.extend_from_slice(output);
    out.extend_from_slice(m.0.as_bytes());
    out
}

/// The query program an enclave hosts (bytes in → bytes out).
pub type QueryProgram = Box<dyn Fn(&[u8]) -> Vec<u8> + Send>;

/// A simulated enclave hosting one query program.
pub struct Enclave {
    keypair: Keypair,
    measurement: Measurement,
    cert: AttestationCert,
    program: QueryProgram,
}

impl fmt::Debug for Enclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Enclave")
            .field("measurement", &self.measurement)
            .finish_non_exhaustive()
    }
}

impl Enclave {
    /// Launch an enclave with a query program and obtain its certificate
    /// from the vendor. `logic_digest` represents the program binary's
    /// digest; the closure is the program itself.
    pub fn launch(
        vendor: &mut Vendor,
        name: &str,
        version: u32,
        logic_digest: Hash256,
        program: QueryProgram,
    ) -> Result<Self, SigningError> {
        Self::launch_with_capacity(vendor, name, version, logic_digest, program, 8)
    }

    /// Like [`Enclave::launch`] with an explicit attestation capacity
    /// (`2^key_height` attested results before the enclave key runs out).
    pub fn launch_with_capacity(
        vendor: &mut Vendor,
        name: &str,
        version: u32,
        logic_digest: Hash256,
        program: QueryProgram,
        key_height: u32,
    ) -> Result<Self, SigningError> {
        let keypair = Keypair::from_name(
            &format!("enclave/{name}/{version}/{logic_digest}"),
            OtsScheme::Wots,
            key_height,
        );
        let measurement = Measurement::of_program(name, version, &logic_digest);
        let cert = vendor.certify(keypair.public_key(), measurement)?;
        Ok(Self { keypair, measurement, cert, program })
    }

    /// The enclave's measurement (what verifiers pin).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Execute the query program on `input` and sign the result.
    pub fn execute(&mut self, input: &[u8]) -> Result<AttestedResult, SigningError> {
        let output = (self.program)(input);
        let input_digest = hash_parts("blockprov-tee-input", &[input]);
        let sig = self
            .keypair
            .sign(&result_signing_bytes(&input_digest, &output, &self.measurement))?;
        Ok(AttestedResult {
            input_digest,
            output,
            measurement: self.measurement,
            enclave_sig: sig,
            cert: self.cert.clone(),
        })
    }
}

/// Why attestation verification failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestError {
    /// Certificate not signed by the pinned vendor.
    BadVendorSignature,
    /// Result's measurement differs from the verifier's pinned measurement.
    WrongMeasurement,
    /// Certificate's measurement differs from the result's.
    CertMismatch,
    /// Enclave signature over the result failed.
    BadEnclaveSignature,
    /// The result is for a different input than expected.
    InputMismatch,
}

impl fmt::Display for AttestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            AttestError::BadVendorSignature => "vendor signature invalid",
            AttestError::WrongMeasurement => "unexpected code measurement",
            AttestError::CertMismatch => "certificate/result measurement mismatch",
            AttestError::BadEnclaveSignature => "enclave signature invalid",
            AttestError::InputMismatch => "result is for a different input",
        };
        write!(f, "{msg}")
    }
}

impl std::error::Error for AttestError {}

/// Full relying-party verification of an attested query result.
pub fn verify_attested(
    vendor_pk: &PublicKey,
    pinned: Measurement,
    expected_input: &[u8],
    result: &AttestedResult,
) -> Result<(), AttestError> {
    // 1. Certificate chain: vendor vouches for (enclave_pk, measurement).
    let cert_bytes = cert_signing_bytes(&result.cert.enclave_pk, &result.cert.measurement);
    if !verify(vendor_pk, &cert_bytes, &result.cert.vendor_sig) {
        return Err(AttestError::BadVendorSignature);
    }
    // 2. Measurement pinning: the verifier demands a specific program.
    if result.measurement != pinned {
        return Err(AttestError::WrongMeasurement);
    }
    if result.cert.measurement != result.measurement {
        return Err(AttestError::CertMismatch);
    }
    // 3. Input binding (anti-replay across queries).
    let input_digest = hash_parts("blockprov-tee-input", &[expected_input]);
    if result.input_digest != input_digest {
        return Err(AttestError::InputMismatch);
    }
    // 4. The result itself.
    let bytes = result_signing_bytes(&result.input_digest, &result.output, &result.measurement);
    if !verify(&result.cert.enclave_pk, &bytes, &result.enclave_sig) {
        return Err(AttestError::BadEnclaveSignature);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sha256::sha256;

    fn trace_program() -> QueryProgram {
        // A stand-in query program: "trace" = reverse the asset id bytes.
        Box::new(|input: &[u8]| {
            let mut out = input.to_vec();
            out.reverse();
            out
        })
    }

    fn setup() -> (Vendor, Enclave, Measurement) {
        let mut vendor = Vendor::with_capacity("chipmaker-root", 4);
        let enclave = Enclave::launch_with_capacity(
            &mut vendor,
            "vassago-trace",
            1,
            sha256(b"trace-program-binary-v1"),
            trace_program(),
            4,
        )
        .unwrap();
        let m = enclave.measurement();
        (vendor, enclave, m)
    }

    #[test]
    fn honest_attested_query_verifies() {
        let (vendor, mut enclave, m) = setup();
        let result = enclave.execute(b"asset-42").unwrap();
        assert_eq!(result.output, b"24-tessa");
        assert!(verify_attested(&vendor.public_key(), m, b"asset-42", &result).is_ok());
    }

    #[test]
    fn tampered_output_rejected() {
        let (vendor, mut enclave, m) = setup();
        let mut result = enclave.execute(b"asset-42").unwrap();
        result.output[0] ^= 1;
        assert_eq!(
            verify_attested(&vendor.public_key(), m, b"asset-42", &result),
            Err(AttestError::BadEnclaveSignature)
        );
    }

    #[test]
    fn wrong_program_measurement_rejected() {
        let (mut vendor, _, _) = setup();
        // A different (perhaps malicious) program, certified honestly.
        let mut other = Enclave::launch_with_capacity(
            &mut vendor,
            "vassago-trace",
            2, // different version → different measurement
            sha256(b"trace-program-binary-v2"),
            trace_program(),
            4,
        )
        .unwrap();
        let result = other.execute(b"asset-42").unwrap();
        // The verifier pinned version 1's measurement.
        let pinned = Measurement::of_program(
            "vassago-trace",
            1,
            &sha256(b"trace-program-binary-v1"),
        );
        assert_eq!(
            verify_attested(&vendor.public_key(), pinned, b"asset-42", &result),
            Err(AttestError::WrongMeasurement)
        );
    }

    #[test]
    fn forged_certificate_rejected() {
        let (vendor, mut enclave, m) = setup();
        let mut rogue_vendor = Vendor::with_capacity("rogue-fab", 4);
        let mut result = enclave.execute(b"asset-42").unwrap();
        // Substitute a certificate from an unpinned vendor.
        result.cert = rogue_vendor.certify(result.cert.enclave_pk, m).unwrap();
        assert_eq!(
            verify_attested(&vendor.public_key(), m, b"asset-42", &result),
            Err(AttestError::BadVendorSignature)
        );
    }

    #[test]
    fn replay_to_other_input_rejected() {
        let (vendor, mut enclave, m) = setup();
        let result = enclave.execute(b"asset-42").unwrap();
        assert_eq!(
            verify_attested(&vendor.public_key(), m, b"asset-43", &result),
            Err(AttestError::InputMismatch)
        );
    }

    #[test]
    fn cert_and_result_measurement_must_agree() {
        let (mut vendor, mut enclave, m) = setup();
        let mut result = enclave.execute(b"asset-1").unwrap();
        // Certificate honestly signed for a *different* measurement.
        let other_m = Measurement::of_program("other", 9, &sha256(b"other"));
        result.cert = vendor.certify(result.cert.enclave_pk, other_m).unwrap();
        result.measurement = other_m; // attacker aligns the result field…
        assert_eq!(
            verify_attested(&vendor.public_key(), m, b"asset-1", &result),
            Err(AttestError::WrongMeasurement)
        );
        // …or aligns with the pinned measurement but not the cert.
        let mut result2 = enclave.execute(b"asset-2").unwrap();
        result2.cert = vendor.certify(result2.cert.enclave_pk, other_m).unwrap();
        assert_eq!(
            verify_attested(&vendor.public_key(), m, b"asset-2", &result2),
            Err(AttestError::CertMismatch)
        );
    }

    #[test]
    fn multiple_queries_from_one_enclave() {
        let (vendor, mut enclave, m) = setup();
        for i in 0..5u8 {
            let input = vec![i; 4];
            let result = enclave.execute(&input).unwrap();
            assert!(verify_attested(&vendor.public_key(), m, &input, &result).is_ok());
        }
    }
}
