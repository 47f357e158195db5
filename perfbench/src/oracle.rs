//! Answer checks. Every reply in a timed window is checked against the
//! generator's own history (cheap field scans); a seeded sample is then
//! re-read and compared field by field with a direct [`ChainView`] over the
//! node's data directory.

use blockprov_core::txkind;
use blockprov_ledger::ChainView;
use blockprov_provenance::ProvenanceRecord;
use blockprov_wire::{Codec, Reader};

use crate::client::{field_str, field_u64, Json};
use crate::gen::{History, Rng, TXS_PER_BLOCK};
use blockprov_bench::flood::artifact_name;

/// One read request, by what it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKey {
    Tip,
    Block(u64),
    /// Transaction `pos` of the block at a height.
    Tx(u64, u64),
    Prove(u64, u64),
    /// Artifact index `0..ARTIFACTS`.
    Provenance(u64),
}

impl ReadKey {
    pub fn path(&self, hist: &History) -> String {
        match *self {
            ReadKey::Tip => "/tip".into(),
            ReadKey::Block(h) => format!("/block/{h}"),
            ReadKey::Tx(h, p) => format!("/tx/{}", hist.tx_at(h, p).0.to_hex()),
            ReadKey::Prove(h, p) => format!("/prove/{}", hist.tx_at(h, p).0.to_hex()),
            ReadKey::Provenance(a) => format!("/provenance/{}", artifact_name(a)),
        }
    }

    /// Check a window reply against the generator. `confirmed` is the
    /// height the generator had seen committed when it sent the request.
    pub fn check(
        &self,
        hist: &History,
        confirmed: u64,
        status: u16,
        body: &str,
    ) -> Result<(), String> {
        if status != 200 {
            return Err(format!("status {status}: {body}"));
        }
        let ok = match *self {
            ReadKey::Tip => field_u64(body, "height").is_some_and(|h| {
                h >= confirmed
                    && h <= hist.height()
                    && field_str(body, "hash") == Some(&hist.hash_at(h).0.to_hex())
            }),
            ReadKey::Block(h) => {
                field_u64(body, "height") == Some(h)
                    && field_str(body, "hash") == Some(&hist.hash_at(h).0.to_hex())
            }
            ReadKey::Tx(h, p) => {
                field_u64(body, "block_height") == Some(h)
                    && field_u64(body, "position") == Some(p)
                    && field_str(body, "block") == Some(&hist.hash_at(h).0.to_hex())
            }
            ReadKey::Prove(h, p) => {
                body.contains("\"verified\":true")
                    && field_str(body, "tx_id") == Some(&hist.tx_at(h, p).0.to_hex())
                    && field_str(body, "block") == Some(&hist.hash_at(h).0.to_hex())
            }
            ReadKey::Provenance(a) => field_u64(body, "count") == Some(hist.artifact_count(a)),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{self:?}: reply disagrees with the generator: {body}"
            ))
        }
    }

    /// Compare a reply field by field with a direct view over the same
    /// data.
    pub fn check_direct(&self, hist: &History, view: &ChainView, body: &str) -> Result<(), String> {
        let j = Json::parse(body).ok_or_else(|| format!("{self:?}: unparsable reply {body}"))?;
        let mismatch = |what: &str| {
            Err(format!(
                "{self:?}: {what} differs from the direct view: {body}"
            ))
        };
        match *self {
            ReadKey::Tip => {
                if j.u64("height") != Some(view.height())
                    || j.str("hash") != Some(&view.tip().0.to_hex())
                {
                    return mismatch("tip");
                }
            }
            ReadKey::Block(h) => {
                let Some(block) = view.block_at(h) else {
                    return mismatch("presence");
                };
                let ids: Vec<String> = block.txs.iter().map(|tx| tx.id().0.to_hex()).collect();
                let got: Option<Vec<&str>> = j.arr("txs").map(|a| {
                    a.iter()
                        .filter_map(|v| {
                            if let Json::Str(s) = v {
                                Some(s.as_str())
                            } else {
                                None
                            }
                        })
                        .collect()
                });
                if j.u64("height") != Some(block.header.height)
                    || j.str("hash") != Some(&block.hash().0.to_hex())
                    || j.str("prev") != Some(&block.header.prev.0.to_hex())
                    || j.u64("timestamp_ms") != Some(block.header.timestamp_ms)
                    || j.str("proposer") != Some(&block.header.proposer.0.to_hex())
                    || j.str("tx_root") != Some(&block.header.tx_root.to_hex())
                    || j.u64("tx_count") != Some(block.txs.len() as u64)
                    || got != Some(ids.iter().map(String::as_str).collect())
                {
                    return mismatch("block");
                }
            }
            ReadKey::Tx(h, p) => {
                let id = hist.tx_at(h, p);
                let Some((block, pos)) = view.find_tx(&id) else {
                    return mismatch("presence");
                };
                let tx = &block.txs[pos as usize];
                let subject = (tx.kind == txkind::PROVENANCE)
                    .then(|| decode_record(&tx.payload).map(|r| r.subject))
                    .flatten();
                if j.str("id") != Some(&id.0.to_hex())
                    || j.str("author") != Some(&tx.author.0.to_hex())
                    || j.u64("nonce") != Some(tx.nonce)
                    || j.u64("timestamp_ms") != Some(tx.timestamp_ms)
                    || j.u64("kind") != Some(tx.kind as u64)
                    || j.u64("payload_len") != Some(tx.payload.len() as u64)
                    || j.str("block") != Some(&block.hash().0.to_hex())
                    || j.u64("block_height") != Some(block.header.height)
                    || j.u64("position") != Some(pos as u64)
                    || j.get("record").and_then(|r| r.str("subject")) != subject.as_deref()
                {
                    return mismatch("transaction");
                }
            }
            ReadKey::Prove(h, p) => {
                let id = hist.tx_at(h, p);
                let Some(proof) = view.prove_tx(&id) else {
                    return mismatch("presence");
                };
                let siblings: Vec<(String, bool)> = proof
                    .proof
                    .siblings
                    .iter()
                    .map(|s| (s.hash.to_hex(), s.sibling_on_left))
                    .collect();
                let got: Option<Vec<(String, bool)>> = j.arr("siblings").map(|a| {
                    a.iter()
                        .map(|s| {
                            (
                                s.str("hash").unwrap_or("").to_string(),
                                s.bool("left").unwrap_or(false),
                            )
                        })
                        .collect()
                });
                let header = j.get("header");
                if j.str("tx_id") != Some(&id.0.to_hex())
                    || j.str("block") != Some(&proof.block_hash.0.to_hex())
                    || j.u64("leaf_index") != Some(proof.proof.leaf_index)
                    || j.u64("leaf_count") != Some(proof.proof.leaf_count)
                    || header.and_then(|hd| hd.str("tx_root"))
                        != Some(&proof.header.tx_root.to_hex())
                    || header.and_then(|hd| hd.u64("height")) != Some(proof.header.height)
                    || got != Some(siblings)
                    || j.bool("verified") != Some(true)
                    || !proof.verify()
                {
                    return mismatch("proof");
                }
            }
            ReadKey::Provenance(a) => {
                let expected = view
                    .txs_by_kind(txkind::PROVENANCE)
                    .iter()
                    .filter_map(|id| view.get_tx(id))
                    .filter_map(|tx| decode_record(&tx.payload))
                    .filter(|r| r.subject == artifact_name(a))
                    .count() as u64;
                if j.u64("count") != Some(expected)
                    || j.arr("records").map(<[Json]>::len) != Some(expected as usize)
                {
                    return mismatch("record count");
                }
            }
        }
        Ok(())
    }
}

/// Decode the provenance record at the front of a payload, as the node
/// does.
pub fn decode_record(payload: &[u8]) -> Option<ProvenanceRecord> {
    ProvenanceRecord::decode(&mut Reader::new(payload)).ok()
}

/// A recency-skewed height in `1..=top`: half the draws fall in the most
/// recent `recent` blocks (the node's hot cache), half anywhere.
pub fn skewed_height(rng: &mut Rng, top: u64, recent: u64) -> u64 {
    if rng.unit() < 0.5 {
        top - rng.below(recent.min(top))
    } else {
        1 + rng.below(top)
    }
}

/// A seeded point-read sample over `1..=top`: `per_kind` each of block,
/// transaction and proof reads, then the tip.
pub fn point_sample(rng: &mut Rng, top: u64, recent: u64, per_kind: usize) -> Vec<ReadKey> {
    let mut keys = Vec::with_capacity(3 * per_kind + 1);
    for _ in 0..per_kind {
        keys.push(ReadKey::Block(skewed_height(rng, top, recent)));
        keys.push(ReadKey::Tx(
            skewed_height(rng, top, recent),
            rng.below(TXS_PER_BLOCK),
        ));
        keys.push(ReadKey::Prove(
            skewed_height(rng, top, recent),
            rng.below(TXS_PER_BLOCK),
        ));
    }
    keys.push(ReadKey::Tip);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> History {
        let mut h = History::genesis();
        h.extend(8, 4, 0);
        h
    }

    #[test]
    fn the_generator_check_accepts_a_true_reply_and_rejects_a_tampered_one() {
        let hist = history();
        let hash = hist.hash_at(5).0.to_hex();
        let good = format!(r#"{{"height":5,"hash":"{hash}","prev":"00"}}"#);
        assert!(ReadKey::Block(5).check(&hist, 0, 200, &good).is_ok());

        let forged = good.replace(&hash[..4], "ffff");
        assert!(ReadKey::Block(5).check(&hist, 0, 200, &forged).is_err());
        assert!(ReadKey::Block(5).check(&hist, 0, 404, &good).is_err());

        let count = hist.artifact_count(3);
        let reply = format!(r#"{{"artifact":"x","count":{count},"records":[]}}"#);
        assert!(ReadKey::Provenance(3).check(&hist, 0, 200, &reply).is_ok());
        let off_by_one = format!(r#"{{"artifact":"x","count":{},"records":[]}}"#, count + 1);
        assert!(ReadKey::Provenance(3)
            .check(&hist, 0, 200, &off_by_one)
            .is_err());

        let tip = format!(r#"{{"height":8,"hash":"{}"}}"#, hist.hash_at(8).0.to_hex());
        assert!(ReadKey::Tip.check(&hist, 8, 200, &tip).is_ok());
        // A tip below what the generator already saw committed is stale.
        let stale = format!(r#"{{"height":7,"hash":"{}"}}"#, hist.hash_at(7).0.to_hex());
        assert!(ReadKey::Tip.check(&hist, 8, 200, &stale).is_err());
    }

    #[test]
    fn the_direct_check_rejects_a_tampered_proof() {
        use blockprov_core::{LedgerConfig, ProvenanceLedger};
        use blockprov_ledger::Block;
        use blockprov_wire::decode_seq;

        let mut hist = History::genesis();
        let batches = hist.extend(6, 6, 0);
        let mut ledger = ProvenanceLedger::open(LedgerConfig::private_default());
        let blocks: Vec<Block> = decode_seq(&mut Reader::new(&batches[0].body)).expect("decodes");
        ledger.ingest_blocks(blocks).expect("ingests");
        let view = ledger.reader().view();

        let proof = view.prove_tx(&hist.tx_at(4, 2)).expect("proof");
        let sibling = &proof.proof.siblings[0];
        let body = format!(
            r#"{{"tx_id":"{}","block":"{}","header":{{"height":4,"tx_root":"{}"}},"leaf_index":{},"leaf_count":{},"siblings":[{}],"verified":true}}"#,
            proof.tx_id.0.to_hex(),
            proof.block_hash.0.to_hex(),
            proof.header.tx_root.to_hex(),
            proof.proof.leaf_index,
            proof.proof.leaf_count,
            proof
                .proof
                .siblings
                .iter()
                .map(|s| format!(
                    r#"{{"hash":"{}","left":{}}}"#,
                    s.hash.to_hex(),
                    s.sibling_on_left
                ))
                .collect::<Vec<_>>()
                .join(","),
        );
        let key = ReadKey::Prove(4, 2);
        assert!(
            key.check_direct(&hist, &view, &body).is_ok(),
            "true proof accepted"
        );
        let forged = body.replacen(&sibling.hash.to_hex(), &"0".repeat(64), 1);
        assert!(
            key.check_direct(&hist, &view, &forged).is_err(),
            "forged sibling rejected"
        );
        let unverified = body.replace("\"verified\":true", "\"verified\":false");
        assert!(key.check_direct(&hist, &view, &unverified).is_err());
    }
}
