//! The Merkle-DAG: content identifiers, node encoding, and file assembly.
//!
//! Files are chunked (see [`crate::chunker`]) into [`DagNode::Raw`] leaves,
//! then grouped under [`DagNode::File`] branch nodes with a bounded fanout
//! until a single root remains — the same unixfs-style layout IPFS uses.
//! Directories map names to child CIDs. A [`Cid`] is the SHA-256 digest of
//! the node's canonical wire encoding under a domain-separation prefix, so
//! two logically identical nodes always share storage and any byte flip
//! changes the identifier (the availability + integrity argument of
//! Hasan \[33\] and HealthBlock \[1\]).

use blockprov_crypto::{sha256, Hash256};
use blockprov_wire::{Reader, WireError, Writer};
use std::fmt;

/// Content identifier: digest of the canonical node encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cid(pub Hash256);

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid:{}", self.0)
    }
}

/// A link from a branch node to a child, carrying the child's cumulative
/// payload size so readers can seek without fetching subtrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagLink {
    /// Child content identifier.
    pub cid: Cid,
    /// Total payload bytes reachable through this link.
    pub size: u64,
}

/// A named directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (unique within the directory).
    pub name: String,
    /// Child content identifier.
    pub cid: Cid,
    /// Total payload bytes reachable through this entry.
    pub size: u64,
}

/// A node of the Merkle-DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagNode {
    /// A leaf carrying raw file bytes (one chunk).
    Raw(Vec<u8>),
    /// An interior file node: ordered children whose payloads concatenate
    /// to the file contents.
    File {
        /// Ordered child links.
        links: Vec<DagLink>,
        /// Total payload size (sum of link sizes).
        total_size: u64,
    },
    /// A directory: entries sorted by name.
    Directory(Vec<DirEntry>),
}

const TAG_RAW: u8 = 0;
const TAG_FILE: u8 = 1;
const TAG_DIR: u8 = 2;
const CID_DOMAIN: &[u8] = b"blockprov-storage/cid/v1";

impl DagNode {
    /// Canonical wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            DagNode::Raw(bytes) => {
                w.put_u8(TAG_RAW);
                w.put_bytes(bytes);
            }
            DagNode::File { links, total_size } => {
                w.put_u8(TAG_FILE);
                w.put_u64(*total_size);
                w.put_varint(links.len() as u64);
                for l in links {
                    w.put_raw(l.cid.0.as_bytes());
                    w.put_u64(l.size);
                }
            }
            DagNode::Directory(entries) => {
                w.put_u8(TAG_DIR);
                w.put_varint(entries.len() as u64);
                for e in entries {
                    w.put_str(&e.name);
                    w.put_raw(e.cid.0.as_bytes());
                    w.put_u64(e.size);
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a canonical encoding. Rejects trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let node = match r.get_u8()? {
            TAG_RAW => DagNode::Raw(r.get_bytes()?),
            TAG_FILE => {
                let total_size = r.get_u64()?;
                let n = r.get_varint()? as usize;
                let mut links = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let cid = Cid(read_hash(&mut r)?);
                    let size = r.get_u64()?;
                    links.push(DagLink { cid, size });
                }
                DagNode::File { links, total_size }
            }
            TAG_DIR => {
                let n = r.get_varint()? as usize;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = r.get_string()?;
                    let cid = Cid(read_hash(&mut r)?);
                    let size = r.get_u64()?;
                    entries.push(DirEntry { name, cid, size });
                }
                DagNode::Directory(entries)
            }
            other => {
                return Err(WireError::UnknownDiscriminant {
                    type_name: "DagNode",
                    value: other as u64,
                })
            }
        };
        if !r.is_exhausted() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(node)
    }

    /// The node's content identifier.
    pub fn cid(&self) -> Cid {
        let mut material = Vec::with_capacity(CID_DOMAIN.len() + 64);
        material.extend_from_slice(CID_DOMAIN);
        material.extend_from_slice(&self.encode());
        Cid(sha256(&material))
    }

    /// Payload bytes reachable from this node (file bytes; directories sum
    /// their entries).
    pub fn payload_size(&self) -> u64 {
        match self {
            DagNode::Raw(b) => b.len() as u64,
            DagNode::File { total_size, .. } => *total_size,
            DagNode::Directory(entries) => entries.iter().map(|e| e.size).sum(),
        }
    }

    /// CIDs of all direct children.
    pub fn children(&self) -> Vec<Cid> {
        match self {
            DagNode::Raw(_) => Vec::new(),
            DagNode::File { links, .. } => links.iter().map(|l| l.cid).collect(),
            DagNode::Directory(entries) => entries.iter().map(|e| e.cid).collect(),
        }
    }
}

fn read_hash(r: &mut Reader<'_>) -> Result<Hash256, WireError> {
    let raw = r.get_raw(32)?;
    let mut h = [0u8; 32];
    h.copy_from_slice(raw);
    Ok(Hash256::from(h))
}

/// Anything DAG nodes can be written into: the local [`crate::BlockStore`]
/// and the replicated [`crate::Swarm`] both implement it, so file assembly
/// is written once.
pub trait NodeSink {
    /// Store `node`, returning its CID.
    fn put_node(&mut self, node: &DagNode) -> Cid;
    /// Fetch a node by CID.
    fn get_node(&self, cid: &Cid) -> Option<DagNode>;
}

/// Errors from DAG read paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A referenced node is not present in the sink.
    Missing(Cid),
    /// A node's declared sizes are inconsistent with its children.
    SizeMismatch(Cid),
    /// The root of a `cat` was a directory.
    NotAFile(Cid),
    /// Directory entry not found.
    NoSuchEntry(String),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Missing(c) => write!(f, "missing node {c}"),
            DagError::SizeMismatch(c) => write!(f, "size mismatch at {c}"),
            DagError::NotAFile(c) => write!(f, "{c} is a directory, not a file"),
            DagError::NoSuchEntry(n) => write!(f, "no directory entry named {n:?}"),
        }
    }
}

impl std::error::Error for DagError {}

/// Assemble `data` into a file DAG inside `sink`: chunk, store leaves,
/// then fold `fanout` links at a time into branch nodes. Returns the root
/// CID (a single `Raw` leaf for files that fit one chunk).
pub fn add_file<S: NodeSink>(
    sink: &mut S,
    data: &[u8],
    chunker: crate::Chunker,
    fanout: usize,
) -> Cid {
    let fanout = fanout.max(2);
    let chunks = chunker.split(data);
    if chunks.is_empty() {
        return sink.put_node(&DagNode::Raw(Vec::new()));
    }
    let mut level: Vec<DagLink> = chunks
        .iter()
        .map(|c| {
            let node = DagNode::Raw(c.to_vec());
            let cid = sink.put_node(&node);
            DagLink { cid, size: c.len() as u64 }
        })
        .collect();
    while level.len() > 1 {
        level = level
            .chunks(fanout)
            .map(|group| {
                let total: u64 = group.iter().map(|l| l.size).sum();
                let node = DagNode::File { links: group.to_vec(), total_size: total };
                DagLink { cid: sink.put_node(&node), size: total }
            })
            .collect();
    }
    level[0].cid
}

/// Build a directory node over `(name, root_cid)` pairs. Entries are
/// sorted by name for canonical encoding; sizes are read from the sink.
pub fn add_directory<S: NodeSink>(
    sink: &mut S,
    entries: &[(String, Cid)],
) -> Result<Cid, DagError> {
    let mut dir: Vec<DirEntry> = entries
        .iter()
        .map(|(name, cid)| {
            let node = sink.get_node(cid).ok_or(DagError::Missing(*cid))?;
            Ok(DirEntry { name: name.clone(), cid: *cid, size: node.payload_size() })
        })
        .collect::<Result<_, DagError>>()?;
    dir.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(sink.put_node(&DagNode::Directory(dir)))
}

/// Reassemble a file's bytes from its root CID (depth-first traversal).
pub fn cat<S: NodeSink>(sink: &S, root: &Cid) -> Result<Vec<u8>, DagError> {
    let mut out = Vec::new();
    let mut stack = vec![*root];
    // Depth-first with explicit stack; children pushed in reverse so the
    // leftmost child is popped first and bytes come out in order.
    while let Some(cid) = stack.pop() {
        let node = sink.get_node(&cid).ok_or(DagError::Missing(cid))?;
        match node {
            DagNode::Raw(bytes) => out.extend_from_slice(&bytes),
            DagNode::File { links, .. } => {
                for l in links.iter().rev() {
                    stack.push(l.cid);
                }
            }
            DagNode::Directory(_) => return Err(DagError::NotAFile(cid)),
        }
    }
    Ok(out)
}

/// Look up a name in a directory node.
pub fn resolve<S: NodeSink>(sink: &S, dir: &Cid, name: &str) -> Result<Cid, DagError> {
    match sink.get_node(dir).ok_or(DagError::Missing(*dir))? {
        DagNode::Directory(entries) => entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.cid)
            .ok_or_else(|| DagError::NoSuchEntry(name.to_string())),
        _ => Err(DagError::NoSuchEntry(name.to_string())),
    }
}

/// Verify the subtree under `root`: every declared link size must match the
/// child's actual payload, and every node must be present. Returns the
/// number of nodes visited.
pub fn verify_subtree<S: NodeSink>(sink: &S, root: &Cid) -> Result<usize, DagError> {
    let mut visited = 0usize;
    let mut stack = vec![*root];
    while let Some(cid) = stack.pop() {
        let node = sink.get_node(&cid).ok_or(DagError::Missing(cid))?;
        visited += 1;
        match &node {
            DagNode::Raw(_) => {}
            DagNode::File { links, total_size } => {
                let mut sum = 0u64;
                for l in links {
                    let child = sink.get_node(&l.cid).ok_or(DagError::Missing(l.cid))?;
                    if child.payload_size() != l.size {
                        return Err(DagError::SizeMismatch(cid));
                    }
                    sum += l.size;
                    stack.push(l.cid);
                }
                if sum != *total_size {
                    return Err(DagError::SizeMismatch(cid));
                }
            }
            DagNode::Directory(entries) => {
                for e in entries {
                    let child = sink.get_node(&e.cid).ok_or(DagError::Missing(e.cid))?;
                    if child.payload_size() != e.size {
                        return Err(DagError::SizeMismatch(cid));
                    }
                    stack.push(e.cid);
                }
            }
        }
    }
    Ok(visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockStore, Chunker};
    use blockprov_crypto::HmacDrbg;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut drbg = HmacDrbg::new(&seed.to_le_bytes());
        let mut out = vec![0u8; len];
        drbg.fill_bytes(&mut out);
        out
    }

    #[test]
    fn node_codec_round_trips() {
        let nodes = [
            DagNode::Raw(b"hello".to_vec()),
            DagNode::File {
                links: vec![DagLink { cid: Cid(sha256(b"a")), size: 5 }],
                total_size: 5,
            },
            DagNode::Directory(vec![DirEntry {
                name: "report.pdf".into(),
                cid: Cid(sha256(b"b")),
                size: 9,
            }]),
        ];
        for n in &nodes {
            let rt = DagNode::decode(&n.encode()).unwrap();
            assert_eq!(&rt, n);
            assert_eq!(rt.cid(), n.cid());
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_trailing() {
        assert!(DagNode::decode(&[9]).is_err());
        let mut enc = DagNode::Raw(b"x".to_vec()).encode();
        enc.push(0);
        assert!(DagNode::decode(&enc).is_err());
    }

    #[test]
    fn add_then_cat_round_trips() {
        let mut store = BlockStore::new();
        for len in [0usize, 1, 100, 4096, 50_000] {
            let data = sample(len, len as u64);
            let root = add_file(&mut store, &data, Chunker::Fixed(1024), 4);
            assert_eq!(cat(&store, &root).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn identical_content_same_cid_different_content_different_cid() {
        let mut store = BlockStore::new();
        let a = add_file(&mut store, b"same bytes", Chunker::Fixed(4), 4);
        let b = add_file(&mut store, b"same bytes", Chunker::Fixed(4), 4);
        let c = add_file(&mut store, b"same byteZ", Chunker::Fixed(4), 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn large_file_builds_multi_level_tree() {
        let mut store = BlockStore::new();
        let data = sample(64 * 1024, 7);
        let root = add_file(&mut store, &data, Chunker::Fixed(1024), 4);
        // 64 leaves, fanout 4 → 16 + 4 + 1 interior nodes: depth ≥ 3.
        let node = store.get_node(&root).unwrap();
        assert!(matches!(node, DagNode::File { .. }));
        assert_eq!(node.payload_size(), data.len() as u64);
        assert_eq!(verify_subtree(&store, &root).unwrap(), 64 + 16 + 4 + 1);
    }

    #[test]
    fn directory_resolution() {
        let mut store = BlockStore::new();
        let a = add_file(&mut store, b"alpha", Chunker::Fixed(16), 4);
        let b = add_file(&mut store, b"bravo!", Chunker::Fixed(16), 4);
        let dir =
            add_directory(&mut store, &[("b.txt".into(), b), ("a.txt".into(), a)]).unwrap();
        assert_eq!(resolve(&store, &dir, "a.txt").unwrap(), a);
        assert_eq!(resolve(&store, &dir, "b.txt").unwrap(), b);
        assert!(matches!(
            resolve(&store, &dir, "missing"),
            Err(DagError::NoSuchEntry(_))
        ));
        // Directory payload is the sum of entry sizes.
        assert_eq!(store.get_node(&dir).unwrap().payload_size(), 5 + 6);
        // Entry order does not affect the CID (canonical sort).
        let dir2 =
            add_directory(&mut store, &[("a.txt".into(), a), ("b.txt".into(), b)]).unwrap();
        assert_eq!(dir, dir2);
    }

    #[test]
    fn cat_on_directory_fails() {
        let mut store = BlockStore::new();
        let a = add_file(&mut store, b"alpha", Chunker::Fixed(16), 4);
        let dir = add_directory(&mut store, &[("a".into(), a)]).unwrap();
        assert!(matches!(cat(&store, &dir), Err(DagError::NotAFile(_))));
    }

    #[test]
    fn verify_detects_size_tamper() {
        let mut store = BlockStore::new();
        let data = sample(8_000, 9);
        let root = add_file(&mut store, &data, Chunker::Fixed(1024), 4);
        // Forge a branch that lies about a child's size.
        if let DagNode::File { mut links, total_size } = store.get_node(&root).unwrap() {
            links[0].size += 1;
            let forged = DagNode::File { links, total_size: total_size + 1 };
            let forged_cid = store.put_node(&forged);
            assert!(matches!(
                verify_subtree(&store, &forged_cid),
                Err(DagError::SizeMismatch(_))
            ));
        } else {
            panic!("expected branch root");
        }
    }

    #[test]
    fn missing_child_is_reported() {
        let mut store = BlockStore::new();
        let ghost = Cid(sha256(b"never stored"));
        let branch = DagNode::File {
            links: vec![DagLink { cid: ghost, size: 3 }],
            total_size: 3,
        };
        let root = store.put_node(&branch);
        assert_eq!(cat(&store, &root), Err(DagError::Missing(ghost)));
    }
}
