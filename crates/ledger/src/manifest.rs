//! Tier-directory manifests: the commit protocol over [`blockprov_wire::manifest`].
//!
//! Each storage-tier directory (block segments, and in time any paged
//! index) may carry a `MANIFEST` file naming its live files with height
//! fences under a monotonically increasing epoch — the wire layout is
//! `blockprov_wire::manifest`. This module owns the *protocol*:
//!
//! * **Atomic replace.** A commit writes `MANIFEST.tmp`, flushes it, and
//!   renames it over `MANIFEST`. A crash before the rename leaves the
//!   previous epoch intact; the stray `.tmp` is removed on the next open.
//! * **Epoch succession.** Every commit carries `epoch + 1`. Readers never
//!   see a torn epoch — the file is replaced whole, never appended to.
//! * **Loud degradation.** A manifest that exists but does not decode is
//!   *corruption*, reported distinctly from "no manifest yet" so callers
//!   can warn and fall back to a full directory scan instead of silently
//!   trusting half a file list.
//! * **Garbage collection.** Files a manifest does not list are dead by
//!   definition — leftovers of a crash mid-compaction or mid-rollover —
//!   and are deleted on open. GC only ever runs under a *valid* manifest;
//!   the corrupt-manifest fallback must not delete anything it cannot
//!   prove dead.

use blockprov_wire::manifest::MANIFEST_FILE;
use blockprov_wire::Codec;
use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub use blockprov_wire::manifest::{Manifest, ManifestEntry, ManifestFileKind};

/// Path of a tier directory's manifest.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

fn manifest_tmp_path(dir: &Path) -> PathBuf {
    dir.join(format!("{MANIFEST_FILE}.tmp"))
}

/// What opening a tier directory's manifest found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestState {
    /// No manifest on disk (fresh directory, or one predating manifests).
    Absent,
    /// A manifest exists but does not decode — corruption. Carries the
    /// decode failure for the caller's loud fallback message.
    Corrupt(String),
    /// The live manifest.
    Loaded(Manifest),
}

/// Read a tier directory's manifest, removing any stray commit temp file
/// (a crash window between temp write and rename) first.
pub fn read_manifest(dir: &Path) -> io::Result<ManifestState> {
    let tmp = manifest_tmp_path(dir);
    if tmp.exists() {
        fs::remove_file(&tmp)?;
    }
    let path = manifest_path(dir);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ManifestState::Absent),
        Err(e) => return Err(e),
    };
    match Manifest::from_wire(&bytes) {
        Ok(m) => Ok(ManifestState::Loaded(m)),
        Err(e) => Ok(ManifestState::Corrupt(e.to_string())),
    }
}

/// Atomically commit `manifest` as the directory's new live-file list.
///
/// Temp + rename: after this returns, a reader sees either the previous
/// epoch or this one, never a mixture. The temp file is flushed before the
/// rename so the rename publishes complete bytes.
pub fn commit_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let tmp = manifest_tmp_path(dir);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&manifest.to_wire())?;
    file.flush()?;
    drop(file);
    fs::rename(&tmp, manifest_path(dir))
}

/// Delete files in `dir` that match `managed` but are not in `live`.
///
/// `managed` decides which file names this tier owns (e.g. `seg-*.blk`
/// plus their temps); anything else in the directory — the manifest
/// itself, other tiers' files — is never touched. Returns the deleted
/// names, for logging and tests.
pub fn gc_strays(
    dir: &Path,
    live: &HashSet<String>,
    managed: impl Fn(&str) -> bool,
) -> io::Result<Vec<String>> {
    let mut removed = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if managed(name) && !live.contains(name) {
            fs::remove_file(entry.path())?;
            removed.push(name.to_string());
        }
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_wire::manifest::ManifestEntry as WireEntry;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blockprov-manifest-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(epoch: u64) -> Manifest {
        Manifest {
            epoch,
            entries: vec![WireEntry {
                kind: ManifestFileKind::Segment,
                id: 0,
                first_height: 0,
                last_height: 10,
                len: 512,
                items: 11,
                sparse: Vec::new(),
            }],
        }
    }

    #[test]
    fn commit_then_read_round_trips() {
        let dir = temp_dir("roundtrip");
        assert_eq!(read_manifest(&dir).unwrap(), ManifestState::Absent);
        commit_manifest(&dir, &sample(1)).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap(),
            ManifestState::Loaded(sample(1))
        );
        commit_manifest(&dir, &sample(2)).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap(),
            ManifestState::Loaded(sample(2))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_temp_write_and_rename_keeps_previous_epoch() {
        let dir = temp_dir("tmpcrash");
        commit_manifest(&dir, &sample(1)).unwrap();
        // Simulate the crash window: the next commit's temp exists but the
        // rename never happened.
        fs::write(manifest_tmp_path(&dir), sample(2).to_wire()).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap(),
            ManifestState::Loaded(sample(1)),
            "unrenamed temp must not be visible"
        );
        assert!(!manifest_tmp_path(&dir).exists(), "stray temp removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_reports_corrupt_not_absent() {
        let dir = temp_dir("corrupt");
        fs::write(manifest_path(&dir), b"BPMFgarbage").unwrap();
        assert!(matches!(
            read_manifest(&dir).unwrap(),
            ManifestState::Corrupt(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_only_managed_strays() {
        let dir = temp_dir("gc");
        fs::write(dir.join("seg-00000.blk"), b"live").unwrap();
        fs::write(dir.join("seg-00001.blk"), b"stray").unwrap();
        fs::write(dir.join("seg-00001.blk.tmp"), b"stray-tmp").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep").unwrap();
        let live: HashSet<String> = ["seg-00000.blk".to_string()].into();
        let removed = gc_strays(&dir, &live, |n| {
            n.starts_with("seg-") && (n.ends_with(".blk") || n.ends_with(".tmp"))
        })
        .unwrap();
        assert_eq!(removed, vec!["seg-00001.blk", "seg-00001.blk.tmp"]);
        assert!(dir.join("seg-00000.blk").exists());
        assert!(dir.join("unrelated.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
