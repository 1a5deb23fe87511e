//! Checkpoints: atomic, checksummed snapshots of the durable state.
//!
//! A snapshot freezes everything the WAL would otherwise have to
//! replay: the object store (classes + objects in OID order), every
//! named tree and list extent, the registered index specs, and the LSN
//! of the last mutation it covers. Recovery loads the newest valid
//! snapshot and replays only the WAL tail past its LSN.
//!
//! ## File format
//!
//! ```text
//! [magic "AQUASNAP"] [version: u32 LE] [crc: u32 LE] [payload]
//! ```
//!
//! `crc` is [`crc32`] over the payload, so a bit-flipped or truncated
//! snapshot is detected on read and reported as
//! [`StoreError::Corrupt`] — recovery then falls back to an older
//! snapshot or to a full-log replay.
//!
//! Since version 2 the payload ends with a **manifest** of per-extent
//! merkle columns (root + leaf hashes, see [`crate::merkle`]). The CRC
//! guards the *bytes*; the manifest guards the *content*: an
//! authenticated open recomputes every extent's leaves from the decoded
//! state and refuses to serve a snapshot whose rows diverge from what
//! the checkpoint committed — localized to the first divergent row.
//!
//! ## Atomicity
//!
//! [`write_snapshot`] writes to `snap-{lsn}.tmp`, fsyncs, then renames
//! to the final `snap-{lsn:020}.snap` name. A crash mid-checkpoint
//! leaves only a `.tmp` orphan, which readers never consider — a
//! half-written snapshot can never shadow a valid older one.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use aqua_algebra::{List, Tree};
use aqua_guard::failpoint;
use aqua_object::{ClassId, ObjectStore};

use crate::codec::{crc32, Dec, Enc, IndexSpec, WalRecord};
use crate::error::{Result, StoreError};
use crate::merkle::{self, MerkleTree, Root};

/// Failpoint checked before a snapshot file is written; arm it to
/// simulate a crash mid-checkpoint.
pub const SNAPSHOT_WRITE_PROBE: &str = "store.snapshot.write";

/// Failpoint that corrupts the merkle root recorded for the first
/// extent in a snapshot manifest (and the store root bound into WAL
/// frames — see `recovery`): the bytes still checksum clean, so only
/// root verification can catch it. Arm it to prove the detection path
/// fires.
pub const INTEGRITY_CORRUPT_PROBE: &str = "store.integrity.corrupt_root";

/// Leading magic of every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"AQUASNAP";

/// Current snapshot format version (2 = trailing merkle manifest).
pub const SNAP_VERSION: u32 = 2;

/// Extent kind tag in manifests and the store-root fold: tree.
pub const KIND_TREE: u8 = 0x01;
/// Extent kind tag in manifests and the store-root fold: list.
pub const KIND_LIST: u8 = 0x02;

/// One extent's committed merkle column in a snapshot manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentRootEntry {
    /// [`KIND_TREE`] or [`KIND_LIST`].
    pub kind: u8,
    /// The extent's name.
    pub name: String,
    /// Leaf hashes + folded root at checkpoint time.
    pub merkle: MerkleTree,
}

impl ExtentRootEntry {
    /// `"tree:doc"` / `"list:song"` — the spelling
    /// [`StoreError::IntegrityMismatch`] uses.
    pub fn label(&self) -> String {
        let kind = if self.kind == KIND_TREE {
            "tree"
        } else {
            "list"
        };
        format!("{kind}:{}", self.name)
    }
}

/// The per-extent merkle columns a snapshot commits to.
pub type SnapshotManifest = Vec<ExtentRootEntry>;

/// Compute the manifest for `state`: every tree then every list extent,
/// in name order — the same `(kind, name)` order the store root folds.
pub fn compute_manifest(state: &SnapshotState) -> SnapshotManifest {
    let mut out = Vec::with_capacity(state.trees.len() + state.lists.len());
    for (name, tree) in &state.trees {
        out.push(ExtentRootEntry {
            kind: KIND_TREE,
            name: name.clone(),
            merkle: MerkleTree::from_leaves(merkle::tree_leaves(&state.store, tree, None)),
        });
    }
    for (name, list) in &state.lists {
        out.push(ExtentRootEntry {
            kind: KIND_LIST,
            name: name.clone(),
            merkle: MerkleTree::from_leaves(merkle::list_leaves(&state.store, list, None)),
        });
    }
    out
}

/// Fold a manifest into the store root.
pub fn manifest_store_root(manifest: &SnapshotManifest) -> Root {
    merkle::store_root(
        manifest
            .iter()
            .map(|e| (e.kind, e.name.as_str(), e.merkle.root)),
    )
}

/// Verify `state` against the manifest a checkpoint committed to:
/// recompute every extent's leaf column and root and compare. On
/// divergence, the error names the extent and — via
/// [`merkle::first_divergence`] mapped through the interval numbering —
/// the first divergent subtree (trees) or position (lists).
pub fn verify_manifest(state: &SnapshotState, manifest: &SnapshotManifest) -> Result<()> {
    for entry in manifest {
        let recomputed = match entry.kind {
            KIND_TREE => match state.trees.get(&entry.name) {
                Some(t) => merkle::tree_leaves(&state.store, t, None),
                None => Vec::new(),
            },
            _ => match state.lists.get(&entry.name) {
                Some(l) => merkle::list_leaves(&state.store, l, None),
                None => Vec::new(),
            },
        };
        let recomputed_root = merkle::merkle_root(&recomputed);
        if recomputed_root == entry.merkle.root {
            continue;
        }
        let subtree = match merkle::first_divergence(&entry.merkle.leaves, &recomputed) {
            Some(row) if entry.kind == KIND_TREE => match state.trees.get(&entry.name) {
                Some(t) => {
                    let intervals = t.interval_numbering();
                    match t.iter_preorder().nth(row) {
                        Some(n) => {
                            let (pre, post) = intervals[n.index()];
                            format!("preorder {row} interval [{pre},{post}]")
                        }
                        None => format!("preorder {row} (past end of recovered tree)"),
                    }
                }
                None => "missing extent".to_string(),
            },
            Some(row) => format!("position {row}"),
            // Leaves agree but the committed root does not: the root
            // itself was tampered with.
            None => "root".to_string(),
        };
        return Err(StoreError::IntegrityMismatch {
            extent: entry.label(),
            subtree,
            expected: entry.merkle.root.to_hex(),
            actual: recomputed_root.to_hex(),
        });
    }
    Ok(())
}

/// The frozen durable state a snapshot carries.
#[derive(Debug, Clone, Default)]
pub struct SnapshotState {
    /// LSN of the last mutation covered (0 = pristine).
    pub lsn: u64,
    /// The object store: classes and objects.
    pub store: ObjectStore,
    /// Named tree extents.
    pub trees: BTreeMap<String, Tree>,
    /// Named list extents.
    pub lists: BTreeMap<String, List>,
    /// Registered index specs (rebuilt, never serialized).
    pub specs: Vec<IndexSpec>,
}

/// Snapshot file name for a checkpoint at `lsn`.
pub fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:020}.snap")
}

/// Parse a snapshot file name back to its LSN.
pub fn snapshot_lsn(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// All snapshots in `dir`, sorted ascending by LSN.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("read_dir", dir.display(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir.display(), e))?;
        if let Some(lsn) = entry.file_name().to_str().and_then(snapshot_lsn) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

fn encode_state(state: &SnapshotState, manifest: &SnapshotManifest) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(state.lsn);
    // Classes, in ClassId order.
    let n_classes = state.store.class_count() as u32;
    enc.u32(n_classes);
    for c in 0..n_classes {
        enc.class_def(state.store.class(ClassId(c)));
    }
    // Objects, in OID order — reinserting in this order reproduces OIDs
    // and extent order exactly.
    enc.u64(state.store.len() as u64);
    for obj in state.store.iter() {
        enc.u32(obj.class().0);
        enc.u32(obj.values().len() as u32);
        for v in obj.values() {
            enc.value(v);
        }
    }
    enc.u32(state.trees.len() as u32);
    for (name, tree) in &state.trees {
        enc.str(name);
        enc.tree(tree);
    }
    enc.u32(state.lists.len() as u32);
    for (name, list) in &state.lists {
        enc.str(name);
        enc.list(list);
    }
    enc.u32(state.specs.len() as u32);
    for spec in &state.specs {
        // Reuse the WAL encoding (tag 11) so there is one codec.
        WalRecord::RegisterIndex { spec: spec.clone() }.encode(&mut enc);
    }
    // Merkle manifest: the content roots this checkpoint commits to.
    enc.u32(manifest.len() as u32);
    for entry in manifest {
        enc.u8(entry.kind);
        enc.str(&entry.name);
        enc.bytes(&entry.merkle.root.0);
        enc.u32(entry.merkle.leaves.len() as u32);
        for leaf in &entry.merkle.leaves {
            enc.bytes(&leaf.0);
        }
    }
    enc.finish()
}

fn decode_state(payload: &[u8], path: &str) -> Result<(SnapshotState, SnapshotManifest)> {
    let mut dec = Dec::new(payload, path);
    let corrupt = |offset: usize, what: String| StoreError::Corrupt {
        path: path.to_owned(),
        offset: offset as u64,
        what,
    };
    let lsn = dec.u64()?;
    let mut store = ObjectStore::new();
    let n_classes = dec.u32()?;
    for _ in 0..n_classes {
        let def = dec.class_def()?;
        store
            .define_class(def)
            .map_err(|e| corrupt(dec.pos(), format!("class replay failed: {e}")))?;
    }
    let n_objects = dec.u64()?;
    for _ in 0..n_objects {
        let class = ClassId(dec.u32()?);
        let n = dec.u32()? as usize;
        if n > u16::MAX as usize {
            return Err(corrupt(dec.pos(), format!("object claims {n} values")));
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(dec.value()?);
        }
        store
            .insert(class, row)
            .map_err(|e| corrupt(dec.pos(), format!("object replay failed: {e}")))?;
    }
    let mut trees = BTreeMap::new();
    for _ in 0..dec.u32()? {
        let name = dec.str()?;
        trees.insert(name, dec.tree()?);
    }
    let mut lists = BTreeMap::new();
    for _ in 0..dec.u32()? {
        let name = dec.str()?;
        lists.insert(name, dec.list()?);
    }
    let mut specs = Vec::new();
    for _ in 0..dec.u32()? {
        match WalRecord::decode(&mut dec)? {
            WalRecord::RegisterIndex { spec } => specs.push(spec),
            other => {
                return Err(corrupt(
                    dec.pos(),
                    format!("expected index spec, got {other:?}"),
                ))
            }
        }
    }
    let n_extents = dec.u32()? as usize;
    if n_extents != trees.len() + lists.len() {
        return Err(corrupt(
            dec.pos(),
            format!(
                "manifest covers {n_extents} extents, state has {}",
                trees.len() + lists.len()
            ),
        ));
    }
    let mut manifest = Vec::with_capacity(n_extents);
    for _ in 0..n_extents {
        let kind = dec.u8()?;
        if kind != KIND_TREE && kind != KIND_LIST {
            return Err(corrupt(dec.pos(), format!("unknown extent kind {kind}")));
        }
        let name = dec.str()?;
        let root = Root(dec.bytes(32)?.try_into().unwrap());
        let n_leaves = dec.u32()? as usize;
        if n_leaves > (1 << 24) {
            return Err(corrupt(
                dec.pos(),
                format!("manifest claims {n_leaves} leaves"),
            ));
        }
        let mut leaves = Vec::with_capacity(n_leaves);
        for _ in 0..n_leaves {
            leaves.push(Root(dec.bytes(32)?.try_into().unwrap()));
        }
        manifest.push(ExtentRootEntry {
            kind,
            name,
            merkle: MerkleTree { leaves, root },
        });
    }
    if !dec.done() {
        return Err(corrupt(
            dec.pos(),
            "trailing bytes after snapshot state".into(),
        ));
    }
    Ok((
        SnapshotState {
            lsn,
            store,
            trees,
            lists,
            specs,
        },
        manifest,
    ))
}

/// Atomically write a checkpoint of `state` into `dir`; returns the
/// final snapshot path. Write-to-temp + fsync + rename: the final name
/// only ever points at complete, checksummed bytes.
pub fn write_snapshot(dir: &Path, state: &SnapshotState) -> Result<PathBuf> {
    failpoint::check(SNAPSHOT_WRITE_PROBE)?;
    std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir.display(), e))?;
    let mut manifest = compute_manifest(state);
    if failpoint::check(INTEGRITY_CORRUPT_PROBE).is_err() {
        // Tamper with the first committed root: the file still checksums
        // clean, so only root verification at open can catch this.
        if let Some(entry) = manifest.first_mut() {
            entry.merkle.root.0[0] ^= 0xff;
        }
    }
    let payload = encode_state(state, &manifest);
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join(format!("snap-{}.tmp", state.lsn));
    let final_path = dir.join(snapshot_file_name(state.lsn));
    let mut f =
        std::fs::File::create(&tmp).map_err(|e| StoreError::io("create", tmp.display(), e))?;
    f.write_all(&bytes)
        .map_err(|e| StoreError::io("write", tmp.display(), e))?;
    f.sync_data()
        .map_err(|e| StoreError::io("fsync", tmp.display(), e))?;
    drop(f);
    std::fs::rename(&tmp, &final_path)
        .map_err(|e| StoreError::io("rename", final_path.display(), e))?;
    Ok(final_path)
}

/// Read and verify a snapshot file (checksum + decode). Returns the
/// decoded state plus the merkle manifest the checkpoint committed to;
/// *content* verification against the manifest is the caller's choice
/// (see `DurableConfig::authenticate`).
pub fn read_snapshot(path: &Path) -> Result<(SnapshotState, SnapshotManifest)> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io("read", path.display(), e))?;
    let name = path.display().to_string();
    let corrupt = |offset: u64, what: &str| StoreError::Corrupt {
        path: name.clone(),
        offset,
        what: what.to_owned(),
    };
    if bytes.len() < 16 {
        return Err(corrupt(0, "snapshot shorter than its header"));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt(0, "bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(corrupt(8, "unsupported snapshot version"));
    }
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return Err(corrupt(12, "checksum mismatch"));
    }
    decode_state(payload, &name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_object::{AttrDef, AttrId, AttrType, ClassDef, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "aqua-snap-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_state() -> SnapshotState {
        let mut store = ObjectStore::new();
        store
            .define_class(
                ClassDef::new("N", vec![AttrDef::stored("label", AttrType::Str)]).unwrap(),
            )
            .unwrap();
        let a = store
            .insert_named("N", &[("label", Value::str("a"))])
            .unwrap();
        let b = store
            .insert_named("N", &[("label", Value::str("b"))])
            .unwrap();
        let mut trees = BTreeMap::new();
        let mut builder = aqua_algebra::TreeBuilder::new();
        let kid = builder.node(b, vec![]);
        let root = builder.node(a, vec![kid]);
        trees.insert("t".to_string(), builder.finish(root).unwrap());
        let mut lists = BTreeMap::new();
        lists.insert("l".to_string(), List::from_oids([a, b, a]));
        SnapshotState {
            lsn: 9,
            store,
            trees,
            lists,
            specs: vec![IndexSpec::Attr {
                class: ClassId(0),
                attr: AttrId(0),
            }],
        }
    }

    #[test]
    fn round_trip_reproduces_everything() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("rt");
        let state = sample_state();
        let path = write_snapshot(&dir, &state).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_file_name(9)
        );
        let (back, manifest) = read_snapshot(&path).unwrap();
        assert_eq!(back.lsn, 9);
        assert_eq!(back.store.len(), state.store.len());
        assert_eq!(
            back.store.attr(aqua_object::Oid(0), AttrId(0)),
            &Value::str("a")
        );
        assert_eq!(back.trees["t"], state.trees["t"], "arena-exact tree");
        assert_eq!(back.lists["l"], state.lists["l"]);
        assert_eq!(back.specs, state.specs);
        // The manifest round-trips and verifies against the decoded state.
        assert_eq!(manifest, compute_manifest(&state));
        verify_manifest(&back, &manifest).unwrap();
        // No .tmp orphan after a clean write.
        assert!(list_snapshots(&dir).unwrap().len() == 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_manifest_root_is_localized() {
        let state = sample_state();
        let mut manifest = compute_manifest(&state);
        assert_eq!(manifest.len(), 2, "one tree + one list extent");
        verify_manifest(&state, &manifest).unwrap();

        // Tamper with a single *leaf*: verification names the subtree.
        let mut leafy = manifest.clone();
        leafy[0].merkle.leaves[1].0[0] ^= 0xff;
        leafy[0].merkle.root = merkle::merkle_root(&leafy[0].merkle.leaves);
        let err = verify_manifest(&state, &leafy).unwrap_err();
        match err {
            StoreError::IntegrityMismatch {
                extent, subtree, ..
            } => {
                assert_eq!(extent, "tree:t");
                assert!(subtree.contains("preorder 1"), "{subtree}");
                assert!(subtree.contains("interval"), "{subtree}");
            }
            other => panic!("expected IntegrityMismatch, got {other:?}"),
        }

        // Tamper with only the *root*: leaves agree, so it's the root.
        manifest[1].merkle.root.0[5] ^= 0x10;
        let err = verify_manifest(&state, &manifest).unwrap_err();
        match err {
            StoreError::IntegrityMismatch {
                extent, subtree, ..
            } => {
                assert_eq!(extent, "list:l");
                assert_eq!(subtree, "root");
            }
            other => panic!("expected IntegrityMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_root_failpoint_writes_a_detectably_bad_snapshot() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("corrupt-root");
        let state = sample_state();
        let path = {
            let _fp = failpoint::scoped(INTEGRITY_CORRUPT_PROBE, "tamper");
            write_snapshot(&dir, &state).unwrap()
        };
        // The file checksums clean — the CRC can't see the tamper …
        let (back, manifest) = read_snapshot(&path).unwrap();
        // … but root verification can.
        let err = verify_manifest(&back, &manifest).unwrap_err();
        assert!(
            matches!(err, StoreError::IntegrityMismatch { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_corruption_is_detected() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("corrupt");
        let path = write_snapshot(&dir, &sample_state()).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Truncation at every offset.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(read_snapshot(&path), Err(StoreError::Corrupt { .. })),
                "truncation to {cut} bytes undetected"
            );
        }
        // A bit flip at every byte.
        for byte in 0..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x04;
            std::fs::write(&path, &flipped).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "bit flip at byte {byte} undetected"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_failpoint_leaves_no_partial_file() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("fp");
        let _fp = failpoint::scoped(SNAPSHOT_WRITE_PROBE, "power cut");
        let err = write_snapshot(&dir, &sample_state()).unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }));
        assert!(list_snapshots(&dir).unwrap().is_empty());
        drop(_fp);
        write_snapshot(&dir, &sample_state()).unwrap();
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
