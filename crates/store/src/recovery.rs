//! Durable extents: the write-ahead-logged store and its recovery path.
//!
//! [`DurableStore`] wraps the in-memory substrate (object store + named
//! tree/list extents + registered index specs) with durability:
//!
//! * every mutation is **validated, then logged, then applied** — the
//!   WAL never contains a record whose replay can fail, and the
//!   in-memory state never runs ahead of the log (which would skew the
//!   deterministic OID/[`NodeId`] assignment on replay);
//! * [`checkpoint`](DurableStore::checkpoint) freezes the state into an
//!   atomic, checksummed snapshot and prunes log segments the snapshot
//!   covers;
//! * [`open`](DurableStore::open) recovers: newest valid snapshot, then
//!   the WAL tail past its LSN, truncating a torn tail at the last
//!   checksum-valid frame and rebuilding every registered index.
//!
//! Recovery is **panic-free and typed**: torn or bit-flipped bytes
//! surface through [`StoreError`] and are *survived* (the valid prefix
//! wins), and what happened is reported as a first-class
//! [`RecoveryReport`] — frames replayed, bytes truncated, indices
//! rebuilt — which [`stamp`](RecoveryReport::stamp)s into the shared
//! metrics registry for observability.
//!
//! The LSN doubles as the store's **mutation epoch**: indices are
//! stamped with the epoch they were built at, and probes against a
//! mutated store fail fast with [`StoreError::StaleIndex`] instead of
//! answering from stale candidates. Because the LSN is durable, epochs
//! are deterministic across crash/recover cycles.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use aqua_algebra::{List, NodeId, Tree};
use aqua_guard::{failpoint, Metrics};
use aqua_object::{AttrId, ClassDef, ClassId, ObjectError, ObjectStore, Oid, Value};

use crate::attr_index::{AttrIndex, TreeNodeIndex};
use crate::codec::{IndexSpec, WalRecord};
use crate::error::{Result, StoreError, TxnError};
use crate::merkle::{self, Root};
use crate::positional::ListPosIndex;
use crate::snapshot::{
    list_snapshots, read_snapshot, verify_manifest, write_snapshot, SnapshotState,
    INTEGRITY_CORRUPT_PROBE, KIND_LIST, KIND_TREE,
};
use crate::structural::StructuralIndex;
use crate::wal::{list_segments, scan_segment, Wal, WalConfig, FRAME_HEADER};

/// Failpoint checked at the top of [`DurableStore::open`]; arm it to
/// simulate a store whose recovery itself fails.
pub const RECOVER_PROBE: &str = "store.recover";

/// Tuning for a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// WAL segment size before rolling to a new file.
    pub segment_bytes: u64,
    /// Checkpoint automatically every N mutations (0 = manual only).
    pub checkpoint_every: u64,
    /// Prune snapshots and WAL segments a new checkpoint covers.
    pub prune: bool,
    /// Authenticated extents: bind each WAL frame to the post-apply
    /// store root and verify every root (snapshot manifest + frame
    /// claims + a post-replay recompute) on open. Costs O(extent) per
    /// mutation; turn off only for throughput benchmarks that measure
    /// the raw WAL path.
    pub authenticate: bool,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            segment_bytes: 64 * 1024,
            checkpoint_every: 0,
            prune: true,
            authenticate: true,
        }
    }
}

/// What [`DurableStore::open`] found and did. All fields are evidence:
/// a clean shutdown reports zero truncation and zero skipped snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (`None` = full replay).
    pub snapshot_lsn: Option<u64>,
    /// Corrupt snapshots skipped while hunting for a valid one.
    pub snapshots_skipped: u32,
    /// WAL segments scanned.
    pub segments_scanned: u32,
    /// Frames re-applied on top of the snapshot.
    pub frames_replayed: u64,
    /// Torn/corrupt tail bytes discarded (truncated or dropped files).
    pub bytes_truncated: u64,
    /// Whole segments dropped because they followed a torn one.
    pub segments_dropped: u32,
    /// Indices rebuilt from the registered specs.
    pub indices_rebuilt: u32,
    /// The LSN the next mutation will be assigned.
    pub next_lsn: u64,
    /// Root-bound WAL frames whose claimed store root was verified
    /// (0 when `authenticate` is off or the log carried no claims).
    pub roots_verified: u64,
    /// Per-extent verification verdicts: `(extent label, root hex)` for
    /// every extent whose recomputed root matched what was committed.
    /// Empty when `authenticate` is off. A mismatch never appears here —
    /// it fails `open` with [`StoreError::IntegrityMismatch`] instead.
    pub extent_roots: Vec<(String, String)>,
}

impl RecoveryReport {
    /// Whether recovery found no damage at all.
    pub fn clean(&self) -> bool {
        self.snapshots_skipped == 0 && self.bytes_truncated == 0 && self.segments_dropped == 0
    }

    /// Bump the durability counters in `m` with this report's facts.
    pub fn stamp(&self, m: &Metrics) {
        m.recoveries.inc();
        m.recovery_frames_replayed.add(self.frames_replayed);
        m.recovery_bytes_truncated.add(self.bytes_truncated);
        m.recovery_indices_rebuilt.add(self.indices_rebuilt as u64);
        m.integrity_roots_verified.add(self.roots_verified);
    }

    /// Single-line JSON for CI artifacts.
    pub fn to_json(&self) -> String {
        let mut roots = String::from("{");
        for (i, (label, hex)) in self.extent_roots.iter().enumerate() {
            if i > 0 {
                roots.push(',');
            }
            roots.push_str(&format!("\"{label}\":\"{hex}\""));
        }
        roots.push('}');
        format!(
            "{{\"snapshot_lsn\":{},\"snapshots_skipped\":{},\"segments_scanned\":{},\
             \"frames_replayed\":{},\"bytes_truncated\":{},\"segments_dropped\":{},\
             \"indices_rebuilt\":{},\"next_lsn\":{},\"roots_verified\":{},\
             \"extent_roots\":{}}}",
            match self.snapshot_lsn {
                Some(l) => l.to_string(),
                None => "null".to_string(),
            },
            self.snapshots_skipped,
            self.segments_scanned,
            self.frames_replayed,
            self.bytes_truncated,
            self.segments_dropped,
            self.indices_rebuilt,
            self.next_lsn,
            self.roots_verified,
            roots,
        )
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered to lsn {} ({}, {} frames replayed, {} indices rebuilt",
            self.next_lsn.saturating_sub(1),
            match self.snapshot_lsn {
                Some(l) => format!("lsn {l} from snapshot"),
                None => "no snapshot".to_string(),
            },
            self.frames_replayed,
            self.indices_rebuilt,
        )?;
        if !self.extent_roots.is_empty() || self.roots_verified > 0 {
            write!(
                f,
                ", {} frame roots + {} extents verified",
                self.roots_verified,
                self.extent_roots.len()
            )?;
        }
        if self.clean() {
            write!(f, ", clean)")
        } else {
            write!(
                f,
                "; {} bytes truncated, {} segments dropped, {} snapshots skipped)",
                self.bytes_truncated, self.segments_dropped, self.snapshots_skipped
            )
        }
    }
}

/// The access methods rebuilt from the registered [`IndexSpec`]s, all
/// stamped with the epoch they were built at.
#[derive(Debug, Default)]
pub struct RebuiltIndexes {
    attr: Vec<(ClassId, AttrId, AttrIndex)>,
    tree: Vec<(String, TreeNodeIndex)>,
    list: Vec<(String, ListPosIndex)>,
    structural: Vec<(String, StructuralIndex)>,
}

impl RebuiltIndexes {
    fn build(state: &SnapshotState, epoch: u64) -> Result<RebuiltIndexes> {
        let mut ix = RebuiltIndexes::default();
        for spec in &state.specs {
            match spec {
                IndexSpec::Attr { class, attr } => {
                    let idx = AttrIndex::try_build(&state.store, *class, *attr)?.with_epoch(epoch);
                    ix.attr.push((*class, *attr, idx));
                }
                IndexSpec::TreeNode { tree, class, attr } => {
                    let t = get_tree(state, tree)?;
                    let idx =
                        TreeNodeIndex::try_build(&state.store, t, *class, *attr)?.with_epoch(epoch);
                    ix.tree.push((tree.clone(), idx));
                }
                IndexSpec::ListPos { list, class, attr } => {
                    let l = get_list(state, list)?;
                    let idx =
                        ListPosIndex::try_build(&state.store, l, *class, *attr)?.with_epoch(epoch);
                    ix.list.push((list.clone(), idx));
                }
                IndexSpec::Structural { tree } => {
                    let t = get_tree(state, tree)?;
                    ix.structural.push((
                        tree.clone(),
                        StructuralIndex::build(t)
                            .with_epoch(epoch)
                            .with_root(merkle::tree_root(&state.store, t)),
                    ));
                }
            }
        }
        Ok(ix)
    }

    /// Total indices held.
    pub fn len(&self) -> usize {
        self.attr.len() + self.tree.len() + self.list.len() + self.structural.len()
    }

    /// Whether no index is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The [`AttrIndex`] over `(class, attr)`, if registered.
    pub fn attr_index(&self, class: ClassId, attr: AttrId) -> Option<&AttrIndex> {
        self.attr
            .iter()
            .find(|(c, a, _)| *c == class && *a == attr)
            .map(|(_, _, i)| i)
    }

    /// The first [`TreeNodeIndex`] over the named tree, if registered.
    pub fn tree_index(&self, tree: &str) -> Option<&TreeNodeIndex> {
        self.tree.iter().find(|(n, _)| n == tree).map(|(_, i)| i)
    }

    /// The first [`ListPosIndex`] over the named list, if registered.
    pub fn list_index(&self, list: &str) -> Option<&ListPosIndex> {
        self.list.iter().find(|(n, _)| n == list).map(|(_, i)| i)
    }

    /// The [`StructuralIndex`] over the named tree, if registered.
    pub fn structural_index(&self, tree: &str) -> Option<&StructuralIndex> {
        self.structural
            .iter()
            .find(|(n, _)| n == tree)
            .map(|(_, i)| i)
    }
}

/// Apply one record to `state`. Shared by the live mutation path (after
/// validation, so it cannot fail there) and by replay (where a failure
/// is wrapped as [`StoreError::Replay`] — it means the log and the code
/// disagree, not that the disk lied; checksums vouch for the bytes).
fn apply(state: &mut SnapshotState, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::DefineClass { def } => {
            state.store.define_class(def.clone())?;
        }
        WalRecord::Insert { class, row } => {
            if class.0 as usize >= state.store.class_count() {
                return Err(StoreError::OutOfBounds {
                    what: "class id",
                    index: class.0 as usize,
                    len: state.store.class_count(),
                });
            }
            state.store.insert(*class, row.clone())?;
        }
        WalRecord::Update { oid, attr, value } => {
            let class = state.store.get(*oid)?.class();
            let arity = state.store.class(class).arity();
            if attr.index() >= arity {
                return Err(StoreError::OutOfBounds {
                    what: "attribute id",
                    index: attr.index(),
                    len: arity,
                });
            }
            state.store.update(*oid, *attr, value.clone())?;
        }
        WalRecord::TreeCreate { name, tree } => {
            state.trees.insert(name.clone(), tree.clone());
        }
        WalRecord::TreeInsertChild {
            name,
            parent,
            index,
            child,
        } => {
            let t = get_tree(state, name)?;
            let nt = t.insert_child(NodeId(*parent), *index as usize, child)?;
            state.trees.insert(name.clone(), nt);
        }
        WalRecord::TreeRemoveSubtree { name, at } => {
            let t = get_tree(state, name)?;
            let nt = t.remove_subtree(NodeId(*at))?;
            state.trees.insert(name.clone(), nt);
        }
        WalRecord::TreeSetOid { name, at, oid } => {
            let t = get_tree(state, name)?;
            let nt = t.set_oid(NodeId(*at), *oid)?;
            state.trees.insert(name.clone(), nt);
        }
        WalRecord::ListCreate { name } => {
            state.lists.insert(name.clone(), List::new());
        }
        WalRecord::ListPush { name, oid } => {
            get_list_mut(state, name)?.push(*oid);
        }
        WalRecord::ListPushHole { name, label } => {
            get_list_mut(state, name)?.push_hole(label.as_str());
        }
        WalRecord::ListRemove { name, index } => {
            let l = get_list_mut(state, name)?;
            let len = l.len();
            l.remove(*index as usize).ok_or(StoreError::OutOfBounds {
                what: "list position",
                index: *index as usize,
                len,
            })?;
        }
        WalRecord::RegisterIndex { spec } => {
            if !state.specs.contains(spec) {
                state.specs.push(spec.clone());
            }
        }
        WalRecord::TreeDrop { name } => {
            get_tree(state, name)?;
            state.trees.remove(name);
            state.specs.retain(|s| !spec_names_tree(s, name));
        }
        WalRecord::ListDrop { name } => {
            get_list_mut(state, name)?;
            state.lists.remove(name);
            state.specs.retain(|s| !spec_names_list(s, name));
        }
        WalRecord::TxnPrepare { .. } | WalRecord::TxnCommit { .. } | WalRecord::TxnAbort { .. } => {
            return Err(txn_record_misrouted())
        }
        WalRecord::RebalanceBegin { .. }
        | WalRecord::RebalanceMoved { .. }
        | WalRecord::RebalanceCommit { .. } => return Err(rebalance_record_misrouted()),
    }
    Ok(())
}

/// Whether a registered spec is scoped to the named tree (and so must
/// leave the registry with it on [`WalRecord::TreeDrop`]).
fn spec_names_tree(spec: &IndexSpec, name: &str) -> bool {
    matches!(spec,
        IndexSpec::TreeNode { tree, .. } | IndexSpec::Structural { tree } if tree == name)
}

/// The list-scoped counterpart of [`spec_names_tree`].
fn spec_names_list(spec: &IndexSpec, name: &str) -> bool {
    matches!(spec, IndexSpec::ListPos { list, .. } if list == name)
}

fn get_tree<'s>(state: &'s SnapshotState, name: &str) -> Result<&'s Tree> {
    state
        .trees
        .get(name)
        .ok_or_else(|| StoreError::NoSuchExtent {
            kind: "tree",
            name: name.to_owned(),
        })
}

fn get_list<'s>(state: &'s SnapshotState, name: &str) -> Result<&'s List> {
    state
        .lists
        .get(name)
        .ok_or_else(|| StoreError::NoSuchExtent {
            kind: "list",
            name: name.to_owned(),
        })
}

fn get_list_mut<'s>(state: &'s mut SnapshotState, name: &str) -> Result<&'s mut List> {
    state
        .lists
        .get_mut(name)
        .ok_or_else(|| StoreError::NoSuchExtent {
            kind: "list",
            name: name.to_owned(),
        })
}

/// Pre-append validation: everything [`apply`] could object to is
/// checked here first, so a record never reaches the WAL unless its
/// replay will succeed.
fn check(state: &SnapshotState, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::DefineClass { def } => {
            if state.store.class_id(def.name()).is_ok() {
                return Err(ObjectError::DuplicateClass {
                    class: def.name().to_owned(),
                }
                .into());
            }
        }
        WalRecord::Insert { class, row } => {
            if class.0 as usize >= state.store.class_count() {
                return Err(StoreError::OutOfBounds {
                    what: "class id",
                    index: class.0 as usize,
                    len: state.store.class_count(),
                });
            }
            state.store.class(*class).check_row(row)?;
        }
        WalRecord::Update { oid, attr, value } => {
            let class = state.store.get(*oid)?.class();
            let def = state.store.class(class);
            if attr.index() >= def.arity() {
                return Err(StoreError::OutOfBounds {
                    what: "attribute id",
                    index: attr.index(),
                    len: def.arity(),
                });
            }
            let decl = &def.attrs()[attr.index()];
            if !decl.ty.admits(value) {
                return Err(ObjectError::TypeMismatch {
                    class: def.name().to_owned(),
                    attr: decl.name.clone(),
                    expected: decl.ty,
                    got: value.type_name(),
                }
                .into());
            }
        }
        WalRecord::TreeCreate { .. } | WalRecord::ListCreate { .. } => {}
        WalRecord::TreeInsertChild { name, parent, .. } => {
            let t = get_tree(state, name)?;
            check_node(t, *parent)?;
        }
        WalRecord::TreeRemoveSubtree { name, at } => {
            let t = get_tree(state, name)?;
            check_node(t, *at)?;
            if NodeId(*at) == t.root() {
                return Err(StoreError::OutOfBounds {
                    what: "removable tree node",
                    index: *at as usize,
                    len: t.len(),
                });
            }
        }
        WalRecord::TreeSetOid { name, at, .. } => {
            check_node(get_tree(state, name)?, *at)?;
        }
        WalRecord::ListPush { name, .. } | WalRecord::ListPushHole { name, .. } => {
            get_list(state, name)?;
        }
        WalRecord::ListRemove { name, index } => {
            let l = get_list(state, name)?;
            if *index as usize >= l.len() {
                return Err(StoreError::OutOfBounds {
                    what: "list position",
                    index: *index as usize,
                    len: l.len(),
                });
            }
        }
        WalRecord::RegisterIndex { spec } => {
            check_spec(state, spec)?;
        }
        WalRecord::TreeDrop { name } => {
            get_tree(state, name)?;
        }
        WalRecord::ListDrop { name } => {
            get_list(state, name)?;
        }
        WalRecord::TxnPrepare { .. } | WalRecord::TxnCommit { .. } | WalRecord::TxnAbort { .. } => {
            return Err(txn_record_misrouted())
        }
        WalRecord::RebalanceBegin { .. }
        | WalRecord::RebalanceMoved { .. }
        | WalRecord::RebalanceCommit { .. } => return Err(rebalance_record_misrouted()),
    }
    Ok(())
}

fn check_node(t: &Tree, at: u32) -> Result<()> {
    if (at as usize) < t.len() {
        Ok(())
    } else {
        Err(StoreError::OutOfBounds {
            what: "tree node",
            index: at as usize,
            len: t.len(),
        })
    }
}

fn check_spec(state: &SnapshotState, spec: &IndexSpec) -> Result<()> {
    let check_class_attr = |class: &ClassId, attr: &AttrId| -> Result<()> {
        crate::attr_index::check_attr(&state.store, *class, *attr)
    };
    match spec {
        IndexSpec::Attr { class, attr } => check_class_attr(class, attr),
        IndexSpec::TreeNode { tree, class, attr } => {
            get_tree(state, tree)?;
            check_class_attr(class, attr)
        }
        IndexSpec::ListPos { list, class, attr } => {
            get_list(state, list)?;
            check_class_attr(class, attr)
        }
        IndexSpec::Structural { tree } => get_tree(state, tree).map(|_| ()),
    }
}

/// Per-extent root cache keyed by `(kind, name)` — `BTreeMap` order is
/// exactly the `(kind, name)` order [`merkle::store_root`] requires.
type RootCache = BTreeMap<(u8, String), Root>;

/// Fold a root cache into the store root.
fn fold_store_root(roots: &RootCache) -> Root {
    merkle::store_root(roots.iter().map(|((k, n), r)| (*k, n.as_str(), *r)))
}

/// The extent a record mutates, in `IntegrityMismatch` spelling
/// (`"store"` for records that touch no single extent).
fn record_extent_label(rec: &WalRecord) -> String {
    match rec {
        WalRecord::TreeCreate { name, .. }
        | WalRecord::TreeInsertChild { name, .. }
        | WalRecord::TreeRemoveSubtree { name, .. }
        | WalRecord::TreeSetOid { name, .. } => format!("tree:{name}"),
        WalRecord::ListCreate { name }
        | WalRecord::ListPush { name, .. }
        | WalRecord::ListPushHole { name, .. }
        | WalRecord::ListRemove { name, .. } => format!("list:{name}"),
        WalRecord::TreeDrop { name } => format!("tree:{name}"),
        WalRecord::ListDrop { name } => format!("list:{name}"),
        _ => "store".to_string(),
    }
}

/// Replay's check before [`advance_roots`]. The live and prepare paths
/// [`check`] every record first; replay does not, and would otherwise
/// hash a malformed `Insert` row into the roots and report a root
/// mismatch instead of the typed refusal the live path gives.
fn check_insert(state: &SnapshotState, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::Insert { .. } => check(state, rec),
        _ => Ok(()),
    }
}

/// Advance `roots` to what applying `rec` to `state` will make them —
/// *without* mutating `state`. This is what lets the write path bind the
/// post-apply store root into a frame while preserving the
/// validate → log → apply ordering. Each record rehashes only the
/// extents it can change: a tree or list op the one extent it names
/// (tree mutations are functional, lists are cloned), and an `Insert` or
/// `Update` only the extents whose cells hold the affected OID, hashed
/// through a [`merkle::Override`] — nothing at all when none do. Replay
/// uses the *same* function, so writer and recoverer compute identical
/// roots from identical history.
fn advance_roots(state: &SnapshotState, roots: &RootCache, rec: &WalRecord) -> Result<RootCache> {
    let mut out = roots.clone();
    let mut rehash_holders = |ov: merkle::Override<'_>| {
        let oid = Some(ov.oid());
        for (name, t) in &state.trees {
            // Scan the node arena, not `cols()`: no column build here.
            if (0..t.len()).any(|i| t.oid(NodeId(i as u32)) == oid) {
                let leaves = merkle::tree_leaves(&state.store, t, Some(ov));
                out.insert((KIND_TREE, name.clone()), merkle::merkle_root(&leaves));
            }
        }
        for (name, l) in &state.lists {
            if l.elems().iter().any(|e| e.oid() == oid) {
                let leaves = merkle::list_leaves(&state.store, l, Some(ov));
                out.insert((KIND_LIST, name.clone()), merkle::merkle_root(&leaves));
            }
        }
    };
    match rec {
        WalRecord::DefineClass { .. } | WalRecord::RegisterIndex { .. } => {}
        WalRecord::Insert { class, row } => {
            let oid = Oid(state.store.len() as u64);
            rehash_holders(merkle::Override::Insert {
                oid,
                class: *class,
                row,
            });
        }
        WalRecord::Update { oid, attr, value } => {
            rehash_holders(merkle::Override::Attr {
                oid: *oid,
                attr: attr.index(),
                value,
            });
        }
        WalRecord::TreeCreate { name, tree } => {
            out.insert(
                (KIND_TREE, name.clone()),
                merkle::tree_root(&state.store, tree),
            );
        }
        WalRecord::TreeInsertChild {
            name,
            parent,
            index,
            child,
        } => {
            let nt =
                get_tree(state, name)?.insert_child(NodeId(*parent), *index as usize, child)?;
            out.insert(
                (KIND_TREE, name.clone()),
                merkle::tree_root(&state.store, &nt),
            );
        }
        WalRecord::TreeRemoveSubtree { name, at } => {
            let nt = get_tree(state, name)?.remove_subtree(NodeId(*at))?;
            out.insert(
                (KIND_TREE, name.clone()),
                merkle::tree_root(&state.store, &nt),
            );
        }
        WalRecord::TreeSetOid { name, at, oid } => {
            let nt = get_tree(state, name)?.set_oid(NodeId(*at), *oid)?;
            out.insert(
                (KIND_TREE, name.clone()),
                merkle::tree_root(&state.store, &nt),
            );
        }
        WalRecord::ListCreate { name } => {
            out.insert((KIND_LIST, name.clone()), merkle::empty_root());
        }
        WalRecord::ListPush { name, oid } => {
            let mut l = get_list(state, name)?.clone();
            l.push(*oid);
            out.insert(
                (KIND_LIST, name.clone()),
                merkle::list_root(&state.store, &l),
            );
        }
        WalRecord::ListPushHole { name, label } => {
            let mut l = get_list(state, name)?.clone();
            l.push_hole(label.as_str());
            out.insert(
                (KIND_LIST, name.clone()),
                merkle::list_root(&state.store, &l),
            );
        }
        WalRecord::ListRemove { name, index } => {
            let mut l = get_list(state, name)?.clone();
            let _ = l.remove(*index as usize);
            out.insert(
                (KIND_LIST, name.clone()),
                merkle::list_root(&state.store, &l),
            );
        }
        WalRecord::TreeDrop { name } => {
            get_tree(state, name)?;
            out.remove(&(KIND_TREE, name.clone()));
        }
        WalRecord::ListDrop { name } => {
            get_list(state, name)?;
            out.remove(&(KIND_LIST, name.clone()));
        }
        WalRecord::TxnPrepare { .. } | WalRecord::TxnCommit { .. } | WalRecord::TxnAbort { .. } => {
            return Err(txn_record_misrouted())
        }
        WalRecord::RebalanceBegin { .. }
        | WalRecord::RebalanceMoved { .. }
        | WalRecord::RebalanceCommit { .. } => return Err(rebalance_record_misrouted()),
    }
    Ok(out)
}

/// A prepared-but-undecided transaction buffered on one participant:
/// what a `TxnPrepare` frame carries, parked until the coordinator's
/// outcome arrives (or recovery resolves it by presumption).
#[derive(Debug, Clone)]
pub(crate) struct PendingTxn {
    /// Every participant shard the coordinator enrolled.
    pub participants: Vec<u32>,
    /// The routed records this shard will apply on commit.
    pub records: Vec<WalRecord>,
    /// The post-apply store root the prepare committed to.
    pub root_binding: Root,
}

/// Transaction-protocol records never travel the plain mutation path;
/// one reaching it is a protocol-ordering bug, reported rather than
/// applied.
fn txn_record_misrouted() -> StoreError {
    StoreError::Replay {
        lsn: 0,
        msg: "transaction-protocol record routed to the plain mutation path".to_string(),
    }
}

/// Rebalance-protocol records live only in the migration log
/// (`rebalance.log/`); one in a shard WAL is a writer bug.
fn rebalance_record_misrouted() -> StoreError {
    StoreError::Replay {
        lsn: 0,
        msg: "rebalance-protocol record routed to a shard WAL path".to_string(),
    }
}

/// Replay one transaction-protocol frame (tags 12–14). A prepare parks
/// its buffer without touching `state`; a commit outcome applies the
/// buffer and requires the result to match the prepare's root binding;
/// an abort outcome drops the buffer. Frame-bound root claims verify
/// exactly like plain records.
#[allow(clippy::too_many_arguments)]
fn replay_txn_frame(
    state: &mut SnapshotState,
    roots: &mut RootCache,
    pending: &mut BTreeMap<u64, PendingTxn>,
    outcomes: &mut Vec<(u64, bool)>,
    cfg: &DurableConfig,
    lsn: u64,
    rec: &WalRecord,
    claimed: Option<&Root>,
    report: &mut RecoveryReport,
) -> Result<()> {
    let verify_claim = |roots: &RootCache, report: &mut RecoveryReport| -> Result<()> {
        if let Some(claimed) = claimed {
            let recomputed = fold_store_root(roots);
            if recomputed != *claimed {
                return Err(StoreError::IntegrityMismatch {
                    extent: record_extent_label(rec),
                    subtree: format!("wal frame lsn {lsn}"),
                    expected: claimed.to_hex(),
                    actual: recomputed.to_hex(),
                });
            }
            report.roots_verified += 1;
        }
        Ok(())
    };
    match rec {
        WalRecord::TxnPrepare {
            txn_id,
            participants,
            records,
            root_binding,
        } => {
            // A prepare buffers without applying, so it binds the
            // *unchanged* pre-transaction store root.
            if cfg.authenticate {
                verify_claim(roots, report)?;
            }
            pending.insert(
                *txn_id,
                PendingTxn {
                    participants: participants.clone(),
                    records: records.clone(),
                    root_binding: *root_binding,
                },
            );
        }
        WalRecord::TxnCommit { txn_id } => {
            let p = pending.remove(txn_id).ok_or(StoreError::Replay {
                lsn,
                msg: format!("commit outcome for txn {txn_id} with no pending prepare"),
            })?;
            for r in &p.records {
                if cfg.authenticate {
                    *roots = check_insert(state, r)
                        .and_then(|()| advance_roots(state, roots, r))
                        .map_err(|e| StoreError::Replay {
                            lsn,
                            msg: format!("txn {txn_id} root recompute failed: {e}"),
                        })?;
                }
                apply(state, r).map_err(|e| StoreError::Replay {
                    lsn,
                    msg: format!("txn {txn_id} buffered record failed to apply: {e}"),
                })?;
            }
            if cfg.authenticate {
                let recomputed = fold_store_root(roots);
                if recomputed != p.root_binding {
                    return Err(StoreError::IntegrityMismatch {
                        extent: format!("txn:{txn_id}"),
                        subtree: "prepare root binding".to_string(),
                        expected: p.root_binding.to_hex(),
                        actual: recomputed.to_hex(),
                    });
                }
                verify_claim(roots, report)?;
            }
            outcomes.push((*txn_id, true));
        }
        WalRecord::TxnAbort { txn_id } => {
            pending.remove(txn_id).ok_or(StoreError::Replay {
                lsn,
                msg: format!("abort outcome for txn {txn_id} with no pending prepare"),
            })?;
            if cfg.authenticate {
                verify_claim(roots, report)?;
            }
            outcomes.push((*txn_id, false));
        }
        _ => return Err(txn_record_misrouted()),
    }
    Ok(())
}

/// A write-ahead-logged object store with named tree/list extents,
/// checkpoints, and crash recovery. See the module docs for the
/// ordering and recovery contracts.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    cfg: DurableConfig,
    wal: Wal,
    state: SnapshotState,
    ops_since_checkpoint: u64,
    indexes: RebuiltIndexes,
    metrics: Option<Metrics>,
    /// Per-extent merkle roots, current with `state` (empty when
    /// `cfg.authenticate` is off).
    roots: RootCache,
    /// Prepared transactions awaiting an outcome, keyed by txn id.
    /// Plain mutations and checkpoints are refused while non-empty.
    pending: BTreeMap<u64, PendingTxn>,
    /// Outcomes `(txn_id, committed)` the last `open` replayed from the
    /// WAL — the participant-side evidence the sharded resolution pass
    /// uses to complete a decision the coordinator log lost.
    replayed_outcomes: Vec<(u64, bool)>,
}

impl DurableStore {
    /// Open (and recover) the store in `dir`, creating it if absent.
    ///
    /// Recovery: load the newest snapshot whose checksum verifies
    /// (corrupt ones are skipped and counted), replay WAL frames past
    /// its LSN in strict sequence, truncate a torn tail at the last
    /// valid frame (dropping any orphan segments after it), and rebuild
    /// every registered index at the recovered epoch.
    pub fn open(dir: &Path, cfg: DurableConfig) -> Result<(DurableStore, RecoveryReport)> {
        failpoint::check(RECOVER_PROBE)?;
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir.display(), e))?;
        let mut report = RecoveryReport::default();

        // Newest checksum-valid snapshot; corrupt ones are skipped.
        let mut state = SnapshotState::default();
        let mut roots = RootCache::new();
        for (lsn, path) in list_snapshots(dir)?.iter().rev() {
            match read_snapshot(path) {
                Ok((s, manifest)) => {
                    if cfg.authenticate {
                        // Self-verification, part 1: the decoded state
                        // must match the roots the checkpoint committed
                        // to. A mismatch here is not skippable damage —
                        // the bytes checksum clean, so serving anything
                        // would be serving silently-wrong data.
                        verify_manifest(&s, &manifest)?;
                        roots = manifest
                            .iter()
                            .map(|e| ((e.kind, e.name.clone()), e.merkle.root))
                            .collect();
                    }
                    state = s;
                    report.snapshot_lsn = Some(*lsn);
                    break;
                }
                Err(StoreError::Corrupt { .. }) => report.snapshots_skipped += 1,
                Err(e) => return Err(e),
            }
        }
        let snap_lsn = state.lsn;

        // Segments that can contribute frames past the snapshot: start
        // at the last segment whose first LSN is ≤ snap_lsn + 1. Older
        // segments are never scanned, so a bit flip in history the
        // snapshot already covers cannot cost data.
        let segs = list_segments(dir)?;
        let relevant: &[(u64, PathBuf)] =
            match segs.iter().rposition(|(first, _)| *first <= snap_lsn + 1) {
                Some(i) => &segs[i..],
                None if segs.is_empty() => &[],
                None => {
                    return Err(StoreError::Replay {
                        lsn: snap_lsn + 1,
                        msg: format!(
                            "no WAL segment covers lsn {} (oldest starts at {})",
                            snap_lsn + 1,
                            segs[0].0
                        ),
                    })
                }
            };

        let mut next = snap_lsn + 1;
        let mut pending: BTreeMap<u64, PendingTxn> = BTreeMap::new();
        let mut replayed_outcomes: Vec<(u64, bool)> = Vec::new();
        for (i, (_, path)) in relevant.iter().enumerate() {
            let scan = scan_segment(path)?;
            report.segments_scanned += 1;
            for (lsn, rec, claimed) in &scan.frames {
                if *lsn <= snap_lsn {
                    continue; // covered by the snapshot
                }
                if *lsn != next {
                    return Err(StoreError::Replay {
                        lsn: *lsn,
                        msg: format!("expected lsn {next}, log continues at {lsn}"),
                    });
                }
                if rec.is_txn() {
                    // Transaction frames drive the 2PC state machine
                    // (buffer / apply-buffer / drop-buffer) rather than
                    // the plain apply path.
                    replay_txn_frame(
                        &mut state,
                        &mut roots,
                        &mut pending,
                        &mut replayed_outcomes,
                        &cfg,
                        *lsn,
                        rec,
                        claimed.as_ref(),
                        &mut report,
                    )?;
                    next += 1;
                    report.frames_replayed += 1;
                    continue;
                }
                if cfg.authenticate {
                    // Self-verification, part 2: recompute the store
                    // root this record commits and compare it with the
                    // root the frame bound at write time. Any divergence
                    // in the recovered history — a tampered record, a
                    // tampered snapshot, a tampered claim — breaks the
                    // equality.
                    roots = check_insert(&state, rec)
                        .and_then(|()| advance_roots(&state, &roots, rec))
                        .map_err(|e| StoreError::Replay {
                            lsn: *lsn,
                            msg: format!("root recompute failed: {e}"),
                        })?;
                    if let Some(claimed) = claimed {
                        let recomputed = fold_store_root(&roots);
                        if recomputed != *claimed {
                            return Err(StoreError::IntegrityMismatch {
                                extent: record_extent_label(rec),
                                subtree: format!("wal frame lsn {lsn}"),
                                expected: claimed.to_hex(),
                                actual: recomputed.to_hex(),
                            });
                        }
                        report.roots_verified += 1;
                    }
                }
                apply(&mut state, rec).map_err(|e| StoreError::Replay {
                    lsn: *lsn,
                    msg: e.to_string(),
                })?;
                next += 1;
                report.frames_replayed += 1;
            }
            if scan.torn() {
                // Truncate the torn tail on disk and drop every later
                // segment: the log is a consistent prefix again.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io("open", path.display(), e))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| StoreError::io("truncate", path.display(), e))?;
                f.sync_data()
                    .map_err(|e| StoreError::io("fsync", path.display(), e))?;
                report.bytes_truncated += scan.file_len - scan.valid_len;
                for (_, later) in &relevant[i + 1..] {
                    if let Ok(meta) = std::fs::metadata(later) {
                        report.bytes_truncated += meta.len();
                    }
                    std::fs::remove_file(later)
                        .map_err(|e| StoreError::io("remove", later.display(), e))?;
                    report.segments_dropped += 1;
                }
                break;
            }
        }

        state.lsn = next - 1;
        report.next_lsn = next;
        if cfg.authenticate {
            // Self-verification, part 3: recompute every extent's root
            // from the *final* recovered state and require it to equal
            // the incrementally tracked value. This closes the chain:
            // final state roots == the roots committed frame by frame.
            for (name, t) in &state.trees {
                let actual = merkle::tree_root(&state.store, t);
                let key = (KIND_TREE, name.clone());
                match roots.get(&key) {
                    Some(r) if *r == actual => {}
                    tracked => {
                        return Err(StoreError::IntegrityMismatch {
                            extent: format!("tree:{name}"),
                            subtree: "post-replay recompute".to_string(),
                            expected: tracked.map(Root::to_hex).unwrap_or_default(),
                            actual: actual.to_hex(),
                        })
                    }
                }
                report
                    .extent_roots
                    .push((format!("tree:{name}"), actual.to_hex()));
            }
            for (name, l) in &state.lists {
                let actual = merkle::list_root(&state.store, l);
                let key = (KIND_LIST, name.clone());
                match roots.get(&key) {
                    Some(r) if *r == actual => {}
                    tracked => {
                        return Err(StoreError::IntegrityMismatch {
                            extent: format!("list:{name}"),
                            subtree: "post-replay recompute".to_string(),
                            expected: tracked.map(Root::to_hex).unwrap_or_default(),
                            actual: actual.to_hex(),
                        })
                    }
                }
                report
                    .extent_roots
                    .push((format!("list:{name}"), actual.to_hex()));
            }
        }
        let indexes = RebuiltIndexes::build(&state, state.lsn)?;
        report.indices_rebuilt = indexes.len() as u32;
        let wal = Wal::open(
            dir,
            next,
            WalConfig {
                segment_bytes: cfg.segment_bytes,
            },
        )?;
        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                cfg,
                wal,
                state,
                ops_since_checkpoint: 0,
                indexes,
                metrics: None,
                roots,
                pending,
                replayed_outcomes,
            },
            report,
        ))
    }

    /// Record durability counters (WAL appends, checkpoints) into `m`.
    pub fn set_metrics(&mut self, m: Metrics) {
        self.metrics = Some(m);
    }

    /// The recovered/live object store.
    pub fn store(&self) -> &ObjectStore {
        &self.state.store
    }

    /// A named tree extent.
    pub fn tree(&self, name: &str) -> Option<&Tree> {
        self.state.trees.get(name)
    }

    /// A named list extent.
    pub fn list(&self, name: &str) -> Option<&List> {
        self.state.lists.get(name)
    }

    /// All named tree extents.
    pub fn trees(&self) -> &BTreeMap<String, Tree> {
        &self.state.trees
    }

    /// All named list extents.
    pub fn lists(&self) -> &BTreeMap<String, List> {
        &self.state.lists
    }

    /// The registered index specs.
    pub fn specs(&self) -> &[IndexSpec] {
        &self.state.specs
    }

    /// The rebuilt indices (stamped with the epoch they were built at;
    /// probe them with `Some(self.epoch())` to catch staleness).
    pub fn indexes(&self) -> &RebuiltIndexes {
        &self.indexes
    }

    /// The store's mutation epoch — the LSN of the last applied record.
    pub fn epoch(&self) -> u64 {
        self.state.lsn
    }

    /// Where the store lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this store runs authenticated (root-bound frames).
    pub fn authenticated(&self) -> bool {
        self.cfg.authenticate
    }

    /// The current store root (fold of every extent root). Meaningful
    /// only in authenticated mode; an unauthenticated store folds an
    /// empty cache.
    pub fn store_root(&self) -> Root {
        fold_store_root(&self.roots)
    }

    /// The tracked merkle root of a named tree extent (authenticated
    /// mode only).
    pub fn tree_extent_root(&self, name: &str) -> Option<Root> {
        self.roots.get(&(KIND_TREE, name.to_string())).copied()
    }

    /// The tracked merkle root of a named list extent (authenticated
    /// mode only).
    pub fn list_extent_root(&self, name: &str) -> Option<Root> {
        self.roots.get(&(KIND_LIST, name.to_string())).copied()
    }

    /// Bump the WAL throughput counters for one appended record.
    fn note_append(&self, rec: &WalRecord, root_bound: bool) {
        if let Some(m) = &self.metrics {
            m.wal_appends.inc();
            let root_bytes = if root_bound { 32 } else { 0 };
            m.wal_bytes
                .add((FRAME_HEADER + 8 + rec.to_bytes().len() + root_bytes) as u64);
        }
    }

    /// The oldest prepared-but-undecided transaction, if any — the
    /// guard plain mutations and checkpoints check before proceeding.
    fn oldest_pending(&self) -> Option<u64> {
        self.pending.keys().next().copied()
    }

    fn log_apply(&mut self, rec: WalRecord) -> Result<u64> {
        if rec.is_txn() {
            return Err(txn_record_misrouted());
        }
        if let Some(txn_id) = self.oldest_pending() {
            // A plain mutation between a prepare and its outcome would
            // invalidate the root the prepare bound; the coordinator
            // must resolve first.
            return Err(StoreError::Txn(TxnError::MutationWhilePending { txn_id }));
        }
        check(&self.state, &rec)?;
        // Authenticated mode: compute the post-apply store root *before*
        // logging (predictively, without mutating state — see
        // `advance_roots`) and bind it into the frame, so commit and
        // integrity travel together.
        let (new_roots, bound) = if self.cfg.authenticate {
            let new_roots = advance_roots(&self.state, &self.roots, &rec)?;
            let mut root = fold_store_root(&new_roots);
            if failpoint::check(INTEGRITY_CORRUPT_PROBE).is_err() {
                root.0[0] ^= 0xff;
            }
            (Some(new_roots), Some(root))
        } else {
            (None, None)
        };
        let lsn = self.wal.append_with_root(&rec, bound.as_ref())?;
        self.note_append(&rec, bound.is_some());
        // Validated above: a failure here means check() and apply()
        // disagree, which is a bug worth a typed report, not a panic.
        apply(&mut self.state, &rec).map_err(|e| StoreError::Replay {
            lsn,
            msg: format!("validated record failed to apply: {e}"),
        })?;
        if let Some(new_roots) = new_roots {
            self.roots = new_roots;
        }
        self.state.lsn = lsn;
        self.ops_since_checkpoint += 1;
        if self.cfg.checkpoint_every > 0 && self.ops_since_checkpoint >= self.cfg.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(lsn)
    }

    /// Durably define a class; returns its (deterministic) id.
    pub fn define_class(&mut self, def: ClassDef) -> Result<ClassId> {
        let id = ClassId(self.state.store.class_count() as u32);
        self.log_apply(WalRecord::DefineClass { def })?;
        Ok(id)
    }

    /// Durably insert an object; returns its (deterministic) OID.
    pub fn insert(&mut self, class: ClassId, row: Vec<Value>) -> Result<Oid> {
        let oid = Oid(self.state.store.len() as u64);
        self.log_apply(WalRecord::Insert { class, row })?;
        Ok(oid)
    }

    /// Durably update one stored attribute.
    pub fn update(&mut self, oid: Oid, attr: AttrId, value: Value) -> Result<()> {
        self.log_apply(WalRecord::Update { oid, attr, value })?;
        Ok(())
    }

    /// Durably create (or wholly replace) a named tree extent.
    pub fn create_tree(&mut self, name: &str, tree: Tree) -> Result<()> {
        self.log_apply(WalRecord::TreeCreate {
            name: name.to_owned(),
            tree,
        })?;
        Ok(())
    }

    /// Durably insert `child` under `parent` at `index` in a named tree.
    pub fn tree_insert_child(
        &mut self,
        name: &str,
        parent: NodeId,
        index: usize,
        child: Tree,
    ) -> Result<()> {
        self.log_apply(WalRecord::TreeInsertChild {
            name: name.to_owned(),
            parent: parent.0,
            index: index.min(u32::MAX as usize) as u32,
            child,
        })?;
        Ok(())
    }

    /// Durably remove the subtree rooted at `at` from a named tree.
    pub fn tree_remove_subtree(&mut self, name: &str, at: NodeId) -> Result<()> {
        self.log_apply(WalRecord::TreeRemoveSubtree {
            name: name.to_owned(),
            at: at.0,
        })?;
        Ok(())
    }

    /// Durably point-update the payload OID of one tree node.
    pub fn tree_set_oid(&mut self, name: &str, at: NodeId, oid: Oid) -> Result<()> {
        self.log_apply(WalRecord::TreeSetOid {
            name: name.to_owned(),
            at: at.0,
            oid,
        })?;
        Ok(())
    }

    /// Durably create (or reset) a named list extent.
    pub fn create_list(&mut self, name: &str) -> Result<()> {
        self.log_apply(WalRecord::ListCreate {
            name: name.to_owned(),
        })?;
        Ok(())
    }

    /// Durably append an object to a named list.
    pub fn list_push(&mut self, name: &str, oid: Oid) -> Result<()> {
        self.log_apply(WalRecord::ListPush {
            name: name.to_owned(),
            oid,
        })?;
        Ok(())
    }

    /// Durably append a labeled NULL to a named list.
    pub fn list_push_hole(&mut self, name: &str, label: &str) -> Result<()> {
        self.log_apply(WalRecord::ListPushHole {
            name: name.to_owned(),
            label: label.to_owned(),
        })?;
        Ok(())
    }

    /// Durably remove the element at `index` from a named list.
    pub fn list_remove(&mut self, name: &str, index: usize) -> Result<()> {
        self.log_apply(WalRecord::ListRemove {
            name: name.to_owned(),
            index: index.min(u32::MAX as usize) as u32,
        })?;
        Ok(())
    }

    /// Durably register an index spec (validated against the current
    /// state) and rebuild the indices so the new one is live.
    pub fn register_index(&mut self, spec: IndexSpec) -> Result<()> {
        self.log_apply(WalRecord::RegisterIndex { spec })?;
        self.refresh_indexes()?;
        Ok(())
    }

    /// Rebuild every registered index at the current epoch. Mutations
    /// leave previously-built indices stale (their probes fail with
    /// [`StoreError::StaleIndex`]); call this to make them answer again.
    pub fn refresh_indexes(&mut self) -> Result<u32> {
        self.indexes = RebuiltIndexes::build(&self.state, self.state.lsn)?;
        Ok(self.indexes.len() as u32)
    }

    /// Force the WAL to stable storage without checkpointing.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Transactions prepared on this store but still awaiting an
    /// outcome, sorted by id. Non-empty only between a crash and the
    /// sharded store's resolution pass (or inside a live commit).
    pub fn pending_txns(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    /// The participant list a pending prepare named.
    pub(crate) fn pending_participants(&self, txn_id: u64) -> Option<&[u32]> {
        self.pending.get(&txn_id).map(|p| p.participants.as_slice())
    }

    /// Outcomes `(txn_id, committed)` the last `open` replayed from the
    /// WAL. An outcome frame in *any* participant's log is durable proof
    /// of the coordinator's decision — the resolution pass uses these to
    /// finish a commit whose coordinator log was lost or corrupted.
    pub fn replayed_txn_outcomes(&self) -> &[(u64, bool)] {
        &self.replayed_outcomes
    }

    /// Phase 1 of two-phase commit: validate the whole buffer against
    /// the current state, compute the post-apply root it would produce,
    /// and append a durable `TxnPrepare` frame — **without applying
    /// anything**. The records stay parked until
    /// [`txn_resolve`](DurableStore::txn_resolve) commits or aborts
    /// them. Returns the bound post-apply root. Validation is stepwise
    /// against a scratch clone, so later records may depend on earlier
    /// ones (an insert's OID pushed to a list).
    pub(crate) fn txn_prepare(
        &mut self,
        txn_id: u64,
        participants: &[u32],
        records: Vec<WalRecord>,
    ) -> Result<Root> {
        if let Some(pending_id) = self.oldest_pending() {
            // One prepared transaction at a time per participant: a
            // second prepare would bind a root the first's outcome is
            // about to change.
            return Err(StoreError::Txn(TxnError::MutationWhilePending {
                txn_id: pending_id,
            }));
        }
        let mut scratch = self.state.clone();
        let mut roots = self.roots.clone();
        for rec in &records {
            if rec.is_txn() {
                return Err(txn_record_misrouted());
            }
            check(&scratch, rec)?;
            if self.cfg.authenticate {
                roots = advance_roots(&scratch, &roots, rec)?;
            }
            apply(&mut scratch, rec).map_err(|e| StoreError::Replay {
                lsn: self.state.lsn,
                msg: format!("validated txn record failed to apply: {e}"),
            })?;
        }
        let binding = fold_store_root(&roots);
        let parked = PendingTxn {
            participants: participants.to_vec(),
            records,
            root_binding: binding,
        };
        let rec = WalRecord::TxnPrepare {
            txn_id,
            participants: parked.participants.clone(),
            records: parked.records.clone(),
            root_binding: binding,
        };
        // The prepare itself applies nothing, so the frame binds the
        // *current* (pre-transaction) store root.
        let bound = self.cfg.authenticate.then(|| self.store_root());
        let lsn = self.wal.append_with_root(&rec, bound.as_ref())?;
        self.note_append(&rec, bound.is_some());
        self.state.lsn = lsn;
        self.pending.insert(txn_id, parked);
        // A prepare is a promise to the coordinator; it must be durable
        // before the decision is logged.
        self.wal.sync()?;
        Ok(binding)
    }

    /// Phase 2 of two-phase commit: apply the decided outcome for a
    /// prepared transaction. Commit re-derives the buffered records'
    /// post-apply roots, verifies them against the prepare's binding (a
    /// mismatch is [`StoreError::IntegrityMismatch`]; the sharded
    /// coordinator reports it as `TxnError::ParticipantDiverged`),
    /// appends a durable `TxnCommit` outcome frame, then applies. Abort
    /// appends a `TxnAbort` frame and drops the buffer untouched.
    pub(crate) fn txn_resolve(&mut self, txn_id: u64, commit: bool) -> Result<()> {
        let p = self
            .pending
            .get(&txn_id)
            .ok_or(StoreError::Txn(TxnError::NoSuchTxn { txn_id }))?;
        if commit {
            let mut scratch = self.state.clone();
            let mut roots = self.roots.clone();
            for rec in &p.records {
                if self.cfg.authenticate {
                    roots = advance_roots(&scratch, &roots, rec)?;
                }
                apply(&mut scratch, rec).map_err(|e| StoreError::Replay {
                    lsn: self.state.lsn,
                    msg: format!("prepared txn {txn_id} record failed to apply: {e}"),
                })?;
            }
            if self.cfg.authenticate {
                let recomputed = fold_store_root(&roots);
                if recomputed != p.root_binding {
                    return Err(StoreError::IntegrityMismatch {
                        extent: format!("txn:{txn_id}"),
                        subtree: "prepare root binding".to_string(),
                        expected: p.root_binding.to_hex(),
                        actual: recomputed.to_hex(),
                    });
                }
            }
            let rec = WalRecord::TxnCommit { txn_id };
            let bound = self.cfg.authenticate.then(|| fold_store_root(&roots));
            let lsn = self.wal.append_with_root(&rec, bound.as_ref())?;
            self.note_append(&rec, bound.is_some());
            scratch.lsn = lsn;
            self.state = scratch;
            self.roots = roots;
        } else {
            let rec = WalRecord::TxnAbort { txn_id };
            let bound = self.cfg.authenticate.then(|| self.store_root());
            let lsn = self.wal.append_with_root(&rec, bound.as_ref())?;
            self.note_append(&rec, bound.is_some());
            self.state.lsn = lsn;
        }
        self.pending.remove(&txn_id);
        self.wal.sync()?;
        self.ops_since_checkpoint += 1;
        if self.cfg.checkpoint_every > 0
            && self.ops_since_checkpoint >= self.cfg.checkpoint_every
            && self.pending.is_empty()
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// One-phase fast path for the sharded coordinator: a routed record
    /// logged and applied like any plain mutation. Returns its LSN.
    pub(crate) fn apply_record(&mut self, rec: WalRecord) -> Result<u64> {
        self.log_apply(rec)
    }

    /// Checkpoint: fsync the WAL, atomically write a snapshot of the
    /// current state, and (if configured) prune snapshots and segments
    /// the new checkpoint covers. Returns the snapshot path.
    ///
    /// Refused while a prepared transaction awaits its outcome: a
    /// snapshot covering the prepare's LSN would strand the outcome
    /// frame with no buffer to resolve against on replay.
    pub fn checkpoint(&mut self) -> Result<PathBuf> {
        if let Some(txn_id) = self.oldest_pending() {
            return Err(StoreError::Txn(TxnError::MutationWhilePending { txn_id }));
        }
        self.wal.sync()?;
        let path = write_snapshot(&self.dir, &self.state)?;
        if let Some(m) = &self.metrics {
            m.snapshots_written.inc();
        }
        self.ops_since_checkpoint = 0;
        if self.cfg.prune {
            self.prune(self.state.lsn)?;
        }
        Ok(path)
    }

    /// Remove snapshots older than `snap_lsn` and WAL segments whose
    /// every frame is ≤ `snap_lsn`. Best-effort: the covering snapshot
    /// plus the remaining log always suffice to recover.
    fn prune(&self, snap_lsn: u64) -> Result<()> {
        for (lsn, path) in list_snapshots(&self.dir)? {
            if lsn < snap_lsn {
                let _ = std::fs::remove_file(path);
            }
        }
        let segs = list_segments(&self.dir)?;
        for w in segs.windows(2) {
            // A segment is covered iff the next segment starts at or
            // before snap_lsn + 1 (so this one's frames all are ≤
            // snap_lsn). The live segment is never in a window's head
            // position with a successor unless it already rotated.
            if w[1].0 <= snap_lsn + 1 && w[0].1 != self.wal.current_segment() {
                let _ = std::fs::remove_file(&w[0].1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{snapshot_lsn, SNAPSHOT_WRITE_PROBE};
    use aqua_algebra::TreeBuilder;
    use aqua_object::{AttrDef, AttrType, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "aqua-rec-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn note_class() -> ClassDef {
        ClassDef::new("Note", vec![AttrDef::stored("pitch", AttrType::Str)]).unwrap()
    }

    /// Define a class, insert a few notes, build a list and a tree.
    fn populate(ds: &mut DurableStore) -> (ClassId, Vec<Oid>) {
        let c = ds.define_class(note_class()).unwrap();
        let mut oids = Vec::new();
        for p in ["G", "A", "A", "F"] {
            oids.push(ds.insert(c, vec![Value::str(p)]).unwrap());
        }
        ds.create_list("song").unwrap();
        for &o in &oids {
            ds.list_push("song", o).unwrap();
        }
        let mut b = TreeBuilder::new();
        let kid = b.node(oids[1], vec![]);
        let root = b.node(oids[0], vec![kid]);
        ds.create_tree("t", b.finish(root).unwrap()).unwrap();
        (c, oids)
    }

    #[test]
    fn reopen_reproduces_state_without_snapshot() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("replay");
        let (mut ds, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rep.next_lsn, 1);
        assert!(rep.clean());
        let (c, oids) = populate(&mut ds);
        ds.update(oids[3], AttrId(0), Value::str("E")).unwrap();
        ds.list_remove("song", 0).unwrap();
        let epoch = ds.epoch();
        ds.sync().unwrap();
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(rep.clean());
        assert_eq!(rep.snapshot_lsn, None);
        assert_eq!(rep.frames_replayed, epoch);
        assert_eq!(back.epoch(), epoch);
        assert_eq!(back.store().len(), 4);
        assert_eq!(back.store().extent(c), &oids[..]);
        assert_eq!(back.store().attr(oids[3], AttrId(0)), &Value::str("E"));
        assert_eq!(back.list("song").unwrap().len(), 3);
        assert_eq!(back.tree("t").unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_tail_replay() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("ckpt");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        let ckpt_lsn = ds.epoch();
        ds.checkpoint().unwrap();
        ds.insert(c, vec![Value::str("B")]).unwrap();
        ds.insert(c, vec![Value::str("C")]).unwrap();
        ds.sync().unwrap();
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rep.snapshot_lsn, Some(ckpt_lsn));
        assert_eq!(rep.frames_replayed, 2, "only the tail past the snapshot");
        assert_eq!(back.store().len(), 6);
        assert!(rep.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("torn");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        ds.insert(c, vec![Value::str("Z")]).unwrap();
        let full_epoch = ds.epoch();
        ds.sync().unwrap();
        drop(ds);

        // Tear mid-way through the last frame.
        let segs = list_segments(&dir).unwrap();
        let (_, tail) = segs.last().unwrap();
        let bytes = std::fs::read(tail).unwrap();
        std::fs::write(tail, &bytes[..bytes.len() - 3]).unwrap();

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(!rep.clean());
        assert!(rep.bytes_truncated > 0);
        assert_eq!(back.epoch(), full_epoch - 1, "last record lost, rest kept");
        assert_eq!(back.store().len(), 4, "the torn insert is gone");

        // The truncation is durable: a further reopen is clean.
        drop(back);
        let (_, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(rep.clean(), "second recovery found damage: {rep}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn indices_rebuilt_fresh_at_recovered_epoch() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("idx");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        ds.register_index(IndexSpec::Attr {
            class: c,
            attr: AttrId(0),
        })
        .unwrap();
        ds.register_index(IndexSpec::ListPos {
            list: "song".into(),
            class: c,
            attr: AttrId(0),
        })
        .unwrap();
        ds.register_index(IndexSpec::Structural { tree: "t".into() })
            .unwrap();
        ds.sync().unwrap();
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rep.indices_rebuilt, 3);
        let epoch = Some(back.epoch());
        let attr = back.indexes().attr_index(c, AttrId(0)).unwrap();
        assert_eq!(attr.try_lookup(&Value::str("A"), epoch).unwrap().len(), 2);
        let pos = back.indexes().list_index("song").unwrap();
        assert_eq!(pos.try_positions(&Value::str("A"), epoch).unwrap(), &[1, 2]);
        assert!(back.indexes().structural_index("t").is_some());
        // A stale probe (old epoch) is refused.
        assert!(matches!(
            attr.try_lookup(&Value::str("A"), Some(back.epoch() + 1)),
            Err(StoreError::StaleIndex { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_mutations_never_reach_the_wal() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("reject");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, oids) = populate(&mut ds);
        let epoch = ds.epoch();

        // Every rejected mutation is a typed error and burns no LSN.
        assert!(matches!(
            ds.insert(ClassId(99), vec![]),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            ds.update(oids[0], AttrId(0), Value::Int(3)),
            Err(StoreError::Object(ObjectError::TypeMismatch { .. }))
        ));
        assert!(matches!(
            ds.list_push("nope", oids[0]),
            Err(StoreError::NoSuchExtent { kind: "list", .. })
        ));
        // Children precede parents in the arena: node 0 is the leaf,
        // node 1 the root. Removing the leaf is legal...
        assert!(matches!(ds.tree_remove_subtree("t", NodeId(0)), Ok(())));
        assert!(matches!(
            ds.tree_remove_subtree("t", NodeId(99)),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            ds.register_index(IndexSpec::Attr {
                class: c,
                attr: AttrId(7)
            }),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert_eq!(ds.epoch(), epoch + 1, "only the valid removal logged");
        ds.sync().unwrap();
        drop(ds);
        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(back.epoch(), epoch + 1, "replay sees only valid records");
        assert!(rep.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_and_prune_keep_recovery_working() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("auto");
        let cfg = DurableConfig {
            segment_bytes: 256, // force rotations
            checkpoint_every: 10,
            prune: true,
            authenticate: true,
        };
        let (mut ds, _) = DurableStore::open(&dir, cfg.clone()).unwrap();
        let c = ds.define_class(note_class()).unwrap();
        ds.create_list("song").unwrap();
        for i in 0..40 {
            let o = ds.insert(c, vec![Value::str(format!("p{i}"))]).unwrap();
            ds.list_push("song", o).unwrap();
        }
        let epoch = ds.epoch();
        assert!(
            !list_snapshots(&dir).unwrap().is_empty(),
            "auto-checkpoint fired"
        );
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, cfg).unwrap();
        assert!(rep.snapshot_lsn.is_some());
        assert_eq!(back.epoch(), epoch);
        assert_eq!(back.store().len(), 40);
        assert_eq!(back.list("song").unwrap().len(), 40);
        assert!(
            rep.frames_replayed < epoch,
            "snapshot spares most of the log"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_skipped_for_an_older_one() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("skipsnap");
        let (mut ds, _) = DurableStore::open(
            &dir,
            DurableConfig {
                prune: false,
                ..DurableConfig::default()
            },
        )
        .unwrap();
        let (c, _) = populate(&mut ds);
        ds.checkpoint().unwrap();
        let good_lsn = ds.epoch();
        ds.insert(c, vec![Value::str("X")]).unwrap();
        ds.checkpoint().unwrap();
        ds.sync().unwrap();
        drop(ds);

        // Flip a bit in the newest snapshot.
        let snaps = list_snapshots(&dir).unwrap();
        let (_, newest) = snaps.last().unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(newest, &bytes).unwrap();

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rep.snapshots_skipped, 1);
        assert_eq!(rep.snapshot_lsn, Some(good_lsn));
        assert_eq!(back.store().len(), 5, "tail replayed over older snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lsn_gap_is_a_typed_replay_error() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("gap");
        let cfg = DurableConfig {
            segment_bytes: 128,
            ..DurableConfig::default()
        };
        let (mut ds, _) = DurableStore::open(&dir, cfg.clone()).unwrap();
        let c = ds.define_class(note_class()).unwrap();
        for i in 0..30 {
            ds.insert(c, vec![Value::str(format!("p{i}"))]).unwrap();
        }
        drop(ds);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3, "need a middle segment to delete");
        std::fs::remove_file(&segs[1].1).unwrap();
        match DurableStore::open(&dir, cfg) {
            Err(StoreError::Replay { .. }) => {}
            other => panic!("expected Replay error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_probe_and_metrics_stamping() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("probe");
        {
            let _fp = failpoint::scoped(RECOVER_PROBE, "recovery blocked");
            assert!(matches!(
                DurableStore::open(&dir, DurableConfig::default()),
                Err(StoreError::Injected { .. })
            ));
        }
        let (mut ds, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let m = Metrics::new();
        rep.stamp(&m);
        ds.set_metrics(m.clone());
        let c = ds.define_class(note_class()).unwrap();
        ds.insert(c, vec![Value::str("A")]).unwrap();
        ds.checkpoint().unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.wal_appends, 2);
        assert!(snap.wal_bytes > 0);
        assert_eq!(snap.snapshots_written, 1);
        assert!(rep.to_json().contains("\"next_lsn\":1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a fault injected at `store.snapshot.write`
    /// fails the checkpoint with a typed error but leaves the previous
    /// snapshot and the WAL fully intact — reopening recovers every
    /// mutation, including those after the failed checkpoint.
    #[test]
    fn failed_checkpoint_loses_nothing() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("ckpt-fault");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, oids) = populate(&mut ds);
        let first_snap = ds.checkpoint().unwrap();
        ds.insert(c, vec![Value::str("B")]).unwrap();
        ds.list_push("song", oids[0]).unwrap();
        let epoch = ds.epoch();

        {
            let _fp = failpoint::scoped(SNAPSHOT_WRITE_PROBE, "power cut");
            assert!(matches!(ds.checkpoint(), Err(StoreError::Injected { .. })));
        }
        // The old snapshot survives; no torn `.tmp` remains.
        assert!(first_snap.exists());
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| e
            .unwrap()
            .path()
            .extension()
            .is_none_or(|x| x != "tmp")));

        drop(ds);
        let (ds, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(ds.epoch(), epoch, "post-checkpoint mutations recovered");
        assert_eq!(
            rep.snapshot_lsn,
            snapshot_lsn(first_snap.file_name().unwrap().to_str().unwrap())
        );
        assert_eq!(ds.store().len(), 5);
        assert_eq!(ds.list("song").unwrap().len(), 5);
        // And the next checkpoint, unfaulted, succeeds.
        let mut ds = ds;
        ds.checkpoint().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A payload byte flipped *and* the CRC recomputed — the classic
    /// attack a checksum cannot catch. The root bound into the frame
    /// was computed from the true record, so replaying the tampered one
    /// diverges and `open` refuses with a typed mismatch naming the
    /// frame.
    #[test]
    fn tampered_frame_with_fixed_crc_fails_integrity() {
        let _lock = crate::test_lock::passing();
        use crate::codec::crc32;
        use crate::wal::FRAME_HEADER;

        let dir = temp_dir("tamper");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        populate(&mut ds);
        ds.sync().unwrap();
        drop(ds);

        // Walk the frames of the only segment; in the one whose record
        // carries the pitch "G" (the first insert), flip that byte to
        // "g" and restore the checksum.
        let segs = list_segments(&dir).unwrap();
        let (_, seg) = segs.last().unwrap();
        let mut bytes = std::fs::read(seg).unwrap();
        let mut pos = 0usize;
        let mut tampered = false;
        while pos + FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let (start, end) = (pos + FRAME_HEADER, pos + FRAME_HEADER + len);
            // Skip the 8-byte LSN; never touch the 32-byte root claim.
            if let Some(i) = bytes[start + 8..end - 32].iter().position(|&b| b == b'G') {
                bytes[start + 8 + i] = b'g';
                let crc = crc32(&bytes[start..end]);
                bytes[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
                tampered = true;
                break;
            }
            pos = end;
        }
        assert!(tampered, "no frame carried the sentinel byte");
        std::fs::write(seg, &bytes).unwrap();

        match DurableStore::open(&dir, DurableConfig::default()) {
            Err(StoreError::IntegrityMismatch { subtree, .. }) => {
                assert!(subtree.starts_with("wal frame lsn"), "subtree: {subtree}");
            }
            other => panic!("expected IntegrityMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `store.integrity.corrupt_root` failpoint writes a frame whose
    /// bound root lies about the post-apply state; an authenticated
    /// reopen must refuse it.
    #[test]
    fn corrupt_root_failpoint_is_caught_on_reopen() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("badroot");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        failpoint::arm_times(INTEGRITY_CORRUPT_PROBE, "tampered root", 1);
        ds.insert(c, vec![Value::str("Z")]).unwrap();
        failpoint::disarm(INTEGRITY_CORRUPT_PROBE);
        ds.sync().unwrap();
        drop(ds);

        match DurableStore::open(&dir, DurableConfig::default()) {
            Err(StoreError::IntegrityMismatch { subtree, .. }) => {
                assert!(subtree.starts_with("wal frame lsn"), "subtree: {subtree}");
            }
            other => panic!("expected IntegrityMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log written with `authenticate: false` carries no root claims;
    /// an authenticated reopen replays it clean (nothing to check
    /// per-frame) and still recomputes + reports every extent root.
    #[test]
    fn unauthenticated_log_replays_clean_under_authenticated_open() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("unauth");
        let plain = DurableConfig {
            authenticate: false,
            ..DurableConfig::default()
        };
        let (mut ds, _) = DurableStore::open(&dir, plain).unwrap();
        populate(&mut ds);
        ds.sync().unwrap();
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.roots_verified, 0, "no claims to verify");
        assert_eq!(rep.extent_roots.len(), 2, "tree:t and list:song");
        assert!(back.authenticated());
        assert_eq!(
            back.tree_extent_root("t"),
            Some(merkle::tree_root(back.store(), back.tree("t").unwrap()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: recovery across a segment-rotation point verifies the
    /// root claim of every frame on both sides of the boundary.
    #[test]
    fn recovery_spans_a_rotation_point() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("rotspan");
        let cfg = DurableConfig {
            segment_bytes: 256,
            ..DurableConfig::default()
        };
        let (mut ds, _) = DurableStore::open(&dir, cfg.clone()).unwrap();
        let c = ds.define_class(note_class()).unwrap();
        for i in 0..20 {
            ds.insert(c, vec![Value::str(format!("p{i}"))]).unwrap();
        }
        let epoch = ds.epoch();
        ds.sync().unwrap();
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, cfg).unwrap();
        assert!(rep.clean(), "{rep}");
        assert!(rep.segments_scanned >= 2, "must cross a rotation");
        assert_eq!(rep.frames_replayed, epoch);
        assert_eq!(
            rep.roots_verified, epoch,
            "every frame's claim checked, rotation or not"
        );
        assert_eq!(back.store().len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a bit flip in the *first* frame of a fresh segment
    /// (torn at offset 0) discards that whole segment as a torn tail —
    /// detected, truncated, and durable.
    #[test]
    fn bit_flip_in_first_frame_of_fresh_segment() {
        let _lock = crate::test_lock::passing();
        use crate::wal::FRAME_HEADER;

        let dir = temp_dir("flip0");
        let cfg = DurableConfig {
            segment_bytes: 256,
            ..DurableConfig::default()
        };
        let (mut ds, _) = DurableStore::open(&dir, cfg.clone()).unwrap();
        let c = ds.define_class(note_class()).unwrap();
        for i in 0..20 {
            ds.insert(c, vec![Value::str(format!("p{i}"))]).unwrap();
        }
        ds.sync().unwrap();
        drop(ds);

        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 2, "need a fresh segment to damage");
        let (first_lsn, tail) = segs.last().unwrap();
        let mut bytes = std::fs::read(tail).unwrap();
        bytes[FRAME_HEADER + 2] ^= 0x01; // payload of frame 0
        std::fs::write(tail, &bytes).unwrap();

        let (back, rep) = DurableStore::open(&dir, cfg.clone()).unwrap();
        assert!(!rep.clean());
        assert!(rep.bytes_truncated > 0);
        assert_eq!(
            back.epoch(),
            first_lsn - 1,
            "everything before the damaged segment survives"
        );
        drop(back);
        let (_, rep) = DurableStore::open(&dir, cfg).unwrap();
        assert!(rep.clean(), "truncation is durable: {rep}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-record buffer whose second record depends on the first's
    /// OID: the shape every cross-shard participant sees.
    fn txn_buffer(ds: &DurableStore, c: ClassId) -> Vec<WalRecord> {
        let oid = Oid(ds.store().len() as u64);
        vec![
            WalRecord::Insert {
                class: c,
                row: vec![Value::str("Z")],
            },
            WalRecord::ListPush {
                name: "song".into(),
                oid,
            },
        ]
    }

    #[test]
    fn txn_prepare_buffers_without_applying_then_commit_applies() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("txn-commit");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        let len_before = ds.list("song").unwrap().len();
        let root_before = ds.store_root();

        let binding = ds.txn_prepare(1, &[0], txn_buffer(&ds, c)).unwrap();
        assert_ne!(binding, root_before, "binding is the *post*-apply root");
        assert_eq!(
            ds.list("song").unwrap().len(),
            len_before,
            "nothing applied"
        );
        assert_eq!(ds.pending_txns(), vec![1]);
        assert_eq!(ds.pending_participants(1), Some(&[0u32][..]));

        // Plain mutations, checkpoints, and second prepares are refused
        // while the outcome is undecided.
        let e = ds.insert(c, vec![Value::str("X")]).unwrap_err();
        assert!(matches!(
            e,
            StoreError::Txn(TxnError::MutationWhilePending { txn_id: 1 })
        ));
        assert!(ds.checkpoint().is_err());
        assert!(ds.txn_prepare(2, &[0], txn_buffer(&ds, c)).is_err());

        ds.txn_resolve(1, true).unwrap();
        assert_eq!(ds.list("song").unwrap().len(), len_before + 1);
        assert_eq!(
            ds.store_root(),
            binding,
            "commit lands exactly on the binding"
        );
        assert!(ds.pending_txns().is_empty());
        drop(ds);

        // Replay walks the same state machine: prepare parks, commit
        // outcome applies, and every bound root verifies.
        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(rep.clean(), "{rep}");
        assert_eq!(back.replayed_txn_outcomes(), &[(1, true)]);
        assert_eq!(back.list("song").unwrap().len(), len_before + 1);
        assert_eq!(back.store_root(), binding);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_prepare_survives_reopen_and_aborts_cleanly() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("txn-orphan");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        let len_before = ds.list("song").unwrap().len();
        let root_before = ds.store_root();
        ds.txn_prepare(7, &[0, 2], txn_buffer(&ds, c)).unwrap();
        drop(ds); // crash between prepare and outcome

        let (mut back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(rep.clean(), "{rep}");
        assert_eq!(back.pending_txns(), vec![7], "prepare survives the crash");
        assert_eq!(back.pending_participants(7), Some(&[0u32, 2][..]));
        assert_eq!(back.list("song").unwrap().len(), len_before, "not applied");
        assert_eq!(back.store_root(), root_before);

        back.txn_resolve(7, false).unwrap();
        assert!(back.pending_txns().is_empty());
        assert_eq!(back.store_root(), root_before, "abort changes nothing");
        let e = back.txn_resolve(7, false).unwrap_err();
        assert!(matches!(
            e,
            StoreError::Txn(TxnError::NoSuchTxn { txn_id: 7 })
        ));
        drop(back);

        let (again, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(rep.clean(), "{rep}");
        assert_eq!(again.replayed_txn_outcomes(), &[(7, false)]);
        assert_eq!(again.list("song").unwrap().len(), len_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_between_prepare_and_outcome_replays_clean() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("txn-rotate");
        let cfg = DurableConfig {
            segment_bytes: 256, // tiny: the prepare frame alone overflows
            ..DurableConfig::default()
        };
        let (mut ds, _) = DurableStore::open(&dir, cfg.clone()).unwrap();
        let (c, _) = populate(&mut ds);
        let seg_at_prepare = ds.wal.current_segment().to_path_buf();
        let fat = vec![
            WalRecord::Insert {
                class: c,
                row: vec![Value::str("Z".repeat(512))],
            },
            WalRecord::ListPush {
                name: "song".into(),
                oid: Oid(ds.store().len() as u64),
            },
        ];
        let binding = ds.txn_prepare(3, &[0], fat).unwrap();
        assert_ne!(
            ds.wal.current_segment(),
            seg_at_prepare,
            "prepare overflowed the segment, so the outcome lands in the next one"
        );
        ds.txn_resolve(3, true).unwrap();
        drop(ds);

        let (back, rep) = DurableStore::open(&dir, cfg).unwrap();
        assert!(rep.clean(), "{rep}");
        assert!(rep.segments_scanned >= 2, "{rep}");
        assert_eq!(back.replayed_txn_outcomes(), &[(3, true)]);
        assert_eq!(back.store_root(), binding);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_outcome_frame_leaves_the_prepare_pending() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("txn-torn");
        let (mut ds, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let (c, _) = populate(&mut ds);
        ds.txn_prepare(5, &[0], txn_buffer(&ds, c)).unwrap();
        let prepared_len = std::fs::metadata(ds.wal.current_segment()).unwrap().len();
        ds.txn_resolve(5, true).unwrap();
        let seg = ds.wal.current_segment().to_path_buf();
        drop(ds);

        // Tear the commit outcome frame mid-write: the prepare is the
        // last valid frame again.
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(prepared_len + 3).unwrap();
        drop(f);

        let (back, rep) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(!rep.clean());
        assert_eq!(
            back.pending_txns(),
            vec![5],
            "outcome torn away → pending again"
        );
        assert!(back.replayed_txn_outcomes().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
