//! # Online shard rebalancing
//!
//! Crash-safe shard-count changes for a [`ShardedStore`]: grow N→M or
//! shrink M→N while the store stays openable at every intermediate
//! byte. The unit of migration is a whole **top-segment subtree** —
//! every extent sharing one top path segment moves together, so the
//! co-location invariant the router guarantees (same top segment, same
//! shard) holds before, during, and after the relayout.
//!
//! ## Protocol
//!
//! 1. **Pin the stanza.** `shards.meta` gains a `migrating_to M` line
//!    while keeping the old count and epoch. The stanza is the ground
//!    truth: any opener that sees it resumes the migration before
//!    serving queries; an opener that does not is guaranteed the layout
//!    is settled.
//! 2. **Grow the fleet** (grow only): the target shards are opened
//!    (created empty) and the schema — class definitions in id order
//!    plus class-wide [`IndexSpec::Attr`] specs — is replicated onto
//!    them, idempotently.
//! 3. **Move subtrees**, one coordinator-logged transaction each. The
//!    move plan is derived by *state inspection* — every extent whose
//!    current shard disagrees with the target layout's owner nominates
//!    its top segment — so a fresh run and a resume plan identically
//!    with no extra bookkeeping. Each move prepares fsync'd
//!    [`WalRecord::TxnPrepare`] frames in both the source WAL (extent
//!    drops) and the destination WAL (object inserts, extent
//!    re-creates, per-extent index specs), logs one decision frame in
//!    `txn.log/`, then applies both outcomes — the exact
//!    presumed-abort machinery of [`ShardedStore::commit_gated`],
//!    reused via the shared two-phase-commit core with `rebalance.*`
//!    failpoints at its phase boundaries.
//! 4. **Commit the layout.** After the last move, `shards.meta` is
//!    atomically rewritten to the new count at **epoch + 1**, and only
//!    then are drained shard directories (shrink) and the migration
//!    log removed.
//!
//! A crash before step 4's meta rewrite resumes under the stanza
//! (moves already decided roll forward, undecided prepares presumed
//! abort, the plan re-derives what is left); a crash after it leaves a
//! settled store whose next open merely sweeps leftovers. The value
//! fingerprint never changes: objects are copied before the extents
//! that reference them and OIDs are remapped in creation order, so
//! every extent renders the same values from its new home. Orphaned
//! objects (unreachable from any extent) stay behind — identity is
//! shard-local and never part of the value contract.
//!
//! The migration log (`rebalance.log/`, [`WalRecord::RebalanceBegin`] /
//! [`WalRecord::RebalanceMoved`] / [`WalRecord::RebalanceCommit`]) is
//! an **advisory** progress trail for operators and tests: it is
//! scanned leniently on resume and reset wholesale on any corruption,
//! because the stanza plus shard state already determine exactly what
//! remains to move.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use aqua_guard::failpoint;
use aqua_object::{Oid, Value};

use crate::codec::{IndexSpec, WalRecord};
use crate::error::{Result, StoreError, TxnError};
use crate::recovery::DurableStore;
use crate::shard::{
    read_meta, shard_dir_name, write_meta, ExtentPath, PhaseProbes, ShardLayoutMeta, ShardRouter,
    ShardedStore, REBALANCE_LOG_DIR,
};
use crate::wal::{list_segments, scan_segment, Wal, WalConfig};

/// Failpoint before the migration stanza is pinned (crash ⇒ settled
/// store, nothing started).
pub const REBALANCE_BEGIN_CRASH: &str = "rebalance.begin.crash";
/// Failpoint inside a move's prepare phase (also armable per
/// participant as `rebalance.prepare.crash.<shard>`).
pub const REBALANCE_PREPARE_CRASH: &str = "rebalance.prepare.crash";
/// Failpoint between a move's prepares and its decision frame.
pub const REBALANCE_DECIDE_CRASH: &str = "rebalance.decide.crash";
/// Failpoint inside a move's outcome phase (also armable per
/// participant as `rebalance.outcome.crash.<shard>`).
pub const REBALANCE_OUTCOME_CRASH: &str = "rebalance.outcome.crash";
/// Failpoint after a move committed, before its advisory log frame.
pub const REBALANCE_MOVED_CRASH: &str = "rebalance.moved.crash";
/// Failpoint after every move, before the final layout commit.
pub const REBALANCE_COMMIT_CRASH: &str = "rebalance.commit.crash";
/// Failpoint after the layout commit, before leftover cleanup.
pub const REBALANCE_CLEANUP_CRASH: &str = "rebalance.cleanup.crash";

/// Probe names a rebalance subtree move checks at its 2PC boundaries.
const REBALANCE_PROBES: PhaseProbes = PhaseProbes {
    prepare: REBALANCE_PREPARE_CRASH,
    decide: REBALANCE_DECIDE_CRASH,
    outcome: REBALANCE_OUTCOME_CRASH,
};

/// What a completed [`ShardedStore::rebalance`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Shard count before.
    pub from: usize,
    /// Shard count after.
    pub to: usize,
    /// The layout epoch the store now serves at (old epoch + 1).
    pub epoch: u64,
    /// Subtree moves committed by this call.
    pub moves: u64,
    /// Whether this call picked up an already-pinned migration stanza
    /// instead of starting fresh.
    pub resumed: bool,
}

impl std::fmt::Display for RebalanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rebalanced {} → {} shards (epoch {}): {} subtree moves{}",
            self.from,
            self.to,
            self.epoch,
            self.moves,
            if self.resumed { ", resumed" } else { "" }
        )
    }
}

/// The top path segment an extent name migrates under (`""` for the
/// root path).
fn top_key(name: &str) -> String {
    ExtentPath::parse(name)
        .segments()
        .first()
        .map(|s| String::from_utf8_lossy(s).into_owned())
        .unwrap_or_default()
}

impl ShardedStore {
    /// Change the shard count online. See the [module docs](self) for
    /// the protocol; this is the ungated spelling of
    /// [`rebalance_gated`](Self::rebalance_gated).
    pub fn rebalance(&mut self, to: usize) -> Result<RebalanceReport> {
        self.rebalance_gated(to, || true)
    }

    /// Change the shard count online, polling `gate` before every
    /// subtree move and once more before the final layout commit. A
    /// gate refusal (or a clean per-move abort) surfaces as the
    /// *transient* [`StoreError::Rebalance`]: the stanza stays pinned,
    /// nothing is lost, and either calling again or reopening the store
    /// resumes the migration where it stopped. Calling with the
    /// currently settled count is a no-op; calling with a target that
    /// disagrees with an already-pinned migration is refused.
    pub fn rebalance_gated(
        &mut self,
        to: usize,
        mut gate: impl FnMut() -> bool,
    ) -> Result<RebalanceReport> {
        let epoch = self.router.epoch();
        if to == 0 {
            return Err(StoreError::Rebalance {
                epoch,
                msg: "target shard count must be ≥ 1".to_string(),
            });
        }
        let meta = read_meta(&self.dir)?.ok_or_else(|| StoreError::Rebalance {
            epoch,
            msg: format!("{} has no pinned layout to rebalance", self.dir.display()),
        })?;
        let resumed = match meta.migrating_to {
            Some(pinned) if pinned != to => {
                return Err(StoreError::Rebalance {
                    epoch: meta.epoch,
                    msg: format!(
                        "a migration to {pinned} shards is already pinned; it must finish \
                         (or resume) before a rebalance to {to} can begin"
                    ),
                });
            }
            Some(_) => true,
            None if to == meta.shards => {
                return Ok(RebalanceReport {
                    from: to,
                    to,
                    epoch: meta.epoch,
                    moves: 0,
                    resumed: false,
                });
            }
            None => {
                failpoint::check(REBALANCE_BEGIN_CRASH)?;
                // Pin the stanza *before* any shard sees a byte of the
                // migration: from here every opener resumes.
                write_meta(
                    &self.dir,
                    ShardLayoutMeta {
                        shards: meta.shards,
                        epoch: meta.epoch,
                        migrating_to: Some(to),
                    },
                )?;
                false
            }
        };
        let (from, epoch) = (meta.shards, meta.epoch);
        self.ensure_target_shards(from.max(to))?;
        self.replicate_schema(from, to)?;
        self.router = ShardRouter::migrating(from, to, epoch);
        let moves = self.complete_rebalance(from, to, epoch, &mut gate)?;
        Ok(RebalanceReport {
            from,
            to,
            epoch: epoch + 1,
            moves,
            resumed,
        })
    }

    /// Resume the migration a pinned stanza describes — called by
    /// [`ShardedStore::open`] after transaction resolution, before the
    /// global-root fold. Returns how many subtree moves this resume
    /// completed.
    pub(crate) fn resume_rebalance(&mut self, meta: ShardLayoutMeta, to: usize) -> Result<u64> {
        let from = meta.shards;
        self.replicate_schema(from, to)?;
        self.complete_rebalance(from, to, meta.epoch, &mut || true)
    }

    /// Remove what a completed rebalance may have left behind when it
    /// died between the layout commit and cleanup: the advisory
    /// migration log, and (after a shrink) drained shard directories
    /// past the settled count. Idempotent; called on every settled
    /// open and at the tail of every rebalance.
    pub(crate) fn sweep_rebalance_leftovers(&mut self) -> Result<()> {
        let log_dir = self.dir.join(REBALANCE_LOG_DIR);
        if log_dir.is_dir() {
            std::fs::remove_dir_all(&log_dir)
                .map_err(|e| StoreError::io("remove_dir", log_dir.display(), e))?;
        }
        // Shard directories are created in order, so the first missing
        // index past the settled count ends the sweep.
        let mut k = self.shards.len();
        loop {
            let dir = self.dir.join(shard_dir_name(k));
            if !dir.is_dir() {
                return Ok(());
            }
            std::fs::remove_dir_all(&dir)
                .map_err(|e| StoreError::io("remove_dir", dir.display(), e))?;
            k += 1;
        }
    }

    /// Open (creating empty) every shard up to `count`, arming each
    /// with this store's metrics sink. Grow-only; a shrink keeps the
    /// full fleet open until the layout commit.
    fn ensure_target_shards(&mut self, count: usize) -> Result<()> {
        while self.shards.len() < count {
            let dir = self.dir.join(shard_dir_name(self.shards.len()));
            let (mut ds, _report) = DurableStore::open(&dir, self.shard_cfg.clone())?;
            if let Some(m) = &self.metrics {
                ds.set_metrics(m.clone());
            }
            self.shards.push(ds);
        }
        Ok(())
    }

    /// Replicate the global schema onto the shards a grow added: class
    /// definitions in id order (so the deterministic [`aqua_object::ClassId`]
    /// assignment agrees fleet-wide), then class-wide attribute index
    /// specs. Idempotent — a resumed grow re-runs it harmlessly.
    fn replicate_schema(&mut self, from: usize, to: usize) -> Result<()> {
        if to <= from || from == 0 {
            return Ok(());
        }
        let defs: Vec<aqua_object::ClassDef> = (0..self.shards[0].store().class_count())
            .map(|id| {
                self.shards[0]
                    .store()
                    .class(aqua_object::ClassId(id as u32))
                    .clone()
            })
            .collect();
        let attr_specs: Vec<IndexSpec> = self.shards[0]
            .specs()
            .iter()
            .filter(|s| matches!(s, IndexSpec::Attr { .. }))
            .cloned()
            .collect();
        for sh in self.shards[from..to].iter_mut() {
            for def in &defs {
                if sh.store().class_id(def.name()).is_err() {
                    sh.define_class(def.clone())?;
                }
            }
            for spec in &attr_specs {
                if !sh.specs().contains(spec) {
                    sh.register_index(spec.clone())?;
                }
            }
        }
        Ok(())
    }

    /// The sorted move plan, derived from state: every extent whose
    /// current shard disagrees with the target layout's owner nominates
    /// `(top segment, current shard, owner)`. Identical whether the
    /// migration is fresh or resumed — committed moves no longer
    /// disagree, so they drop out on their own.
    fn plan_moves(&self) -> Vec<(String, usize, usize)> {
        let mut plan = BTreeSet::new();
        for (s, store) in self.shards.iter().enumerate() {
            for name in store.trees().keys().chain(store.lists().keys()) {
                let dest = self.router.route_name(name);
                if dest != s {
                    plan.insert((top_key(name), s, dest));
                }
            }
        }
        plan.into_iter().collect()
    }

    /// Build one subtree move's per-participant buffers. Destination:
    /// inserts for every object the moving extents reach (closed over
    /// `Ref`-valued attributes, first-seen order, OIDs predicted from
    /// the destination's next slot), then list re-creates with pushes
    /// in position order, tree re-creates with payload OIDs remapped,
    /// and the per-extent index specs. Source: one drop per moved
    /// extent. Orphans — objects no extent reaches — stay behind.
    fn move_buffers(&self, src: usize, dest: usize, top: &str) -> BTreeMap<u32, Vec<WalRecord>> {
        let src_store = &self.shards[src];
        let list_names: Vec<String> = src_store
            .lists()
            .keys()
            .filter(|n| top_key(n) == top)
            .cloned()
            .collect();
        let tree_names: Vec<String> = src_store
            .trees()
            .keys()
            .filter(|n| top_key(n) == top)
            .cloned()
            .collect();

        // Reachable-object closure, first-seen order. Dangling OIDs (an
        // extent may legally reference a never-inserted slot) stay
        // unmapped and move verbatim.
        let base = self.shards[dest].store().len() as u64;
        let mut order: Vec<Oid> = Vec::new();
        let mut remap: BTreeMap<Oid, Oid> = BTreeMap::new();
        let mut queue: VecDeque<Oid> = VecDeque::new();
        for n in &list_names {
            queue.extend(src_store.list(n).expect("planned list exists").oids());
        }
        for n in &tree_names {
            let t = src_store.tree(n).expect("planned tree exists");
            queue.extend(t.iter_preorder().filter_map(|node| t.oid(node)));
        }
        while let Some(oid) = queue.pop_front() {
            if remap.contains_key(&oid) {
                continue;
            }
            let Ok(obj) = src_store.store().get(oid) else {
                continue;
            };
            remap.insert(oid, Oid(base + order.len() as u64));
            order.push(oid);
            for v in obj.values() {
                if let Value::Ref(r) = v {
                    queue.push_back(*r);
                }
            }
        }
        let moved = |oid: Oid| remap.get(&oid).copied().unwrap_or(oid);

        let mut dest_recs = Vec::new();
        for &old in &order {
            let obj = src_store.store().get(old).expect("walked object exists");
            let row: Vec<Value> = obj
                .values()
                .iter()
                .map(|v| match v {
                    Value::Ref(r) => Value::Ref(moved(*r)),
                    other => other.clone(),
                })
                .collect();
            dest_recs.push(WalRecord::Insert {
                class: obj.class(),
                row,
            });
        }
        for n in &list_names {
            dest_recs.push(WalRecord::ListCreate { name: n.clone() });
            for e in src_store.list(n).expect("planned list exists").elems() {
                if let Some(oid) = e.oid() {
                    dest_recs.push(WalRecord::ListPush {
                        name: n.clone(),
                        oid: moved(oid),
                    });
                } else if let Some(label) = e.hole() {
                    dest_recs.push(WalRecord::ListPushHole {
                        name: n.clone(),
                        label: label.0.clone(),
                    });
                }
            }
        }
        for n in &tree_names {
            let mut tree = src_store.tree(n).expect("planned tree exists").clone();
            let nodes: Vec<_> = tree.iter_preorder().collect();
            for node in nodes {
                if let Some(old) = tree.oid(node) {
                    if let Some(&new) = remap.get(&old) {
                        tree = tree
                            .set_oid(node, new)
                            .expect("node ids stay valid under payload updates");
                    }
                }
            }
            dest_recs.push(WalRecord::TreeCreate {
                name: n.clone(),
                tree,
            });
        }
        for spec in src_store.specs() {
            let rides_along = match spec {
                IndexSpec::TreeNode { tree, .. } | IndexSpec::Structural { tree } => {
                    tree_names.contains(tree)
                }
                IndexSpec::ListPos { list, .. } => list_names.contains(list),
                IndexSpec::Attr { .. } => false,
            };
            if rides_along && !self.shards[dest].specs().contains(spec) {
                dest_recs.push(WalRecord::RegisterIndex { spec: spec.clone() });
            }
        }

        let mut src_recs = Vec::new();
        for n in &list_names {
            src_recs.push(WalRecord::ListDrop { name: n.clone() });
        }
        for n in &tree_names {
            src_recs.push(WalRecord::TreeDrop { name: n.clone() });
        }

        BTreeMap::from([(src as u32, src_recs), (dest as u32, dest_recs)])
    }

    /// Open (or reset) the advisory migration log positioned to append.
    /// The scan is lenient by design: lsn gaps, unexpected record
    /// shapes, epoch mismatches, torn tails, or undecodable segments
    /// all reset the log wholesale — the stanza and shard state are the
    /// ground truth, the log is narration.
    fn open_rebalance_log(&self, from: usize, to: usize, epoch: u64) -> Result<Wal> {
        let dir = self.dir.join(REBALANCE_LOG_DIR);
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io("create_dir", dir.display(), e))?;
        let mut next_lsn = 1u64;
        let mut saw_begin = false;
        let mut valid = true;
        let segs = list_segments(&dir).unwrap_or_default();
        'scan: for (i, (_, path)) in segs.iter().enumerate() {
            let Ok(scan) = scan_segment(path) else {
                valid = false;
                break;
            };
            for (lsn, rec, _) in &scan.frames {
                let shaped = match rec {
                    WalRecord::RebalanceBegin {
                        epoch: e,
                        from: f,
                        to: t,
                    } => {
                        let first = !saw_begin;
                        saw_begin = true;
                        first && *e == epoch && *f == from as u32 && *t == to as u32
                    }
                    WalRecord::RebalanceMoved { epoch: e, .. }
                    | WalRecord::RebalanceCommit { epoch: e } => saw_begin && *e == epoch,
                    _ => false,
                };
                if *lsn != next_lsn || !shaped {
                    valid = false;
                    break 'scan;
                }
                next_lsn += 1;
            }
            if scan.torn() {
                // Truncate the tear and drop any later segments so the
                // surviving prefix is appendable again.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io("open", path.display(), e))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| StoreError::io("truncate", path.display(), e))?;
                f.sync_data()
                    .map_err(|e| StoreError::io("fsync", path.display(), e))?;
                for (_, later) in &segs[i + 1..] {
                    std::fs::remove_file(later)
                        .map_err(|e| StoreError::io("remove", later.display(), e))?;
                }
                break;
            }
        }
        if !valid {
            for (_, path) in list_segments(&dir).unwrap_or_default() {
                std::fs::remove_file(&path)
                    .map_err(|e| StoreError::io("remove", path.display(), e))?;
            }
            next_lsn = 1;
            saw_begin = false;
        }
        let mut wal = Wal::open(
            &dir,
            next_lsn,
            WalConfig {
                segment_bytes: self.shard_cfg.segment_bytes,
            },
        )?;
        if !saw_begin {
            wal.append_with_root(
                &WalRecord::RebalanceBegin {
                    epoch,
                    from: from as u32,
                    to: to as u32,
                },
                None,
            )?;
            wal.sync()?;
        }
        Ok(wal)
    }

    /// Drive the pinned migration to a settled layout: move every
    /// disagreeing subtree through the shared 2PC core, then commit the
    /// new count at epoch + 1 and clean up. Returns the number of moves
    /// this call committed.
    fn complete_rebalance(
        &mut self,
        from: usize,
        to: usize,
        epoch: u64,
        gate: &mut impl FnMut() -> bool,
    ) -> Result<u64> {
        let mut log = self.open_rebalance_log(from, to, epoch)?;
        let mut moves = 0u64;
        for (top, src, dest) in self.plan_moves() {
            if !gate() {
                return Err(StoreError::Rebalance {
                    epoch,
                    msg: format!("interrupted before moving subtree '{top}'"),
                });
            }
            let buffers = self.move_buffers(src, dest, &top);
            let started = Instant::now();
            match self.two_phase_commit(&buffers, &mut *gate, &REBALANCE_PROBES) {
                Ok(_txn_id) => {}
                Err(StoreError::Txn(TxnError::Aborted { reason, .. })) => {
                    return Err(StoreError::Rebalance {
                        epoch,
                        msg: format!("move of subtree '{top}' aborted: {reason}"),
                    });
                }
                Err(e) => return Err(e),
            }
            failpoint::check(REBALANCE_MOVED_CRASH)?;
            log.append_with_root(&WalRecord::RebalanceMoved { epoch, top }, None)?;
            log.sync()?;
            if let Some(m) = &self.metrics {
                m.rebalance_moves.inc();
                m.rebalance_move_us
                    .record(started.elapsed().as_micros() as u64);
            }
            moves += 1;
        }
        if !gate() {
            return Err(StoreError::Rebalance {
                epoch,
                msg: "interrupted before the layout commit".to_string(),
            });
        }
        failpoint::check(REBALANCE_COMMIT_CRASH)?;
        log.append_with_root(&WalRecord::RebalanceCommit { epoch }, None)?;
        log.sync()?;
        // The decision point for the layout itself: once the settled
        // meta is durable the migration is over — everything after is
        // idempotent cleanup the next open re-runs if we die here.
        write_meta(&self.dir, ShardLayoutMeta::settled(to, epoch + 1))?;
        failpoint::check(REBALANCE_CLEANUP_CRASH)?;
        drop(log);
        self.router = ShardRouter::at_epoch(to, epoch + 1);
        self.shards.truncate(to.max(1));
        self.sweep_rebalance_leftovers()?;
        self.refresh_indexes()?;
        if let Some(m) = &self.metrics {
            m.rebalance_runs.inc();
        }
        Ok(moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedConfig;
    use aqua_object::{AttrDef, AttrId, AttrType, ClassDef};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "aqua-rebalance-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn note_class() -> ClassDef {
        ClassDef::new("Note", vec![AttrDef::stored("pitch", AttrType::Str)]).unwrap()
    }

    /// Populate `n` list subtrees plus one tree subtree and return the
    /// value rendering every layout must preserve.
    fn populate(ss: &mut ShardedStore, n: usize) -> Vec<String> {
        let class = ss.define_class(note_class()).unwrap();
        let mut names = Vec::new();
        for i in 0..n {
            let name = format!("p{i}/song");
            ss.create_list(&name).unwrap();
            for p in ["E", "F", "G"] {
                let (_, oid) = ss
                    .insert(&name, class, vec![Value::str(format!("{p}{i}"))])
                    .unwrap();
                ss.list_push(&name, oid).unwrap();
            }
            names.push(name);
        }
        let tname = "arbor/doc".to_string();
        let (_, leaf) = ss.insert(&tname, class, vec![Value::str("root")]).unwrap();
        ss.create_tree(&tname, aqua_algebra::Tree::leaf(leaf))
            .unwrap();
        names.push(tname);
        ss.sync().unwrap();
        names
    }

    /// Render every extent's attr-0 values from its owning shard — the
    /// value fingerprint rebalancing must keep byte-identical.
    fn render(ss: &ShardedStore, names: &[String]) -> Vec<String> {
        names
            .iter()
            .map(|name| {
                let sh = ss.shard(ss.shard_of(name));
                if let Some(l) = sh.list(name) {
                    let vals: Vec<String> = l
                        .elems()
                        .iter()
                        .map(|e| match e.oid() {
                            Some(o) => format!("{:?}", sh.store().deref(o).get(AttrId(0))),
                            None => "∅".to_string(),
                        })
                        .collect();
                    format!("{name}=[{}]", vals.join(","))
                } else if let Some(t) = sh.tree(name) {
                    let vals: Vec<String> = t
                        .iter_preorder()
                        .map(|node| match t.oid(node) {
                            Some(o) => format!("{:?}", sh.store().deref(o).get(AttrId(0))),
                            None => "∅".to_string(),
                        })
                        .collect();
                    format!("{name}=({})", vals.join(","))
                } else {
                    format!("{name}=MISSING")
                }
            })
            .collect()
    }

    #[test]
    fn grow_preserves_values_and_bumps_epoch() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("grow");
        let cfg = ShardedConfig::with_shards(1);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let names = populate(&mut ss, 8);
        let before = render(&ss, &names);

        let rep = ss.rebalance(4).unwrap();
        assert_eq!((rep.from, rep.to, rep.epoch), (1, 4, 2));
        assert!(rep.moves > 0, "8 subtrees over 4 shards must move some");
        assert!(!rep.resumed);
        assert_eq!(ss.shard_count(), 4);
        assert_eq!(ss.layout_epoch(), 2);
        assert!(!ss.router().is_migrating());
        assert_eq!(render(&ss, &names), before, "values survive the grow");
        for name in &names {
            assert_eq!(
                ss.shard_of(name),
                ss.router().route_name(name),
                "{name} settled on its new-layout owner"
            );
        }
        assert!(
            !dir.join(REBALANCE_LOG_DIR).exists(),
            "migration log cleaned up"
        );

        // Reopen settles identically; the old cfg (1 shard) is stale now.
        drop(ss);
        let err = ShardedStore::open(&dir, cfg).unwrap_err();
        assert!(matches!(err, StoreError::ShardLayout { .. }), "got {err:?}");
        let (back, rep) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        assert!(rep.clean());
        assert_eq!(rep.layout_epoch, 2);
        assert_eq!(render(&back, &names), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrink_preserves_values_and_removes_drained_dirs() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("shrink");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        let names = populate(&mut ss, 8);
        let before = render(&ss, &names);
        let root_before = ss.global_root();

        let rep = ss.rebalance(2).unwrap();
        assert_eq!((rep.from, rep.to, rep.epoch), (4, 2, 2));
        assert_eq!(ss.shard_count(), 2);
        assert_eq!(render(&ss, &names), before, "values survive the shrink");
        assert_ne!(
            ss.global_root(),
            root_before,
            "layout is part of the fold (shard count changed)"
        );
        for k in 2..4 {
            assert!(
                !dir.join(shard_dir_name(k)).exists(),
                "drained shard {k} removed"
            );
        }
        drop(ss);
        let (back, rep) = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap();
        assert!(rep.clean());
        assert_eq!(render(&back, &names), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebalance_is_a_noop_at_the_current_count_and_refuses_zero() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("noop");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap();
        let names = populate(&mut ss, 4);
        let before = render(&ss, &names);
        let rep = ss.rebalance(2).unwrap();
        assert_eq!((rep.moves, rep.epoch), (0, 1), "no-op keeps the epoch");
        assert_eq!(render(&ss, &names), before);
        let err = ss.rebalance(0).unwrap_err();
        assert!(matches!(err, StoreError::Rebalance { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_refusal_is_transient_and_resumable_in_process() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("gate");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(1)).unwrap();
        let names = populate(&mut ss, 8);
        let before = render(&ss, &names);

        // Allow exactly one move, then refuse: the run stops cleanly
        // with the stanza pinned and the one move durable.
        let mut polls = 0u32;
        let err = ss
            .rebalance_gated(4, || {
                polls += 1;
                polls <= 2
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Rebalance { .. }), "got {err:?}");
        assert_eq!(err.class(), aqua_guard::ErrorClass::Transient);
        assert!(
            ss.router().is_migrating(),
            "stanza stays pinned after the refusal"
        );
        assert_eq!(
            render(&ss, &names),
            before,
            "dual-route window serves reads"
        );

        // A later ungated call resumes from where the gate stopped.
        let rep = ss.rebalance(4).unwrap();
        assert!(rep.resumed);
        assert_eq!(ss.layout_epoch(), 2);
        assert_eq!(render(&ss, &names), before);

        // A conflicting target while a stanza is pinned is refused.
        let err = ss.rebalance_gated(3, || false).unwrap_err();
        assert!(matches!(err, StoreError::Rebalance { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_between_a_moves_prepare_and_outcome_replays_clean() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("rotate");
        let cfg = ShardedConfig {
            shards: 1,
            shard: crate::recovery::DurableConfig {
                segment_bytes: 512, // tiny: one prepare frame alone overflows
                ..Default::default()
            },
            ..ShardedConfig::default()
        };
        let (mut ss, _) = ShardedStore::open(&dir, cfg).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        // Top keys longer than a whole segment: the source's prepare
        // (wrapping `ListDrop{name}`) and the destination's (wrapping
        // `ListCreate{name}` + inserts) each trigger a rotation, so the
        // outcome frame of the same move lands in the *next* segment on
        // both participants.
        let mut names = Vec::new();
        for i in 0..12 {
            let name = format!("t{i}{}/song", "K".repeat(600));
            ss.create_list(&name).unwrap();
            let (_, oid) = ss.insert(&name, class, vec![Value::str("E")]).unwrap();
            ss.list_push(&name, oid).unwrap();
            names.push(name);
        }
        ss.sync().unwrap();
        let before = render(&ss, &names);
        let src_segs = list_segments(&dir.join(shard_dir_name(0))).unwrap().len();

        // Kill after the first move's decision is durable but before
        // either outcome applies: recovery must pair each prepare with
        // its roll-forward outcome *across* the rotation boundary.
        failpoint::arm_times(REBALANCE_OUTCOME_CRASH, "kill", 1);
        let err = ss.rebalance(2).unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }), "got {err:?}");
        drop(ss); // simulated process death: no cleanup ran

        let src_now = list_segments(&dir.join(shard_dir_name(0))).unwrap().len();
        let dest_now = list_segments(&dir.join(shard_dir_name(1))).unwrap().len();
        assert!(
            src_now > src_segs,
            "source prepare must rotate ({src_segs} → {src_now} segments)"
        );
        assert!(
            dest_now >= 2,
            "destination prepare must rotate (got {dest_now} segment(s))"
        );

        let (back, rep) = ShardedStore::open(&dir, ShardedConfig::with_shards(0)).unwrap();
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.txns_committed, 1, "crashed move rolls forward: {rep}");
        assert_eq!(rep.layout_epoch, 2, "resume settles the layout");
        for sh in &rep.shards {
            assert!(sh.segments_scanned >= 2, "replay crossed a rotation: {sh}");
        }
        assert_eq!(render(&back, &names), before, "values survive the crash");
        assert_eq!(
            back.global_root(),
            rep.global_root,
            "fold matches the recovered shards"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ref_valued_attributes_are_remapped_with_their_objects() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("refs");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(1)).unwrap();
        let class = ss
            .define_class(
                ClassDef::new(
                    "Linked",
                    vec![
                        AttrDef::stored("pitch", AttrType::Str),
                        AttrDef::stored("next", AttrType::Ref),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let name = "chain/song";
        ss.create_list(name).unwrap();
        let (_, tail) = ss
            .insert(name, class, vec![Value::str("Z"), Value::Null])
            .unwrap();
        let (_, head) = ss
            .insert(name, class, vec![Value::str("A"), Value::Ref(tail)])
            .unwrap();
        ss.list_push(name, head).unwrap();
        ss.sync().unwrap();

        ss.rebalance(4).unwrap();
        let sh = ss.shard(ss.shard_of(name));
        let head_now = sh.list(name).unwrap().elems()[0].oid().unwrap();
        let head_obj = sh.store().deref(head_now);
        assert_eq!(head_obj.get(AttrId(0)), &Value::str("A"));
        let Value::Ref(tail_now) = head_obj.get(AttrId(1)) else {
            panic!("ref survived as {:?}", head_obj.get(AttrId(1)));
        };
        assert_eq!(
            sh.store().deref(*tail_now).get(AttrId(0)),
            &Value::str("Z"),
            "the referenced object moved along and the ref follows it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
