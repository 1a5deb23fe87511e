//! The commit mix: seeded ops that pair a push or insert with a remove,
//! so extent sizes stay steady over a run.

use std::collections::VecDeque;

use aqua_algebra::{NodeId, Tree};
use aqua_object::{ClassId, Oid};
use aqua_store::{ShardTxn, ShardedStore};
use aqua_workload::music::PITCHES;

use crate::population::{list_path, note_row, row_bytes, tree_path, Rng, Zipf};

/// Checkpoint after every this many acknowledged commits (prune on).
pub const CHECKPOINT_EVERY: u64 = 512;

/// Commits applied after the final checkpoint, so that the timed
/// reopen replays the same number of frames in every run.
pub const TAIL_COMMITS: usize = 64;

/// One record of an op.
#[derive(Debug, Clone)]
enum Step {
    /// Insert a `Note` owned by path `k`.
    Insert {
        k: usize,
        pitch: &'static str,
        dur: i64,
    },
    /// Append to list `k`: a known OID, or the one the op just inserted.
    Push { k: usize, oid: Option<Oid> },
    /// Remove list `k`'s head.
    RemoveHead { k: usize },
    /// Remove leaf `node` of tree `k`.
    RemoveLeaf { k: usize, node: NodeId },
    /// Insert a leaf holding `oid` as child `slot` of `parent` (node ids
    /// of the tree after the preceding removal).
    InsertLeaf {
        k: usize,
        parent: NodeId,
        slot: usize,
        oid: Oid,
    },
}

/// A planned commit.
#[derive(Debug, Clone)]
pub struct Op {
    steps: Vec<Step>,
    /// Paths whose shards take part.
    pub paths: Vec<usize>,
    /// Attribute bytes the op writes.
    pub user_bytes: u64,
}

/// The kinds of commit in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Push list `k`'s head back onto its tail, then remove the head.
    Rotate,
    /// Remove a leaf of tree `k` and re-insert its note elsewhere.
    TreeMove,
    /// Insert a new note, push it onto list `k`, remove the head.
    InsertPush,
    /// Rotate two lists on different shards: two-phase commit.
    Cross,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [
        OpKind::Rotate,
        OpKind::TreeMove,
        OpKind::InsertPush,
        OpKind::Cross,
    ];

    /// Share of the mix, in `ALL` order.
    ///
    /// Inserts stay rare: under authentication an insert rehashes its
    /// whole shard, and objects are never deleted, so every insert makes
    /// the next one dearer. At 2% the object store grows ~2% in a
    /// 20-second run, and the commit tail still lands among inserts.
    const SHARE: [f64; 4] = [0.63, 0.25, 0.02, 0.10];
}

/// The seeded op stream.
pub struct WriteGen {
    rng: Rng,
    zipf: Zipf,
    class: ClassId,
    routes: Vec<usize>,
}

impl WriteGen {
    pub fn new(seed: u64, stream: u64, class: ClassId, routes: Vec<usize>) -> WriteGen {
        WriteGen {
            rng: Rng::new(seed, stream),
            zipf: Zipf::new(routes.len()),
            class,
            routes,
        }
    }

    fn rotate(&self, ss: &ShardedStore, k: usize, steps: &mut Vec<Step>) -> Result<(), String> {
        let head = ss
            .list(&list_path(k))
            .and_then(|l| l.elems().first())
            .and_then(|e| e.oid())
            .ok_or_else(|| format!("list {} has no head", list_path(k)))?;
        steps.push(Step::Push { k, oid: Some(head) });
        steps.push(Step::RemoveHead { k });
        Ok(())
    }

    /// Plan the next op of the mix against the store's current state.
    pub fn next(&mut self, ss: &ShardedStore) -> Result<Op, String> {
        let u = self.rng.unit();
        let mut acc = 0.0;
        let mut kind = OpKind::Rotate;
        for (i, k) in OpKind::ALL.into_iter().enumerate() {
            acc += OpKind::SHARE[i];
            kind = k;
            if u < acc {
                break;
            }
        }
        self.plan(ss, kind)
    }

    /// Plan an op of `kind` on a path drawn from the skewed distribution.
    pub fn plan(&mut self, ss: &ShardedStore, kind: OpKind) -> Result<Op, String> {
        let k = self.zipf.draw(&mut self.rng);
        let mut steps = Vec::new();
        let mut paths = vec![k];
        let mut user_bytes = 0;
        match kind {
            OpKind::Rotate => self.rotate(ss, k, &mut steps)?,
            OpKind::TreeMove => {
                let t = ss
                    .tree(&tree_path(k))
                    .ok_or_else(|| format!("missing tree {}", tree_path(k)))?;
                let leaves: Vec<NodeId> = (0..t.len() as u32)
                    .map(NodeId)
                    .filter(|&n| n != t.root() && t.is_leaf(n))
                    .collect();
                let leaf = leaves[self.rng.below(leaves.len())];
                let oid = t.oid(leaf).ok_or("tree leaf is a hole")?;
                let rest: Tree = t.remove_subtree(leaf).map_err(|e| e.to_string())?;
                let parent = NodeId(self.rng.below(rest.len()) as u32);
                let slot = self.rng.below(rest.children(parent).len() + 1);
                steps.push(Step::RemoveLeaf { k, node: leaf });
                steps.push(Step::InsertLeaf {
                    k,
                    parent,
                    slot,
                    oid,
                });
            }
            OpKind::InsertPush => {
                let pitch = PITCHES[self.rng.below(PITCHES.len())];
                let dur = 1 + self.rng.below(8) as i64;
                user_bytes += row_bytes(pitch);
                steps.push(Step::Insert { k, pitch, dur });
                steps.push(Step::Push { k, oid: None });
                steps.push(Step::RemoveHead { k });
            }
            OpKind::Cross => {
                let other: Vec<usize> = (0..self.routes.len())
                    .filter(|&j| self.routes[j] != self.routes[k])
                    .collect();
                self.rotate(ss, k, &mut steps)?;
                if !other.is_empty() {
                    let j = other[self.zipf.draw(&mut self.rng) % other.len()];
                    self.rotate(ss, j, &mut steps)?;
                    paths.push(j);
                }
            }
        }
        Ok(Op {
            steps,
            paths,
            user_bytes,
        })
    }

    /// Buffer `op` as one cross-shard transaction.
    pub fn txn(&self, ss: &ShardedStore, op: &Op) -> ShardTxn {
        let mut txn = ss.begin();
        let mut last = None;
        for s in &op.steps {
            match *s {
                Step::Insert { k, pitch, dur } => {
                    last = Some(
                        txn.insert(&list_path(k), self.class, note_row(pitch, dur))
                            .1,
                    );
                }
                Step::Push { k, oid } => txn.list_push(
                    &list_path(k),
                    oid.or(last).expect("push follows its insert"),
                ),
                Step::RemoveHead { k } => txn.list_remove(&list_path(k), 0),
                Step::RemoveLeaf { k, node } => txn.tree_remove_subtree(&tree_path(k), node),
                Step::InsertLeaf {
                    k,
                    parent,
                    slot,
                    oid,
                } => txn.tree_insert_child(&tree_path(k), parent, slot, Tree::leaf(oid)),
            }
        }
        txn
    }

    /// Apply a one-shard `op` through the routed calls, unsynced.
    pub fn apply_routed(&self, ss: &mut ShardedStore, op: &Op) -> Result<(), String> {
        let mut last = None;
        let e = |e: aqua_store::StoreError| e.to_string();
        for s in &op.steps {
            match *s {
                Step::Insert { k, pitch, dur } => {
                    last = Some(
                        ss.insert(&list_path(k), self.class, note_row(pitch, dur))
                            .map_err(e)?
                            .1,
                    );
                }
                Step::Push { k, oid } => {
                    let oid = oid.or(last).expect("push follows its insert");
                    ss.list_push(&list_path(k), oid).map_err(e)?;
                }
                Step::RemoveHead { k } => ss.list_remove(&list_path(k), 0).map_err(e)?,
                Step::RemoveLeaf { k, node } => {
                    ss.tree_remove_subtree(&tree_path(k), node).map_err(e)?
                }
                Step::InsertLeaf {
                    k,
                    parent,
                    slot,
                    oid,
                } => ss
                    .tree_insert_child(&tree_path(k), parent, slot, Tree::leaf(oid))
                    .map_err(e)?,
            }
        }
        Ok(())
    }
}

/// The client's model of every list: what an acknowledged commit must
/// leave behind. Checked against the live store and after the reopen.
pub struct ListModel {
    lists: Vec<VecDeque<Oid>>,
}

impl ListModel {
    pub fn new(ss: &ShardedStore, paths: usize) -> ListModel {
        ListModel {
            lists: (0..paths)
                .map(|k| {
                    ss.list(&list_path(k))
                        .map(|l| l.oids().into_iter().collect())
                        .unwrap_or_default()
                })
                .collect(),
        }
    }

    /// Record an acknowledged `op`; `inserted` is the OID its insert
    /// received, if it had one.
    pub fn ack(&mut self, op: &Op, inserted: Option<Oid>) {
        for s in &op.steps {
            match *s {
                Step::Push { k, oid } => self.lists[k].push_back(
                    oid.or(inserted)
                        .expect("an inserted push is acknowledged with its OID"),
                ),
                Step::RemoveHead { k } => {
                    self.lists[k].pop_front();
                }
                _ => {}
            }
        }
    }

    /// The OID an insert step of `op` will receive: the next slot of the
    /// owning shard's object store.
    pub fn predicted_insert(ss: &ShardedStore, op: &Op) -> Option<Oid> {
        op.steps.iter().find_map(|s| match *s {
            Step::Insert { k, .. } => {
                let sh = ss.shard_of(&list_path(k));
                Some(Oid(ss.shard(sh).store().len() as u64))
            }
            _ => None,
        })
    }

    /// Every list equals its model: each acknowledged push is present,
    /// in order.
    pub fn check(&self, ss: &ShardedStore) -> Result<(), String> {
        for (k, want) in self.lists.iter().enumerate() {
            let got: Vec<Oid> = ss.list(&list_path(k)).map(|l| l.oids()).unwrap_or_default();
            if got.len() != want.len() || got.iter().zip(want).any(|(a, b)| a != b) {
                return Err(format!(
                    "list {} differs from the acknowledged pushes ({} vs {} elements)",
                    list_path(k),
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }
}
