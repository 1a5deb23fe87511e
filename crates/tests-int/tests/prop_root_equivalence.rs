//! Root equivalence for the authenticated write path.
//!
//! The write path advances per-extent merkle roots incrementally: an
//! `Insert` or `Update` rehashes only the extents whose cells hold the
//! affected OID, a tree or list op only the extent it names. These
//! suites drive a seeded mix of records through one `DurableStore` and
//! through a 2-shard `ShardedStore`, authentication on, and after every
//! record demand that
//!
//! * each tracked extent root equals a from-scratch `tree_root` /
//!   `list_root`,
//! * the tracked store root equals the fold of that recompute, and
//! * the last WAL frame's bound root equals the same fold.
//!
//! The mix covers inserts that resolve dangling cells (`ListPush` and
//! `TreeCreate`/`TreeInsertChild` accept OIDs that do not exist yet),
//! updates of OIDs held by zero, one and several extents, list and tree
//! ops, and (sharded) 2PC buffers that push a predicted OID, insert it,
//! and push it again. Every run ends with a reopen that must verify.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use aqua_algebra::{NodeId, Tree};
use aqua_object::{AttrId, ClassId, ObjectError, Oid, Value};
use aqua_store::{
    list_root, list_segments, scan_segment, store_root, tree_root, DurableConfig, DurableStore,
    Root, ShardedConfig, ShardedStore, StoreError, Wal, WalConfig, WalRecord,
};
use aqua_workload::MutationStorm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATHS: usize = 4;
const OPS: usize = 160;

const SEEDS: [u64; 4] = [1, 7, 13, 99];

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aqua-rooteq-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg() -> DurableConfig {
    DurableConfig {
        // Small segments and periodic checkpoints: frames rotate and
        // snapshots interleave with the records under test.
        segment_bytes: 4096,
        checkpoint_every: 48,
        prune: true,
        authenticate: true,
    }
}

fn sharded_cfg() -> ShardedConfig {
    ShardedConfig {
        shards: 2,
        shard: durable_cfg(),
        recovery_threads: 0,
        pin_epoch: None,
    }
}

fn list_name(k: usize) -> String {
    format!("p{k}/song")
}

fn tree_name(k: usize) -> String {
    format!("p{k}/doc")
}

fn row(rng: &mut StdRng) -> Vec<Value> {
    let pitch = ["C", "D", "E", "F", "G"][rng.gen_range(0..5usize)];
    vec![Value::str(pitch), Value::Int(rng.gen_range(1..=8i64))]
}

/// The root the newest surviving WAL frame bound (`None` when every
/// segment is empty, e.g. right after a pruning checkpoint).
fn last_bound_root(dir: &Path) -> Option<Root> {
    for (_, path) in list_segments(dir).unwrap().iter().rev() {
        if let Some((_, _, claim)) = scan_segment(path).unwrap().frames.pop() {
            return Some(claim.expect("authenticated frames bind a root"));
        }
    }
    None
}

/// The equivalence check for one shard.
fn assert_roots_recompute(ds: &DurableStore, ctx: &str) {
    let mut extents = Vec::new();
    for (name, t) in ds.trees() {
        let r = tree_root(ds.store(), t);
        assert_eq!(ds.tree_extent_root(name), Some(r), "{ctx}: tree:{name}");
        extents.push((1u8, name.as_str(), r));
    }
    for (name, l) in ds.lists() {
        let r = list_root(ds.store(), l);
        assert_eq!(ds.list_extent_root(name), Some(r), "{ctx}: list:{name}");
        extents.push((2u8, name.as_str(), r));
    }
    let folded = store_root(extents);
    assert_eq!(ds.store_root(), folded, "{ctx}: tracked store root");
    if let Some(bound) = last_bound_root(ds.dir()) {
        assert_eq!(bound, folded, "{ctx}: last frame's bound root");
    }
}

/// How many extents of `ds` hold `oid` in some cell.
fn holders(ds: &DurableStore, oid: Oid) -> usize {
    let in_trees = ds
        .trees()
        .values()
        .filter(|t| t.cols().cell_oids().contains(&oid));
    let in_lists = ds
        .lists()
        .values()
        .filter(|l| l.elems().iter().any(|e| e.oid() == Some(oid)));
    in_trees.count() + in_lists.count()
}

/// One plain mutation, addressed by extent path so that the same op
/// runs against a single store or a sharded one.
#[derive(Debug)]
enum Op {
    Insert {
        owner: String,
        row: Vec<Value>,
    },
    Update {
        owner: String,
        oid: Oid,
        value: Value,
    },
    Push {
        list: String,
        oid: Oid,
    },
    PushHole {
        list: String,
    },
    Remove {
        list: String,
        at: usize,
    },
    CreateTree {
        tree: String,
        oid: Oid,
    },
    InsertChild {
        tree: String,
        parent: NodeId,
        index: usize,
        oid: Oid,
    },
    RemoveSubtree {
        tree: String,
        at: NodeId,
    },
    SetOid {
        tree: String,
        at: NodeId,
        oid: Oid,
    },
}

/// Coverage of the cases the rehash-only-the-holders path must get
/// right; every run must hit each at least once.
#[derive(Debug, Default)]
struct Coverage {
    inserts_resolving_dangling: usize,
    updates_by_holders: [usize; 3],
}

impl Coverage {
    fn assert_complete(&self, ctx: &str) {
        assert!(self.inserts_resolving_dangling > 0, "{ctx}: {self:?}");
        assert!(
            self.updates_by_holders.iter().all(|&n| n > 0),
            "{ctx}: {self:?}"
        );
    }
}

/// Draw one op against the shard `owner(name)` resolves to, and note
/// which coverage case it exercises.
fn draw_op<'s>(
    rng: &mut StdRng,
    owner: impl Fn(&str) -> &'s DurableStore,
    cov: &mut Coverage,
) -> Op {
    let k = rng.gen_range(0..PATHS);
    let (list, tree) = (list_name(k), tree_name(k));
    let ds = owner(&list);
    let next = ds.store().len() as u64;
    // Existing OIDs, or (for extent ops) up to two past the end: a
    // dangling cell that a later insert resolves.
    let existing = |rng: &mut StdRng| Oid(rng.gen_range(0..next));
    let maybe_future = |rng: &mut StdRng| Oid(rng.gen_range(0..next + 2));
    let l = ds.list(&list).expect("bootstrapped list");
    let t = ds.tree(&tree).expect("bootstrapped tree");
    match rng.gen_range(0..100u32) {
        0..=24 => {
            if holders(ds, Oid(next)) > 0 {
                cov.inserts_resolving_dangling += 1;
            }
            Op::Insert {
                owner: list,
                row: row(rng),
            }
        }
        25..=44 => {
            // Half the time an OID some extent of this path holds, half
            // the time any object (often held by nothing).
            let cells: Vec<Oid> = l.elems().iter().filter_map(|e| e.oid()).collect();
            let mut oid = existing(rng);
            if rng.gen_bool(0.5) && !cells.is_empty() {
                oid = cells[rng.gen_range(0..cells.len())];
            }
            if oid.0 >= next {
                oid = existing(rng);
            }
            cov.updates_by_holders[holders(ds, oid).min(2)] += 1;
            Op::Update {
                owner: list,
                oid,
                value: Value::Int(rng.gen_range(1..=8i64)),
            }
        }
        45..=59 => Op::Push {
            list,
            oid: maybe_future(rng),
        },
        60..=62 => Op::PushHole { list },
        63..=70 if !l.is_empty() => Op::Remove {
            at: rng.gen_range(0..l.len()),
            list,
        },
        71..=84 => {
            let parent = NodeId(rng.gen_range(0..t.len()) as u32);
            Op::InsertChild {
                index: rng.gen_range(0..=t.children(parent).len()),
                parent,
                oid: maybe_future(rng),
                tree,
            }
        }
        85..=91 if t.len() > 1 => {
            let root = t.root().index();
            let pick = rng.gen_range(0..t.len() - 1);
            let at = if pick >= root { pick + 1 } else { pick };
            Op::RemoveSubtree {
                tree,
                at: NodeId(at as u32),
            }
        }
        92..=96 => Op::SetOid {
            at: NodeId(rng.gen_range(0..t.len()) as u32),
            oid: maybe_future(rng),
            tree,
        },
        97..=99 => Op::CreateTree {
            tree,
            oid: maybe_future(rng),
        },
        _ => Op::Insert {
            owner: list,
            row: row(rng),
        },
    }
}

fn apply_single(ds: &mut DurableStore, class: ClassId, op: Op) {
    let r = match op {
        Op::Insert { row, .. } => ds.insert(class, row).map(|_| ()),
        Op::Update { oid, value, .. } => ds.update(oid, AttrId(1), value),
        Op::Push { list, oid } => ds.list_push(&list, oid),
        Op::PushHole { list } => ds.list_push_hole(&list, "gap"),
        Op::Remove { list, at } => ds.list_remove(&list, at),
        Op::CreateTree { tree, oid } => ds.create_tree(&tree, Tree::leaf(oid)),
        Op::InsertChild {
            tree,
            parent,
            index,
            oid,
        } => ds.tree_insert_child(&tree, parent, index, Tree::leaf(oid)),
        Op::RemoveSubtree { tree, at } => ds.tree_remove_subtree(&tree, at),
        Op::SetOid { tree, at, oid } => ds.tree_set_oid(&tree, at, oid),
    };
    r.expect("drawn op is valid");
}

fn apply_sharded(ss: &mut ShardedStore, class: ClassId, op: Op) {
    let r = match op {
        Op::Insert { owner, row } => ss.insert(&owner, class, row).map(|_| ()),
        Op::Update { owner, oid, value } => {
            let mut txn = ss.begin();
            txn.update(&owner, oid, AttrId(1), value);
            ss.commit(&txn).map(|_| ())
        }
        Op::Push { list, oid } => ss.list_push(&list, oid),
        Op::PushHole { list } => ss.list_push_hole(&list, "gap"),
        Op::Remove { list, at } => ss.list_remove(&list, at),
        Op::CreateTree { tree, oid } => ss.create_tree(&tree, Tree::leaf(oid)),
        Op::InsertChild {
            tree,
            parent,
            index,
            oid,
        } => ss.tree_insert_child(&tree, parent, index, Tree::leaf(oid)),
        Op::RemoveSubtree { tree, at } => ss.tree_remove_subtree(&tree, at),
        Op::SetOid { tree, at, oid } => ss.tree_set_oid(&tree, at, oid),
    };
    r.expect("drawn op is valid");
}

/// A cross-shard 2PC buffer: on two paths that live on different
/// shards, push the OID the insert will get (dangling inside the
/// buffer), insert it, then push it again.
fn two_phase_insert_then_push(ss: &mut ShardedStore, class: ClassId, rng: &mut StdRng) {
    let lists: Vec<String> = (0..PATHS).map(list_name).collect();
    let a = &lists[rng.gen_range(0..PATHS)];
    let Some(b) = lists.iter().find(|l| ss.shard_of(l) != ss.shard_of(a)) else {
        return;
    };
    let mut txn = ss.begin();
    for list in [a, b] {
        let predicted = Oid(ss.shard(ss.shard_of(list)).store().len() as u64);
        txn.list_push(list, predicted);
        let (_, oid) = txn.insert(list, class, row(rng));
        assert_eq!(oid, predicted);
        txn.list_push(list, oid);
    }
    let receipt = ss.commit(&txn).expect("2PC commits");
    assert!(!receipt.fast_path(), "two participants take the protocol");
}

#[test]
fn durable_store_roots_equal_a_recompute_after_every_record() {
    for seed in SEEDS {
        let dir = temp_dir("single");
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ds, _) = DurableStore::open(&dir, durable_cfg()).unwrap();
        let class = ds.define_class(MutationStorm::class_def()).unwrap();
        for k in 0..PATHS {
            let oid = ds.insert(class, row(&mut rng)).unwrap();
            ds.create_list(&list_name(k)).unwrap();
            ds.create_tree(&tree_name(k), Tree::leaf(oid)).unwrap();
        }
        let mut cov = Coverage::default();
        for i in 0..OPS {
            let op = draw_op(&mut rng, |_| &ds, &mut cov);
            let ctx = format!("seed {seed} op {i} {op:?}");
            apply_single(&mut ds, class, op);
            assert_roots_recompute(&ds, &ctx);
        }
        cov.assert_complete(&format!("seed {seed}"));
        let root = ds.store_root();
        drop(ds);
        let (ds, rep) = DurableStore::open(&dir, durable_cfg()).expect("reopen verifies");
        assert!(rep.roots_verified > 0 || rep.frames_replayed == 0);
        assert_eq!(ds.store_root(), root, "seed {seed}: reopen");
        assert_roots_recompute(&ds, &format!("seed {seed} reopen"));
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_store_roots_equal_a_recompute_after_every_record() {
    for seed in SEEDS {
        let dir = temp_dir("sharded");
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ss, _) = ShardedStore::open(&dir, sharded_cfg()).unwrap();
        let class = ss.define_class(MutationStorm::class_def()).unwrap();
        for k in 0..PATHS {
            let (_, oid) = ss.insert(&tree_name(k), class, row(&mut rng)).unwrap();
            ss.create_list(&list_name(k)).unwrap();
            ss.create_tree(&tree_name(k), Tree::leaf(oid)).unwrap();
        }
        let mut cov = Coverage::default();
        let mut two_phase = 0;
        for i in 0..OPS {
            let ctx = format!("seed {seed} op {i}");
            if rng.gen_range(0..10u32) == 0 {
                two_phase_insert_then_push(&mut ss, class, &mut rng);
                two_phase += 1;
            } else {
                let op = draw_op(&mut rng, |name| ss.shard(ss.shard_of(name)), &mut cov);
                apply_sharded(&mut ss, class, op);
            }
            for sh in ss.shards() {
                assert_roots_recompute(sh, &ctx);
            }
        }
        cov.assert_complete(&format!("seed {seed}"));
        assert!(two_phase > 0, "seed {seed}: no 2PC buffer drawn");
        let root = ss.global_root();
        drop(ss);
        let (ss, _) = ShardedStore::open(&dir, sharded_cfg()).expect("reopen verifies");
        assert_eq!(ss.global_root(), root, "seed {seed}: reopen");
        for sh in ss.shards() {
            assert_roots_recompute(sh, &format!("seed {seed} reopen"));
        }
        drop(ss);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A malformed `Insert` — unknown class id, or a row of the wrong type —
/// is refused live with a typed error, and the same record forced into
/// the WAL is refused on replay at its LSN, with the same error.
#[test]
fn malformed_insert_is_refused_live_and_on_replay() {
    let class = ClassId(0);
    let cases = [
        (ClassId(9), vec![Value::str("C"), Value::Int(1)]),
        (class, vec![Value::Int(1), Value::Int(1)]),
    ];
    for authenticate in [true, false] {
        for (bad_class, bad_row) in &cases {
            let dir = temp_dir("malformed");
            let cfg = DurableConfig {
                authenticate,
                ..durable_cfg()
            };
            let (mut ds, _) = DurableStore::open(&dir, cfg.clone()).unwrap();
            ds.define_class(MutationStorm::class_def()).unwrap();
            let oid = ds
                .insert(class, vec![Value::str("E"), Value::Int(4)])
                .unwrap();
            ds.create_list("song").unwrap();
            ds.list_push("song", Oid(oid.0 + 1)).unwrap(); // dangling
            let root = ds.store_root();

            let live = ds.insert(*bad_class, bad_row.clone()).unwrap_err();
            match (&live, bad_class == &class) {
                (StoreError::OutOfBounds { what, .. }, false) => assert_eq!(*what, "class id"),
                (StoreError::Object(ObjectError::TypeMismatch { .. }), true) => {}
                (e, _) => panic!("unexpected live refusal: {e:?}"),
            }
            assert_eq!(ds.store_root(), root, "a refused insert changes nothing");

            // Force the same record into the log behind the validator.
            let lsn = ds.epoch() + 1;
            drop(ds);
            let mut wal = Wal::open(
                &dir,
                lsn,
                WalConfig {
                    segment_bytes: 4096,
                },
            )
            .unwrap();
            let rec = WalRecord::Insert {
                class: *bad_class,
                row: bad_row.clone(),
            };
            let claim = authenticate.then_some(root);
            assert_eq!(wal.append_with_root(&rec, claim.as_ref()).unwrap(), lsn);
            wal.sync().unwrap();
            drop(wal);
            match DurableStore::open(&dir, cfg) {
                Err(StoreError::Replay { lsn: at, msg }) => {
                    assert_eq!(at, lsn, "refused at the forced frame");
                    assert!(msg.contains(&live.to_string()), "{msg:?} vs {live}");
                }
                other => panic!("replay must refuse the frame: {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
