//! The seeded population and the store set-up.
//!
//! Same shape as `aqua_workload::ShardStorm` — `paths` path subtrees,
//! each owning one list `p<k>/song` and one tree `p<k>/doc` of `Note`
//! objects — so `ShardStorm::fingerprint` renders it. Every value and
//! every tree shape is a pure function of `(seed, path, position)`.
//!
//! `ShardStorm::grow` adds one object and one node per WAL record, and
//! under authentication every object insert rehashes the whole shard,
//! so growing to benchmark size would take minutes. This set-up inserts
//! all objects while no extent exists yet, then creates each tree whole
//! with one record.

use aqua_algebra::{NodeId, Tree, TreeBuilder};
use aqua_object::{AttrId, ClassId, Oid, Value};
use aqua_service::QueryService;
use aqua_store::{DurableConfig, IndexSpec, ShardedConfig, ShardedStore};
use aqua_workload::music::PITCHES;
use aqua_workload::storm::MutationStorm;
use std::path::Path;

/// Shard count of every store the benchmark builds.
pub const SHARDS: usize = 2;

/// Data sizes of one population.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Path subtrees (`p0` … `p<paths-1>`).
    pub paths: usize,
    /// Nodes per tree `p<k>/doc`.
    pub tree_nodes: usize,
    /// Notes per list `p<k>/song`.
    pub list_notes: usize,
}

/// The benchmark's sizes.
pub const FULL: Sizes = Sizes {
    paths: 16,
    tree_nodes: 256,
    list_notes: 128,
};

/// SplitMix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded stream of draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-like skew over `n` ranks: rank `r` has weight `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let w: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        let cdf = w
            .iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

pub fn list_path(k: usize) -> String {
    format!("p{k}/song")
}

pub fn tree_path(k: usize) -> String {
    format!("p{k}/doc")
}

/// A `Note` row: pitch and duration 1..=8.
pub fn note_row(pitch: &str, duration: i64) -> Vec<Value> {
    vec![Value::str(pitch), Value::Int(duration)]
}

/// Attribute bytes of a `Note` row: the pitch text plus an 8-byte int.
pub fn row_bytes(pitch: &str) -> u64 {
    pitch.len() as u64 + 8
}

/// Per-shard, per-extent durable tuning, the same in every run.
pub fn sharded_config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        shard: DurableConfig {
            segment_bytes: 32 * 1024,
            checkpoint_every: 0,
            prune: true,
            authenticate: true,
        },
        recovery_threads: 0,
        pin_epoch: None,
    }
}

/// What one set-up did.
#[derive(Debug, Clone, Copy)]
pub struct Built {
    pub class: ClassId,
    /// Attribute bytes written while populating.
    pub user_bytes: u64,
}

/// The population of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Population {
    pub seed: u64,
    pub sizes: Sizes,
}

impl Population {
    fn draw(&self, k: usize, domain: u64, pos: u64) -> u64 {
        mix(self
            .seed
            .wrapping_add(mix((k as u64) << 32 | domain))
            .wrapping_add(pos.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    fn note(&self, k: usize, domain: u64, pos: u64) -> (&'static str, i64) {
        let d = self.draw(k, domain, pos);
        (
            PITCHES[(d % PITCHES.len() as u64) as usize],
            ((d >> 32) % 8 + 1) as i64,
        )
    }

    /// Parent of tree node `i >= 1` (a random recursive tree).
    fn parent(&self, k: usize, i: usize) -> usize {
        (self.draw(k, 3, i as u64) % i as u64) as usize
    }

    /// Open a fresh store under `dir` through `svc`, populate it,
    /// register and refresh every index, and checkpoint.
    pub fn build(&self, svc: &QueryService, dir: &Path) -> Result<(ShardedStore, Built), String> {
        let s = self.sizes;
        let mut ss = svc
            .open_sharded(dir, sharded_config())
            .map_err(|e| e.to_string())?;
        let class = ss
            .define_class(MutationStorm::class_def())
            .map_err(|e| e.to_string())?;
        let mut user_bytes = 0u64;
        // Objects first: with no extent yet, an insert rehashes nothing.
        let mut tree_oids = Vec::with_capacity(s.paths);
        let mut list_oids = Vec::with_capacity(s.paths);
        for k in 0..s.paths {
            let mut insert = |owner: &str, domain: u64, n: usize| -> Result<Vec<Oid>, String> {
                (0..n)
                    .map(|i| {
                        let (pitch, dur) = self.note(k, domain, i as u64);
                        user_bytes += row_bytes(pitch);
                        ss.insert(owner, class, note_row(pitch, dur))
                            .map(|(_, oid)| oid)
                            .map_err(|e| e.to_string())
                    })
                    .collect()
            };
            tree_oids.push(insert(&tree_path(k), 2, s.tree_nodes)?);
            list_oids.push(insert(&list_path(k), 0, s.list_notes)?);
        }
        for k in 0..s.paths {
            ss.create_tree(&tree_path(k), self.tree(k, &tree_oids[k]))
                .map_err(|e| e.to_string())?;
            let list = list_path(k);
            ss.create_list(&list).map_err(|e| e.to_string())?;
            for &oid in &list_oids[k] {
                ss.list_push(&list, oid).map_err(|e| e.to_string())?;
            }
        }
        let pitch = AttrId(0);
        let mut specs = vec![IndexSpec::Attr { class, attr: pitch }];
        for k in 0..s.paths {
            specs.push(IndexSpec::TreeNode {
                tree: tree_path(k),
                class,
                attr: pitch,
            });
            specs.push(IndexSpec::Structural { tree: tree_path(k) });
            specs.push(IndexSpec::ListPos {
                list: list_path(k),
                class,
                attr: pitch,
            });
        }
        for spec in specs {
            ss.register_index(spec).map_err(|e| e.to_string())?;
        }
        ss.refresh_indexes().map_err(|e| e.to_string())?;
        ss.checkpoint().map_err(|e| e.to_string())?;
        Ok((ss, Built { class, user_bytes }))
    }

    /// Tree `k` over its node objects: node `i` hangs under
    /// `parent(k, i)`, children in insertion order.
    fn tree(&self, k: usize, oids: &[Oid]) -> Tree {
        let n = oids.len();
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 1..n {
            kids[self.parent(k, i)].push(i);
        }
        // Children before parents: a parent's index is always smaller
        // than its children's, so build from the highest index down.
        let mut b = TreeBuilder::new();
        let mut built: Vec<Option<NodeId>> = vec![None; n];
        for i in (0..n).rev() {
            let children = kids[i]
                .iter()
                .map(|&c| built[c].take().expect("child built before parent"))
                .collect();
            built[i] = Some(b.node(oids[i], children));
        }
        b.finish(built[0].expect("root built"))
            .expect("a parent-array tree is valid")
    }
}
