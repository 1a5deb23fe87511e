//! The read mix: seeded queries, their service calls, the plain-scan
//! reference, and the traced re-execution through each layer.

use std::time::Instant;

use aqua_algebra::bulk::TreeSet;
use aqua_algebra::{List, Tree};
use aqua_guard::{Budget, ExecGuard, SharedGuard};
use aqua_object::{AttrId, ClassId, Value};
use aqua_obs::Metrics;
use aqua_optimizer::{Catalog, Explain, Optimizer};
use aqua_pattern::ast::Re;
use aqua_pattern::list::{ListMatch, Sym};
use aqua_pattern::parser::{parse_list_pattern, parse_tree_pattern, PredEnv};
use aqua_pattern::tree_match::MatchConfig;
use aqua_pattern::{CmpOp, PredExpr, TreePattern};
use aqua_service::{QueryService, Request, Response};
use aqua_store::{ColumnStats, ShardedStore};
use aqua_workload::music::PITCHES;

use crate::population::{list_path, tree_path, Rng, Sizes, Zipf, SHARDS};
use crate::trace::Tracer;

/// Constant draws per query shape and path.
const VARIANTS: usize = 3;

/// Decompositions (and certificates) per split read.
const SPLIT_MATCHES: usize = 4;

/// The five request kinds of the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tree,
    List,
    Set,
    Forest,
    Split,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Tree, Kind::List, Kind::Set, Kind::Forest, Kind::Split];

    /// Share of the mix, in `ALL` order.
    const SHARE: [f64; 5] = [0.40, 0.25, 0.15, 0.10, 0.10];

    pub fn idx(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tree => "tree_sub_select",
            Kind::List => "list_sub_select",
            Kind::Set => "set_select",
            Kind::Forest => "forest_sub_select",
            Kind::Split => "tree_split",
        }
    }

    /// The per-kind service metric.
    pub fn p50_metric(self) -> &'static str {
        match self {
            Kind::Tree => "service.tree_sub_select.p50_us",
            Kind::List => "service.list_sub_select.p50_us",
            Kind::Set => "service.set_select.p50_us",
            Kind::Forest => "service.forest_sub_select.p50_us",
            Kind::Split => "service.tree_split.p50_us",
        }
    }

    fn cfg(self) -> MatchConfig {
        match self {
            Kind::Forest => MatchConfig::first_per_root(),
            // A fixed number of decompositions, each certified: the
            // cost of a split read does not swing with the seed.
            Kind::Split => MatchConfig {
                max_matches: SPLIT_MATCHES,
                ..MatchConfig::first_per_root()
            },
            _ => MatchConfig::default(),
        }
    }
}

/// A query's parsed form.
pub enum Shape {
    Tree(TreePattern),
    List(Re<Sym>, bool, bool),
    Set(PredExpr),
}

/// One query of the mix: a kind, a target path and its text.
pub struct Query {
    pub kind: Kind,
    pub path: usize,
    pub text: String,
    pub shape: Shape,
}

/// Parse `text` as the pattern of `kind` (sets carry no text pattern).
fn parse(kind: Kind, text: &str, env: &PredEnv) -> Result<Option<Shape>, String> {
    Ok(match kind {
        Kind::Tree | Kind::Forest | Kind::Split => Some(Shape::Tree(
            parse_tree_pattern(text, env).map_err(|e| format!("{text}: {e}"))?,
        )),
        Kind::List => {
            let (re, s, e) = parse_list_pattern(text, env).map_err(|e| format!("{text}: {e}"))?;
            Some(Shape::List(re, s, e))
        }
        Kind::Set => None,
    })
}

/// Every query the mix can draw, generated from the seed.
pub struct QuerySet {
    pub queries: Vec<Query>,
    /// Query indices per kind, per path (forest queries sit at path 0).
    by_kind: Vec<Vec<Vec<usize>>>,
}

impl QuerySet {
    pub fn new(seed: u64, sizes: Sizes, env: &PredEnv) -> Result<QuerySet, String> {
        let mut queries = Vec::new();
        let mut by_kind = vec![vec![Vec::new(); sizes.paths]; Kind::ALL.len()];
        let mut rng = Rng::new(seed, 0x5157);
        let pitch = |rng: &mut Rng| PITCHES[rng.below(PITCHES.len())];
        for path in 0..sizes.paths {
            for kind in Kind::ALL {
                let mut texts: Vec<(String, Option<PredExpr>)> = Vec::new();
                // Several constant draws per shape, so that no single
                // draw dominates a path's cost.
                for _ in 0..VARIANTS {
                    match kind {
                        // Structural shapes and AND/OR/NOT predicate
                        // shapes; every root predicate has an indexable
                        // pitch conjunct.
                        Kind::Tree => {
                            let (a, b, c) = (pitch(&mut rng), pitch(&mut rng), pitch(&mut rng));
                            let d = 2 + rng.below(5);
                            texts.push((format!("{a}(?* {b} ?*)"), None));
                            texts.push((format!("{a}(?* {b}(?* {c} ?*) ?*)"), None));
                            texts.push((
                                format!(
                                    "{{pitch = \"{a}\" & duration > {d}}}(?* {{pitch = \"{b}\" | pitch = \"{c}\"}} ?*)"
                                ),
                                None,
                            ));
                            texts.push((
                                format!(
                                    "{{pitch = \"{c}\" & !(duration < {d})}}(?* {{!(pitch = \"{a}\")}} ?*)"
                                ),
                                None,
                            ));
                        }
                        // Pike melody regexes with a fixed-offset first note.
                        Kind::List => {
                            let (a, b, c) = (pitch(&mut rng), pitch(&mut rng), pitch(&mut rng));
                            texts.push((format!("[{a} ? {b}]"), None));
                            texts.push((format!("[{a} [[{b}|{c}]]+ {a}]"), None));
                        }
                        Kind::Set => {
                            let a = pitch(&mut rng);
                            let d = 2 + rng.below(5) as i64;
                            let p1 = PredExpr::eq("pitch", a).and(PredExpr::cmp(
                                "duration",
                                CmpOp::Gt,
                                Value::Int(d),
                            ));
                            let p2 = PredExpr::eq("pitch", a)
                                .and(PredExpr::cmp("duration", CmpOp::Lt, Value::Int(d)).not());
                            texts.push((p1.to_string(), Some(p1)));
                            texts.push((p2.to_string(), Some(p2)));
                        }
                        Kind::Forest if path < 2 => {
                            let (a, b) = (pitch(&mut rng), pitch(&mut rng));
                            texts.push((format!("{a}(?* {b} ?*)"), None));
                        }
                        Kind::Forest => {}
                        Kind::Split => {
                            let a = pitch(&mut rng);
                            texts.push((format!("{a}(?*)"), None));
                        }
                    }
                }
                for (text, pred) in texts {
                    let shape = match pred {
                        Some(p) => Shape::Set(p),
                        None => parse(kind, &text, env)?.expect("text kinds parse to a shape"),
                    };
                    by_kind[kind.idx()][if kind == Kind::Forest { 0 } else { path }]
                        .push(queries.len());
                    queries.push(Query {
                        kind,
                        path,
                        text,
                        shape,
                    });
                }
            }
        }
        Ok(QuerySet { queries, by_kind })
    }
}

/// The seeded request stream: a kind by its share, a path from the
/// skewed distribution, a query of that kind on that path.
pub struct Mix {
    rng: Rng,
    zipf: Zipf,
}

impl Mix {
    pub fn new(seed: u64, stream: u64, paths: usize) -> Mix {
        Mix {
            rng: Rng::new(seed, stream),
            zipf: Zipf::new(paths),
        }
    }

    pub fn next(&mut self, qs: &QuerySet) -> usize {
        let u = self.rng.unit();
        let mut acc = 0.0;
        let mut kind = Kind::Tree;
        for k in Kind::ALL {
            acc += Kind::SHARE[k.idx()];
            kind = k;
            if u < acc {
                break;
            }
        }
        self.next_of(qs, kind)
    }

    /// A query of `kind` on a path from the skewed distribution.
    pub fn next_of(&mut self, qs: &QuerySet, kind: Kind) -> usize {
        let path = if kind == Kind::Forest {
            0
        } else {
            self.zipf.draw(&mut self.rng)
        };
        let opts = &qs.by_kind[kind.idx()][path];
        opts[self.rng.below(opts.len())]
    }
}

/// What every read needs besides the store.
pub struct Ctx {
    pub class: ClassId,
    /// `pitch` statistics per shard, built at set-up.
    pub stats: Vec<ColumnStats>,
    pub env: PredEnv,
    pub docs: Vec<String>,
    pub songs: Vec<String>,
    /// `tree:p<k>/doc`, the extent name split certificates bind.
    pub extents: Vec<String>,
    /// Owning shard per path (the layout never changes in a run).
    pub routes: Vec<usize>,
    pub worker_cap: usize,
}

impl Ctx {
    pub fn new(ss: &ShardedStore, class: ClassId, paths: usize, worker_cap: usize) -> Ctx {
        Ctx {
            class,
            stats: ss
                .shards()
                .iter()
                .map(|s| ColumnStats::build(s.store(), class, AttrId(0)))
                .collect(),
            env: PredEnv::with_default_attr("pitch"),
            docs: (0..paths).map(tree_path).collect(),
            songs: (0..paths).map(list_path).collect(),
            extents: (0..paths)
                .map(|k| format!("tree:{}", tree_path(k)))
                .collect(),
            routes: (0..paths).map(|k| ss.shard_of(&tree_path(k))).collect(),
            worker_cap,
        }
    }

    /// The catalog of path `k`'s shard. `indexed` adds every index of
    /// the path (probed at the shard's current epoch, so a stale index
    /// falls back to a scan); without it every plan is a scan.
    pub fn catalog<'a>(&'a self, ss: &'a ShardedStore, k: usize, indexed: bool) -> Catalog<'a> {
        let sh = self.routes[k];
        let ds = ss.shard(sh);
        let mut cat = Catalog::new(ds.store(), self.class);
        cat.add_stats(&self.stats[sh]);
        if indexed {
            cat.set_epoch(ds.epoch());
            let ix = ds.indexes();
            if let Some(i) = ix.attr_index(self.class, AttrId(0)) {
                cat.add_attr_index(i);
            }
            if let Some(i) = ix.tree_index(&self.docs[k]) {
                cat.add_tree_index(i);
            }
            if let Some(i) = ix.structural_index(&self.docs[k]) {
                cat.add_structural_index(i);
            }
            if let Some(i) = ix.list_index(&self.songs[k]) {
                cat.add_list_index(i);
            }
        }
        cat
    }

    fn catalogs<'a>(&'a self, ss: &'a ShardedStore, indexed: bool) -> Vec<Catalog<'a>> {
        (0..self.docs.len())
            .map(|k| self.catalog(ss, k, indexed))
            .collect()
    }

    fn tree<'a>(&self, ss: &'a ShardedStore, k: usize) -> Result<&'a Tree, String> {
        ss.tree(&self.docs[k])
            .ok_or_else(|| format!("missing tree {}", self.docs[k]))
    }

    fn list<'a>(&self, ss: &'a ShardedStore, k: usize) -> Result<&'a List, String> {
        ss.list(&self.songs[k])
            .ok_or_else(|| format!("missing list {}", self.songs[k]))
    }
}

/// The forest the sharded forest query runs over: every `p<k>/doc`,
/// materialized by the client and rebuilt when a shard's epoch moved.
pub struct Forest {
    epochs: Vec<u64>,
    pub set: TreeSet,
}

impl Forest {
    pub fn new() -> Forest {
        Forest {
            epochs: Vec::new(),
            set: TreeSet::new(),
        }
    }

    pub fn refresh(&mut self, ss: &ShardedStore, ctx: &Ctx) -> Result<(), String> {
        let epochs = ss.epochs();
        if epochs != self.epochs || self.set.is_empty() {
            let trees = (0..ctx.docs.len())
                .map(|k| ctx.tree(ss, k).cloned())
                .collect::<Result<Vec<_>, _>>()?;
            self.set = TreeSet::from_trees(trees);
            self.epochs = epochs;
        }
        Ok(())
    }
}

/// FNV-1a over 64-bit words: the digest answers are compared by.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Preorder payload OIDs and child counts.
    pub fn tree(&mut self, t: &Tree) {
        let mut stack = vec![t.root()];
        while let Some(n) = stack.pop() {
            self.word(t.oid(n).map_or(u64::MAX, |o| o.0));
            let kids = t.children(n);
            self.word(kids.len() as u64);
            stack.extend(kids.iter().rev());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn digest_trees(trees: &[Tree]) -> u64 {
    let mut d = Digest::new();
    d.word(trees.len() as u64);
    trees.iter().for_each(|t| d.tree(t));
    d.finish()
}

fn digest_forest(out: &[(usize, Tree)]) -> u64 {
    let mut d = Digest::new();
    d.word(out.len() as u64);
    for (i, t) in out {
        d.word(*i as u64);
        d.tree(t);
    }
    d.finish()
}

fn digest_list(ms: &[ListMatch]) -> u64 {
    let mut d = Digest::new();
    d.word(ms.len() as u64);
    for m in ms {
        d.word(m.start as u64);
        d.word(m.end as u64);
        d.word(m.pruned.len() as u64);
        m.pruned.iter().for_each(|&p| d.word(p as u64));
    }
    d.finish()
}

fn digest_oids(oids: &[aqua_object::Oid]) -> u64 {
    let mut d = Digest::new();
    d.word(oids.len() as u64);
    oids.iter().for_each(|o| d.word(o.0));
    d.finish()
}

fn digest_split(pieces: &[aqua_algebra::tree::split::SplitPieces]) -> u64 {
    let mut d = Digest::new();
    d.word(pieces.len() as u64);
    for p in pieces {
        d.tree(&p.context);
        d.tree(&p.matched);
        d.word(p.descendants.len() as u64);
        p.descendants.iter().for_each(|t| d.tree(t));
    }
    d.finish()
}

/// A served read.
pub struct Answer {
    pub digest: u64,
    pub explain: Explain,
    /// Served behind an open breaker (partial).
    pub degraded: bool,
}

fn answer<T>(r: Response<T>, digest: impl FnOnce(&T) -> u64) -> Answer {
    Answer {
        digest: digest(&r.value),
        degraded: r.meta.degraded,
        explain: r.explain,
    }
}

/// Serve `q` through the `QueryService` — the timed call.
pub fn serve(
    svc: &QueryService,
    ss: &ShardedStore,
    ctx: &Ctx,
    forest: &Forest,
    q: &Query,
) -> Result<Answer, String> {
    let req = Request::new("bench");
    let k = q.path;
    let cfg = q.kind.cfg();
    let err = |e: aqua_service::ServiceError| format!("{} {}: {e}", q.kind.name(), q.text);
    Ok(match (&q.shape, q.kind) {
        (Shape::Tree(tp), Kind::Tree) => {
            let cat = ctx.catalog(ss, k, true);
            let r = svc
                .tree_sub_select(&req, &cat, ctx.tree(ss, k)?, tp, &cfg)
                .map_err(err)?;
            answer(r, |v| digest_trees(v))
        }
        (Shape::Tree(tp), Kind::Split) => {
            let cat = ctx.catalog(ss, k, true);
            let root = ss
                .shard(ctx.routes[k])
                .tree_extent_root(&ctx.docs[k])
                .ok_or("split target has no extent root")?;
            let r = svc
                .tree_split(
                    &req.clone().with_verify(true),
                    &cat,
                    ctx.tree(ss, k)?,
                    Some((&ctx.extents[k], root)),
                    tp,
                    &cfg,
                )
                .map_err(err)?;
            if r.value.certificates.len() != r.value.pieces.len() {
                return Err(format!(
                    "split {}: a decomposition lacks its certificate",
                    q.text
                ));
            }
            answer(r, |v| digest_split(&v.pieces))
        }
        (Shape::Tree(tp), Kind::Forest) => {
            let cats = ctx.catalogs(ss, true);
            let r = svc
                .forest_sub_select_sharded(&req, &cats, &forest.set, tp, &cfg, SHARDS, |i| {
                    ctx.routes[i]
                })
                .map_err(err)?;
            answer(r, |v| digest_forest(v))
        }
        (Shape::List(re, s, e), _) => {
            let cat = ctx.catalog(ss, k, true);
            let r = svc
                .list_sub_select(&req, &cat, ctx.list(ss, k)?, re, *s, *e)
                .map_err(err)?;
            answer(r, |v| digest_list(v))
        }
        (Shape::Set(pred), _) => {
            let cat = ctx.catalog(ss, k, true);
            let r = svc.set_select(&req, &cat, pred).map_err(err)?;
            answer(r, |v| digest_oids(v))
        }
        _ => unreachable!("query shapes match their kinds"),
    })
}

/// The plain-scan answer: no index in the catalog, serial execution.
pub fn scan(ss: &ShardedStore, ctx: &Ctx, forest: &Forest, q: &Query) -> Result<u64, String> {
    let k = q.path;
    let cfg = q.kind.cfg();
    let fail = |e: aqua_optimizer::OptError| format!("scan {}: {e}", q.text);
    Ok(match (&q.shape, q.kind) {
        (Shape::Tree(tp), Kind::Tree) => {
            let cat = ctx.catalog(ss, k, false);
            let tree = ctx.tree(ss, k)?;
            let (plan, _) = Optimizer::new(&cat)
                .plan_tree_sub_select(tp, tree.len())
                .map_err(fail)?;
            digest_trees(&plan.execute(&cat, tree, &cfg).map_err(fail)?)
        }
        (Shape::Tree(tp), Kind::Split) => {
            let cat = ctx.catalog(ss, k, false);
            let tree = ctx.tree(ss, k)?;
            let (plan, _) = Optimizer::new(&cat)
                .plan_tree_sub_select(tp, tree.len())
                .map_err(fail)?;
            digest_split(&plan.execute_split(&cat, tree, &cfg).map_err(fail)?)
        }
        (Shape::Tree(tp), Kind::Forest) => {
            let mut out = Vec::new();
            for (i, member) in forest.set.members().iter().enumerate() {
                let cat = ctx.catalog(ss, i, false);
                let (plan, _) = Optimizer::new(&cat)
                    .plan_tree_sub_select(tp, member.len())
                    .map_err(fail)?;
                out.extend(
                    plan.execute(&cat, member, &cfg)
                        .map_err(fail)?
                        .into_iter()
                        .map(|t| (i, t)),
                );
            }
            digest_forest(&out)
        }
        (Shape::List(re, s, e), _) => {
            let cat = ctx.catalog(ss, k, false);
            let list = ctx.list(ss, k)?;
            let (plan, _) = Optimizer::new(&cat)
                .plan_list_sub_select(re, *s, *e, list.len())
                .map_err(fail)?;
            digest_list(&plan.execute(&cat, list).map_err(fail)?)
        }
        (Shape::Set(pred), _) => {
            let cat = ctx.catalog(ss, k, false);
            let (plan, _) = Optimizer::new(&cat).plan_set_select(pred).map_err(fail)?;
            digest_oids(&plan.execute(&cat).map_err(fail)?)
        }
        _ => unreachable!("query shapes match their kinds"),
    })
}

/// Did the service plan this read through an index?
pub fn index_planned(explain: &Explain) -> bool {
    ["IndexedPatternScan", "IndexedExtentScan", "PositionalScan"]
        .iter()
        .any(|p| explain.chosen.contains(p))
}

/// Columns forced before a read: whether each was rebuilt is judged
/// by its time against half the fastest rebuild seen at set-up.
#[derive(Debug, Clone, Copy)]
pub struct ColsClock {
    tree_ns: f64,
    list_ns: f64,
}

impl ColsClock {
    /// Calibrate on tree and list 0: a clone starts with empty columns,
    /// so forcing a clone's columns times a rebuild.
    pub fn calibrate(ss: &ShardedStore, ctx: &Ctx) -> Result<ColsClock, String> {
        fn time(f: impl FnOnce()) -> f64 {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        }
        let (tree, list) = (ctx.tree(ss, 0)?, ctx.list(ss, 0)?);
        let (mut tree_ns, mut list_ns) = (f64::MAX, f64::MAX);
        for _ in 0..64 {
            let (t, l) = (tree.clone(), list.clone());
            tree_ns = tree_ns.min(time(|| {
                t.cols();
            }));
            list_ns = list_ns.min(time(|| {
                l.cols();
            }));
        }
        Ok(ColsClock {
            tree_ns: tree_ns / 2.0,
            list_ns: list_ns / 2.0,
        })
    }

    fn force(threshold_ns: f64, f: impl FnOnce()) -> u32 {
        let t = Instant::now();
        f();
        u32::from(t.elapsed().as_nanos() as f64 > threshold_ns)
    }
}

/// Counters of one traced read.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRec {
    pub cols_rebuilt: u32,
    pub cols_forced: bool,
    pub vm_steps: u64,
    pub match_visits: u64,
    pub candidates: u64,
    pub pruned: u64,
    pub steals: u64,
    pub batches: u64,
}

/// Force the columns `q` will read, in span `core.cols`.
pub fn force_cols(
    tr: &mut Tracer,
    req: u64,
    clock: &ColsClock,
    ss: &ShardedStore,
    ctx: &Ctx,
    forest: &Forest,
    q: &Query,
) -> Result<Option<u32>, String> {
    let k = q.path;
    let targets = match q.kind {
        Kind::Set => return Ok(None),
        Kind::List => {
            let list = ctx.list(ss, k)?;
            return Ok(Some(tr.child("core.cols", req, req, || {
                ColsClock::force(clock.list_ns, || {
                    list.cols();
                })
            })));
        }
        Kind::Tree | Kind::Split => vec![ctx.tree(ss, k)?],
        Kind::Forest => forest.set.members().iter().collect(),
    };
    Ok(Some(tr.child("core.cols", req, req, || {
        targets
            .iter()
            .map(|t| {
                ColsClock::force(clock.tree_ns, || {
                    t.cols();
                })
            })
            .sum()
    })))
}

/// Re-execute `q` through the public calls the service composes, each
/// in its own span: `pattern.parse`, `optimizer.plan`, then
/// `optimizer.execute` under an armed guard (or `exec.scatter` for the
/// forest). Returns the answer digest and the read's counters.
pub fn layered(
    tr: &mut Tracer,
    req: u64,
    ss: &ShardedStore,
    ctx: &Ctx,
    forest: &Forest,
    q: &Query,
) -> Result<(u64, LayerRec), String> {
    let k = q.path;
    let cfg = q.kind.cfg();
    let fail = |e: aqua_optimizer::OptError| format!("layered {}: {e}", q.text);
    // Sets carry a built predicate, not pattern text: nothing to parse.
    let shape = match &q.shape {
        Shape::Set(p) => Shape::Set(p.clone()),
        _ => tr
            .child("pattern.parse", req, req, || {
                parse(q.kind, &q.text, &ctx.env)
            })?
            .expect("text kinds parse to a shape"),
    };
    let m = Metrics::new();
    let guard = || ExecGuard::new(Budget::unlimited()).with_metrics(m.clone());
    let mut rec = LayerRec::default();
    let mut explain;
    let digest = match (&shape, q.kind) {
        (Shape::Tree(tp), Kind::Forest) => {
            let cats = ctx.catalogs(ss, true);
            let sizes: Vec<usize> = forest.set.members().iter().map(Tree::len).collect();
            let (plan, ex) = tr
                .child("optimizer.plan", req, req, || {
                    Optimizer::new(&cats[0]).plan_forest_sub_select_sharded(
                        tp,
                        &sizes,
                        ctx.worker_cap,
                        SHARDS,
                    )
                })
                .map_err(fail)?;
            explain = ex;
            let shared = SharedGuard::new(Budget::unlimited());
            shared.attach_metrics(m.clone());
            let out = tr
                .child("exec.scatter", req, req, || {
                    plan.execute_scatter_gather_at(
                        plan.degree,
                        &cats,
                        &forest.set,
                        &cfg,
                        SHARDS,
                        |i| ctx.routes[i],
                        Some(&shared),
                        &mut explain,
                    )
                })
                .map_err(fail)?;
            rec.batches = explain.shard_batches.len() as u64;
            digest_forest(&out)
        }
        (Shape::Tree(tp), kind) => {
            let cat = ctx.catalog(ss, k, true);
            let tree = ctx.tree(ss, k)?;
            let (plan, ex) = tr
                .child("optimizer.plan", req, req, || {
                    Optimizer::new(&cat).plan_tree_sub_select(tp, tree.len())
                })
                .map_err(fail)?;
            explain = ex;
            let g = guard();
            tr.child("optimizer.execute", req, req, || {
                if kind == Kind::Split {
                    plan.execute_split_outcome_guarded(&cat, tree, &cfg, Some(&g), &mut explain)
                        .map(|o| digest_split(&o.pieces))
                } else {
                    plan.execute_outcome_guarded(&cat, tree, &cfg, Some(&g), &mut explain)
                        .map(|o| digest_trees(&o.trees))
                }
            })
            .map_err(fail)?
        }
        (Shape::List(re, s, e), _) => {
            let cat = ctx.catalog(ss, k, true);
            let list = ctx.list(ss, k)?;
            let (plan, ex) = tr
                .child("optimizer.plan", req, req, || {
                    Optimizer::new(&cat).plan_list_sub_select(re, *s, *e, list.len())
                })
                .map_err(fail)?;
            explain = ex;
            let g = guard();
            let out = tr
                .child("optimizer.execute", req, req, || {
                    plan.execute_guarded(&cat, list, Some(&g), &mut explain)
                })
                .map_err(fail)?;
            digest_list(&out)
        }
        (Shape::Set(pred), _) => {
            let cat = ctx.catalog(ss, k, true);
            let (plan, ex) = tr
                .child("optimizer.plan", req, req, || {
                    Optimizer::new(&cat).plan_set_select(pred)
                })
                .map_err(fail)?;
            explain = ex;
            let g = guard();
            let (out, _) = tr
                .child("optimizer.execute", req, req, || {
                    plan.execute_capped_guarded(&cat, None, Some(&g), &mut explain)
                })
                .map_err(fail)?;
            digest_oids(&out)
        }
    };
    let snap = m.snapshot();
    rec.vm_steps = snap.vm_steps;
    rec.match_visits = snap.match_visits;
    rec.candidates = snap.match_candidates;
    rec.pruned = snap.match_candidates_pruned;
    rec.steals = snap.pool_steals;
    Ok((digest, rec))
}
