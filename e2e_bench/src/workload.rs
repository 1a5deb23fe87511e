//! The three workloads and the run that measures one of them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use aqua_service::{QueryService, Request, ServiceConfig};
use aqua_store::ShardedStore;
use aqua_workload::ShardStorm;

use crate::metrics::{dir_bytes, peak_rss_mb, Report, Samples, Value};
use crate::population::{Population, Rng, Sizes};
use crate::reads::{
    force_cols, index_planned, layered, scan, serve, Answer, ColsClock, Ctx, Forest, Kind,
    LayerRec, Mix, QuerySet,
};
use crate::trace::{Trace, Tracer};
use crate::writes::{ListModel, Op, OpKind, WriteGen, CHECKPOINT_EVERY, TAIL_COMMITS};

/// The workloads, each run in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only: one closed-loop reader, fresh indexes, warm columns.
    ReadQuery,
    /// Write-only: one closed-loop writer, every commit fsynced.
    WriteCommit,
    /// One closed-loop reader and one open-loop writer on one store.
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadQuery,
        Workload::WriteCommit,
        Workload::MixedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadQuery => "read_query",
            Workload::WriteCommit => "write_commit",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn reads(self) -> bool {
        self != Workload::WriteCommit
    }

    fn writes(self) -> bool {
        self != Workload::ReadQuery
    }
}

/// Commits per second of the open-loop writer in `mixed_rw`.
pub const WRITER_RATE: f64 = 10.0;

/// One in this many `mixed_rw` reads is re-executed as a plain scan.
const SCAN_SAMPLE: usize = 16;

/// Fixed probe of the layers a traced workload does not exercise.
const PROBE_COMMITS: usize = 32;
const PROBE_READS: usize = 64;

/// Cold reopens at the end of a traced run; `store.recovery_ms` is
/// their median.
const REOPENS: usize = 9;

/// Equal windows an untraced run is cut into for `op_p50_us`,
/// `op_p99_us` and `ops_per_s`.
const WINDOWS: usize = 15;

/// Spans written per traced run.
const SPAN_CAP: usize = 50_000;

/// What one run needs besides the workload and seed.
#[derive(Debug, Clone)]
pub struct Params {
    pub sizes: Sizes,
    pub seconds: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Where the stores live (removed at the end of the run).
    pub dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
    /// Self-test hook: corrupt one reference answer.
    pub plant_wrong_reference: bool,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any one fails the run.
    pub errors: Vec<String>,
    /// First failed operation, for diagnosis.
    pub first_failure: Option<String>,
}

#[derive(Default)]
struct ReadStats {
    lat: Samples,
    /// Completion instant of each `lat` sample.
    done: Vec<Instant>,
    attempted: u64,
    failed: u64,
    degraded: u64,
    lock_wait: Samples,
    by_kind: [Samples; 5],
    recs: Vec<(Kind, LayerRec)>,
    planned_indexed: u64,
    served_indexed: u64,
    first_failure: Option<String>,
}

#[derive(Default)]
struct WriteStats {
    lat: Samples,
    /// Completion instant of each `lat` sample.
    done: Vec<Instant>,
    attempted: u64,
    failed: u64,
    commits: u64,
    two_pc: u64,
    fsyncs: u64,
    user_bytes: u64,
    lock_wait: Samples,
    lag_ms: Samples,
    checkpoint_us: Samples,
    snapshot_bytes: u64,
    last_ack: Option<Instant>,
    first_failure: Option<String>,
}

/// The store shared by reader and writer: one `RwLock`, writer
/// preferring. std's `RwLock` lets a reader that re-locks in a tight
/// loop starve a waiting writer for hundreds of milliseconds, so a
/// reader defers while a writer waits.
struct StoreLock {
    inner: RwLock<ShardedStore>,
    writer_waiting: AtomicBool,
}

impl StoreLock {
    fn new(ss: ShardedStore) -> StoreLock {
        StoreLock {
            inner: RwLock::new(ss),
            writer_waiting: AtomicBool::new(false),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ShardedStore> {
        while self.writer_waiting.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        self.inner.read().expect("a store user panicked")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardedStore> {
        self.writer_waiting.store(true, Ordering::SeqCst);
        let g = self.inner.write().expect("a store user panicked");
        self.writer_waiting.store(false, Ordering::SeqCst);
        g
    }

    fn into_inner(self) -> ShardedStore {
        self.inner.into_inner().expect("a store user panicked")
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The closed-loop reader.
struct Reader<'a> {
    svc: &'a QueryService,
    ctx: &'a Ctx,
    qs: &'a QuerySet,
    /// Set-up references (read_query); otherwise reads are checked
    /// against a plain scan under the same read lock.
    refs: Option<&'a [u64]>,
    clock: ColsClock,
    mix: Mix,
    sample: Rng,
    forest: Forest,
    /// When set, draw kinds round-robin (the fixed probe) instead of
    /// by their shares.
    cycle: Option<usize>,
}

impl Reader<'_> {
    /// Count the answer and check it; `Err` is a failed check.
    fn judge(
        &mut self,
        ss: &ShardedStore,
        qi: usize,
        r: Result<Answer, String>,
        st: &mut ReadStats,
        check_all: bool,
    ) -> Result<Option<Answer>, String> {
        st.attempted += 1;
        let a = match r {
            Ok(a) => a,
            Err(e) => {
                st.failed += 1;
                st.first_failure.get_or_insert(e);
                return Ok(None);
            }
        };
        if a.degraded {
            st.degraded += 1;
            return Ok(Some(a));
        }
        let q = &self.qs.queries[qi];
        let want = match self.refs {
            Some(refs) => Some(refs[qi]),
            None if check_all || self.sample.below(SCAN_SAMPLE) == 0 => {
                Some(scan(ss, self.ctx, &self.forest, q)?)
            }
            None => None,
        };
        match want {
            Some(w) if w != a.digest => Err(format!(
                "{} `{}` on p{}: the answer differs from the plain-scan reference",
                q.kind.name(),
                q.text,
                q.path
            )),
            _ => Ok(Some(a)),
        }
    }

    fn read(
        &mut self,
        lock: &StoreLock,
        st: &mut ReadStats,
        check_all: bool,
    ) -> Result<(), String> {
        let lw = Instant::now();
        let g = lock.read();
        st.lock_wait.push(us(lw.elapsed()));
        self.forest.refresh(&g, self.ctx)?;
        let qi = self.mix.next(self.qs);
        let t0 = Instant::now();
        let r = serve(self.svc, &g, self.ctx, &self.forest, &self.qs.queries[qi]);
        let lat = us(t0.elapsed());
        if r.is_ok() {
            st.lat.push(lat);
            st.done.push(Instant::now());
        }
        self.judge(&g, qi, r, st, check_all).map(|_| ())
    }

    fn read_traced(
        &mut self,
        lock: &StoreLock,
        st: &mut ReadStats,
        tr: &mut Tracer,
        check_all: bool,
    ) -> Result<(), String> {
        let root = tr.start();
        let rid = root.id();
        let o = tr.start();
        let g = lock.read();
        st.lock_wait
            .push(tr.end(o, "client.lock_wait", rid, Some(rid)));
        tr.child("client.forest", rid, rid, || {
            self.forest.refresh(&g, self.ctx)
        })?;
        let qi = match self.cycle.as_mut() {
            Some(i) => {
                *i += 1;
                self.mix.next_of(self.qs, Kind::ALL[*i % Kind::ALL.len()])
            }
            None => self.mix.next(self.qs),
        };
        let q = &self.qs.queries[qi];
        let rebuilt = force_cols(tr, rid, &self.clock, &g, self.ctx, &self.forest, q)?;
        let o = tr.start();
        let r = serve(self.svc, &g, self.ctx, &self.forest, q);
        let lat = tr.end(o, "service.request", rid, Some(rid));
        if r.is_ok() {
            st.lat.push(lat);
            st.done.push(Instant::now());
            st.by_kind[q.kind.idx()].push(lat);
        }
        let kind = q.kind;
        let answer = tr.child("client.check", rid, rid, || {
            self.judge(&g, qi, r, st, check_all)
        })?;
        let q = &self.qs.queries[qi];
        let (digest, mut rec) = layered(tr, rid, &g, self.ctx, &self.forest, q)?;
        if let Some(a) = answer {
            if !a.degraded && a.digest != digest {
                return Err(format!(
                    "{} `{}`: the layer-by-layer re-execution differs from the service answer",
                    kind.name(),
                    q.text
                ));
            }
            if index_planned(&a.explain) {
                st.planned_indexed += 1;
                st.served_indexed += u64::from(!a.explain.fell_back());
            }
        }
        rec.cols_forced = rebuilt.is_some();
        rec.cols_rebuilt = rebuilt.unwrap_or(0);
        st.recs.push((kind, rec));
        drop(g);
        tr.end(root, "client.read", rid, None);
        Ok(())
    }
}

/// The writer: closed loop, or open loop at a fixed rate.
struct Writer<'a> {
    svc: &'a QueryService,
    gen: WriteGen,
    model: ListModel,
    since_checkpoint: u64,
    /// When set, plan kinds round-robin (the fixed probe).
    cycle: Option<usize>,
}

impl Writer<'_> {
    /// One commit, due at `due` (its schedule, or the previous ack).
    /// `open` times it from `due`; otherwise from submission.
    fn commit(
        &mut self,
        lock: &StoreLock,
        st: &mut WriteStats,
        due: Instant,
        open: bool,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let root = tr.as_mut().map(|t| t.start());
        let rid = root.map_or(0, |o| o.id());
        let lw = Instant::now();
        st.lag_ms
            .push(lw.saturating_duration_since(due).as_secs_f64() * 1e3);
        let lock_open = tr.as_mut().map(|t| t.start());
        let mut g = lock.write();
        st.lock_wait.push(match (tr.as_mut(), lock_open) {
            (Some(t), Some(o)) => t.end(o, "client.lock_wait", rid, Some(rid)),
            _ => us(lw.elapsed()),
        });
        let op: Op = match self.cycle.as_mut() {
            Some(i) => {
                *i += 1;
                self.gen.plan(&g, OpKind::ALL[*i % OpKind::ALL.len()])?
            }
            None => self.gen.next(&g)?,
        };
        let inserted = ListModel::predicted_insert(&g, &op);
        let one_shard = op.paths.len() == 1;
        let txn = self.gen.txn(&g, &op);
        let t0 = Instant::now();
        let result: Result<usize, String> = match tr.as_mut() {
            Some(t) if one_shard => {
                let o = t.start();
                let applied = self.gen.apply_routed(&mut g, &op);
                t.end(o, "store.apply", rid, Some(rid));
                let o = t.start();
                let synced = g.sync().map_err(|e| e.to_string());
                t.end(o, "store.sync", rid, Some(rid));
                applied.and(synced).map(|_| 1)
            }
            Some(t) => {
                let o = t.start();
                let r = g.commit_gated(&txn, || true);
                t.end(o, "store.txn.2pc", rid, Some(rid));
                r.map(|r| r.participants.len()).map_err(|e| e.to_string())
            }
            None => self
                .svc
                .apply_cross_shard(&Request::new("bench"), &mut g, &txn)
                .map(|r| r.value.participants.len())
                .map_err(|e| e.to_string()),
        };
        let acked = Instant::now();
        st.attempted += 1;
        match result {
            Ok(p) => {
                st.lat.push(us(acked - if open { due } else { t0 }));
                st.done.push(acked);
                st.commits += 1;
                st.user_bytes += op.user_bytes;
                st.two_pc += u64::from(p > 1);
                st.fsyncs += if p > 1 { 2 * p as u64 + 1 } else { 1 };
                self.model.ack(&op, inserted);
            }
            Err(e) => {
                st.failed += 1;
                st.first_failure.get_or_insert(e);
            }
        }
        st.last_ack = Some(acked);
        self.since_checkpoint += 1;
        if self.since_checkpoint >= CHECKPOINT_EVERY {
            self.since_checkpoint = 0;
            checkpoint(&mut g, st, tr.as_deref_mut())?;
        }
        drop(g);
        if let (Some(t), Some(o)) = (tr, root) {
            t.end(o, "client.commit", rid, None);
        }
        Ok(())
    }

    /// Closed loop until `deadline` (or `max` commits).
    fn closed_loop(
        &mut self,
        lock: &StoreLock,
        st: &mut WriteStats,
        deadline: Instant,
        max: usize,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let mut n = 0;
        while Instant::now() < deadline && n < max {
            let due = st.last_ack.unwrap_or_else(Instant::now);
            self.commit(lock, st, due, false, tr.as_deref_mut())?;
            n += 1;
        }
        Ok(())
    }

    /// Open loop at [`WRITER_RATE`] from `start` until `deadline`.
    fn open_loop(
        &mut self,
        lock: &StoreLock,
        st: &mut WriteStats,
        start: Instant,
        deadline: Instant,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let period = Duration::from_secs_f64(1.0 / WRITER_RATE);
        let mut due = start;
        while due < deadline {
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.commit(lock, st, due, true, tr.as_deref_mut())?;
            due += period;
        }
        Ok(())
    }
}

fn checkpoint(
    ss: &mut ShardedStore,
    st: &mut WriteStats,
    tr: Option<&mut Tracer>,
) -> Result<(), String> {
    let (paths, took) = match tr {
        Some(t) => {
            let o = t.start();
            let r = ss.checkpoint();
            (r, t.end(o, "store.checkpoint", 0, None))
        }
        None => {
            let t0 = Instant::now();
            let r = ss.checkpoint();
            (r, us(t0.elapsed()))
        }
    };
    let paths = paths.map_err(|e| e.to_string())?;
    st.checkpoint_us.push(took);
    st.snapshot_bytes = paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    Ok(())
}

/// Split `lat` into `n` equal windows of the `secs` after `start`, by
/// completion instant.
fn windows(lat: &Samples, done: &[Instant], start: Instant, secs: f64, n: usize) -> Vec<Samples> {
    let mut out = vec![Samples::default(); n];
    for (&v, t) in lat.0.iter().zip(done) {
        let at = t.saturating_duration_since(start).as_secs_f64() / secs * n as f64;
        out[(at as usize).min(n - 1)].push(v);
    }
    out
}

/// Run `w` with `seed`; `traced` selects the per-layer run.
pub fn run(w: Workload, seed: u64, traced: bool, p: &Params) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&p.dir);
    std::fs::create_dir_all(&p.dir).map_err(|e| format!("{}: {e}", p.dir.display()))?;
    let out = run_in(w, seed, traced, p);
    let _ = std::fs::remove_dir_all(&p.dir);
    // The parent goes too once no other run uses it.
    if let Some(parent) = p.dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    out
}

fn run_in(w: Workload, seed: u64, traced: bool, p: &Params) -> Result<Outcome, String> {
    let pop = Population {
        seed,
        sizes: p.sizes,
    };
    let nproc = aqua_exec::available_threads();
    let svc_cfg = ServiceConfig {
        worker_cap: if w == Workload::MixedRw { 1 } else { nproc },
        ..ServiceConfig::default()
    };
    // Set-up, several times untraced: `setup_s` is the median.
    let setups = if traced { 1 } else { p.setups.max(1) };
    let mut setup_s = Samples::default();
    let mut kept = None;
    for i in 0..setups {
        let dir = p.dir.join(format!("store{i}"));
        let svc = QueryService::new(svc_cfg);
        let t = Instant::now();
        let (ss, built) = pop.build(&svc, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == setups {
            kept = Some((svc, ss, built, dir));
        } else {
            drop(ss);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (svc, mut ss, built, dir) = kept.expect("at least one set-up");
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut report = Report::default();
    let mut errors = Vec::new();

    if traced {
        let mut t = Tracer::new(epoch, 0);
        let o = t.start();
        ss.refresh_indexes().map_err(|e| e.to_string())?;
        let refresh = t.end(o, "store.index.refresh", 0, None);
        report.set("store.index.refresh_us", Value::new(refresh, 1));
        trace.absorb(t);
    }

    let ctx = Ctx::new(&ss, built.class, p.sizes.paths, svc_cfg.worker_cap);
    let qs = QuerySet::new(seed, p.sizes, &ctx.env)?;
    let clock = ColsClock::calibrate(&ss, &ctx)?;
    let mut forest = Forest::new();
    forest.refresh(&ss, &ctx)?;
    // read_query checks every answer against a reference computed once,
    // serially, by plain scan.
    let refs: Option<Vec<u64>> = if w == Workload::ReadQuery {
        let mut r = qs
            .queries
            .iter()
            .map(|q| scan(&ss, &ctx, &forest, q))
            .collect::<Result<Vec<_>, _>>()?;
        if p.plant_wrong_reference {
            r.iter_mut().for_each(|d| *d ^= 1);
        }
        Some(r)
    } else {
        None
    };
    let model = ListModel::new(&ss, p.sizes.paths);
    let lock = StoreLock::new(ss);
    let mut reader = Reader {
        svc: &svc,
        ctx: &ctx,
        qs: &qs,
        refs: refs.as_deref(),
        clock,
        mix: Mix::new(seed, 0x7265_6164, p.sizes.paths),
        sample: Rng::new(seed, 0x5ca4),
        forest,
        cycle: None,
    };
    let mut writer = Writer {
        svc: &svc,
        gen: WriteGen::new(seed, 0x7772_6974, built.class, ctx.routes.clone()),
        model,
        since_checkpoint: 0,
        cycle: None,
    };
    let mut rs = ReadStats::default();
    let mut ws = WriteStats::default();
    let wal_before = svc.metrics_snapshot();

    // Phases: untraced runs measure all of `seconds`; traced runs split
    // it into an untraced half (the overhead baseline) and a traced half.
    let (untraced_s, traced_s) = if traced {
        (p.seconds / 2.0, p.seconds / 2.0)
    } else {
        (p.seconds, 0.0)
    };
    let phase = |rs: &mut ReadStats,
                 ws: &mut WriteStats,
                 reader: &mut Reader,
                 writer: &mut Writer,
                 secs: f64,
                 tr: &mut Option<(Tracer, Tracer)>|
     -> Result<f64, String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        match w {
            Workload::ReadQuery => {
                while Instant::now() < deadline {
                    match tr.as_mut() {
                        Some((t, _)) => reader.read_traced(&lock, rs, t, false)?,
                        None => reader.read(&lock, rs, false)?,
                    }
                }
            }
            Workload::WriteCommit => {
                writer.closed_loop(&lock, ws, deadline, usize::MAX, tr.as_mut().map(|(_, t)| t))?
            }
            Workload::MixedRw => {
                let (rt, wt) = match tr.as_mut() {
                    Some((a, b)) => (Some(a), Some(b)),
                    None => (None, None),
                };
                std::thread::scope(|s| {
                    let lock = &lock;
                    let wh = s.spawn(move || writer.open_loop(lock, ws, start, deadline, wt));
                    let mut rt = rt;
                    let mut rr = Ok(());
                    while rr.is_ok() && Instant::now() < deadline {
                        rr = match rt.as_deref_mut() {
                            Some(t) => reader.read_traced(lock, rs, t, false),
                            None => reader.read(lock, rs, false),
                        };
                    }
                    let wr = wh.join().expect("writer thread");
                    rr.and(wr)
                })?;
            }
        }
        Ok(start.elapsed().as_secs_f64())
    };

    let mut none = None;
    let started = Instant::now();
    let elapsed = match phase(
        &mut rs,
        &mut ws,
        &mut reader,
        &mut writer,
        untraced_s,
        &mut none,
    ) {
        Ok(e) => e,
        Err(e) => {
            errors.push(e);
            untraced_s
        }
    };
    let (client, done) = if w.reads() {
        (&rs.lat, &rs.done)
    } else {
        (&ws.lat, &ws.done)
    };
    let untraced_client = client.clone();
    let untraced_commits = ws.lat.clone();
    let mut attempted = rs.attempted + ws.attempted;
    let mut failed = rs.failed + rs.degraded + ws.failed;
    if !traced {
        // Each client metric is the median over equal windows of the
        // run, so a burst of interference on the host moves it less.
        let windows = windows(client, done, started, elapsed, WINDOWS);
        let n = client.len() as u64;
        let per = |f: &dyn Fn(&Samples) -> f64| {
            Value::new(Samples(windows.iter().map(f).collect()).pct(50.0), n)
        };
        report.set("op_p50_us", per(&|s| s.pct(50.0)));
        let tails: Vec<Value> = windows.iter().map(Samples::tail).collect();
        report.set(
            "op_p99_us",
            Value {
                pct: tails.iter().filter_map(|t| t.pct).reduce(f64::min),
                ..per(&|s| s.tail().value)
            },
        );
        report.set(
            "ops_per_s",
            per(&|s| s.len() as f64 / (elapsed / WINDOWS as f64)),
        );
        report.set("setup_s", setup_s.median());
    }
    let untraced_lock = {
        let mut s = rs.lock_wait.clone();
        s.extend(&ws.lock_wait);
        s
    };

    // The traced half, then a fixed probe of the layers the workload
    // leaves idle.
    let mut trs = ReadStats::default();
    let mut tws = WriteStats::default();
    if traced && errors.is_empty() {
        let mut tr = Some((Tracer::new(epoch, 1), Tracer::new(epoch, 2)));
        tws.last_ack = ws.last_ack;
        if let Err(e) = phase(
            &mut trs,
            &mut tws,
            &mut reader,
            &mut writer,
            traced_s,
            &mut tr,
        ) {
            errors.push(e);
        }
        let (mut rt, mut wt) = tr.expect("tracers");
        reader.cycle = Some(0);
        writer.cycle = Some(0);
        let probe = match w {
            Workload::ReadQuery => writer.closed_loop(
                &lock,
                &mut tws,
                Instant::now() + Duration::from_secs(60),
                PROBE_COMMITS,
                Some(&mut wt),
            ),
            Workload::WriteCommit => (0..PROBE_READS)
                .try_for_each(|_| reader.read_traced(&lock, &mut trs, &mut rt, true)),
            Workload::MixedRw => Ok(()),
        };
        if let Err(e) = probe {
            errors.push(e);
        }
        reader.cycle = None;
        writer.cycle = None;
        if tws.checkpoint_us.len() == 0 {
            let mut g = lock.write();
            if let Err(e) = checkpoint(&mut g, &mut tws, Some(&mut wt)) {
                errors.push(e);
            }
        }
        trace.absorb(rt);
        trace.absorb(wt);
        attempted += trs.attempted + tws.attempted;
        failed += trs.failed + trs.degraded + tws.failed;
    }

    let wal_after = svc.metrics_snapshot();
    let mut ss = lock.into_inner();
    // Writing workloads end on a checkpoint plus a fixed tail, so the
    // reopen replays the same number of frames in every run.
    if w.writes() && errors.is_empty() {
        let tail = StoreLock::new(ss);
        let mut tail_stats = WriteStats::default();
        let checkpointed = {
            let mut g = tail.write();
            checkpoint(&mut g, &mut tail_stats, None)
        };
        // Kinds round-robin and no checkpoint among them: the reopen
        // replays the same mix every run.
        writer.cycle = Some(0);
        writer.since_checkpoint = 0;
        if let Err(e) = checkpointed.and_then(|_| {
            writer.closed_loop(
                &tail,
                &mut tail_stats,
                Instant::now() + Duration::from_secs(60),
                TAIL_COMMITS,
                None,
            )
        }) {
            errors.push(e);
        }
        ss = tail.into_inner();
        if tail_stats.failed > 0 {
            errors.push(format!(
                "tail commit failed: {}",
                tail_stats.first_failure.unwrap_or_default()
            ));
        }
        ws.user_bytes += tail_stats.user_bytes;
    }
    if let Err(e) = writer.model.check(&ss) {
        errors.push(e);
    }

    // Close, then time a cold reopen through a fresh service.
    let storm = ShardStorm::new(seed, p.sizes.paths);
    let fingerprint = storm.fingerprint(&ss);
    let root = ss.global_root();
    let disk = dir_bytes(&dir);
    let user_bytes = built.user_bytes + ws.user_bytes + tws.user_bytes;
    drop(ss);
    // Cold reopens, each through a fresh service; the last reopened
    // store is checked.
    let mut recovery_ms = Samples::default();
    let mut reopened = None;
    let mut rt = Tracer::new(epoch, 3);
    for _ in 0..if traced { REOPENS } else { 1 } {
        drop(reopened.take());
        let fresh = QueryService::new(svc_cfg);
        let o = rt.start();
        let t = Instant::now();
        let r = fresh.open_sharded(&dir, crate::population::sharded_config());
        recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rt.end(o, "store.recovery", 0, None);
        reopened = Some((fresh, r));
    }
    trace.absorb(rt);
    let (fresh, reopened) = reopened.expect("at least one reopen");
    match reopened {
        Ok(ss) => {
            if storm.fingerprint(&ss) != fingerprint {
                errors.push("the reopened store's values differ from the closed store's".into());
            }
            if ss.global_root() != root {
                errors.push(
                    "the reopened store's global root differs from the closed store's".into(),
                );
            }
            if let Err(e) = writer.model.check(&ss) {
                errors.push(format!("after reopen: {e}"));
            }
        }
        Err(e) => errors.push(format!("reopen failed: {e}")),
    }
    let rep = fresh.sharded_recovery_report().unwrap_or_default();

    if !traced {
        report.set(
            "disk_bytes_per_user_byte",
            Value::new(disk as f64 / user_bytes.max(1) as f64, 1),
        );
        report.set("peak_rss_mb", Value::new(peak_rss_mb(), 1));
    } else {
        tws.lag_ms.extend(&ws.lag_ms);
        layer_metrics(
            &mut report,
            &trace,
            &trs,
            &tws,
            &untraced_client,
            &untraced_commits,
            &untraced_lock,
            w,
        );
        let m = wal_after;
        let commits = (ws.commits + tws.commits).max(1) as f64;
        let n = ws.commits + tws.commits;
        report.set(
            "store.wal.bytes_per_commit",
            Value::new((m.wal_bytes - wal_before.wal_bytes) as f64 / commits, n),
        );
        report.set(
            "store.wal.appends_per_commit",
            Value::new((m.wal_appends - wal_before.wal_appends) as f64 / commits, n),
        );
        report.set(
            "store.txn.2pc_share",
            Value::new((ws.two_pc + tws.two_pc) as f64 / commits, n),
        );
        report.set(
            "store.fsyncs_per_commit",
            Value::new((ws.fsyncs + tws.fsyncs) as f64 / commits, n),
        );
        let submissions = (m.svc_admitted + m.svc_shed).max(1) as f64;
        report.set(
            "service.shed_ratio",
            Value::new(m.svc_shed as f64 / submissions, m.svc_admitted + m.svc_shed),
        );
        report.set(
            "service.retry_ratio",
            Value::new(
                m.svc_retried as f64 / m.svc_admitted.max(1) as f64,
                m.svc_admitted,
            ),
        );
        report.set(
            "failed_ratio",
            Value::new(failed as f64 / attempted.max(1) as f64, attempted),
        );
        report.set("store.recovery_ms", recovery_ms.median());
        report.set(
            "store.recovery.frames_replayed",
            Value::new(rep.frames_replayed() as f64, 1),
        );
        report.set(
            "store.recovery.roots_verified",
            Value::new(
                rep.shards.iter().map(|r| r.roots_verified).sum::<u64>() as f64,
                1,
            ),
        );
        if let Some(path) = &p.spans_out {
            if let Err(e) = trace.write_jsonl(path, SPAN_CAP) {
                errors.push(format!("writing spans to {}: {e}", path.display()));
            }
        }
    }
    let first_failure = rs
        .first_failure
        .or(ws.first_failure)
        .or(trs.first_failure)
        .or(tws.first_failure);
    Ok(Outcome {
        report,
        attempted,
        failed,
        errors,
        first_failure,
    })
}

/// The per-layer breakdown of a traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    trace: &Trace,
    rs: &ReadStats,
    ws: &WriteStats,
    untraced_client: &Samples,
    untraced_commits: &Samples,
    untraced_lock: &Samples,
    w: Workload,
) {
    for name in [
        "pattern.parse",
        "optimizer.plan",
        "optimizer.execute",
        "core.cols",
        "exec.scatter",
        "store.apply",
        "store.sync",
        "store.txn.2pc",
        "store.checkpoint",
    ] {
        let metric = match name {
            "pattern.parse" => "pattern.parse_us",
            "optimizer.plan" => "optimizer.plan_us",
            "optimizer.execute" => "optimizer.execute_us",
            "core.cols" => "core.cols_us",
            "exec.scatter" => "exec.scatter_us",
            "store.apply" => "store.apply_us",
            "store.sync" => "store.sync_us",
            "store.txn.2pc" => "store.txn.2pc_us",
            _ => "store.checkpoint_us",
        };
        report.set(metric, trace.durations(name).median());
    }
    report.set(
        "store.snapshot_bytes",
        Value::new(ws.snapshot_bytes as f64, 1),
    );

    // service.self: the service call minus the layer calls it composes.
    let mut self_us = Samples::default();
    for (root, kids) in trace.requests() {
        if root.name != "client.read" {
            continue;
        }
        let (mut svc, mut layers) = (0.0, 0.0);
        for k in &kids {
            match k.name {
                "service.request" => svc += k.us(),
                "optimizer.plan" | "core.cols" | "optimizer.execute" | "exec.scatter" => {
                    layers += k.us()
                }
                _ => {}
            }
        }
        self_us.push(svc - layers);
    }
    report.set("service.self_us", self_us.median());
    for k in Kind::ALL {
        report.set(k.p50_metric(), rs.by_kind[k.idx()].median());
    }

    let per = |f: &dyn Fn(&LayerRec) -> u64, kinds: &[Kind]| -> Value {
        let sel: Vec<&LayerRec> = rs
            .recs
            .iter()
            .filter(|(k, _)| kinds.contains(k))
            .map(|(_, r)| r)
            .collect();
        let total: u64 = sel.iter().map(|r| f(r)).sum();
        Value::new(total as f64 / sel.len().max(1) as f64, sel.len() as u64)
    };
    let trees = [Kind::Tree, Kind::Split, Kind::Forest];
    report.set(
        "pattern.vm_steps_per_list_read",
        per(&|r| r.vm_steps, &[Kind::List]),
    );
    report.set(
        "core.match_visits_per_read",
        per(&|r| r.match_visits, &trees),
    );
    let (cand, pruned) = rs
        .recs
        .iter()
        .fold((0, 0), |(c, p), (_, r)| (c + r.candidates, p + r.pruned));
    report.set(
        "core.candidates_pruned_ratio",
        Value::new(pruned as f64 / cand.max(1) as f64, cand),
    );
    let forced: Vec<&LayerRec> = rs
        .recs
        .iter()
        .map(|(_, r)| r)
        .filter(|r| r.cols_forced)
        .collect();
    report.set(
        "core.cols_rebuilds_per_read",
        Value::new(
            forced.iter().map(|r| r.cols_rebuilt as u64).sum::<u64>() as f64
                / forced.len().max(1) as f64,
            forced.len() as u64,
        ),
    );
    report.set(
        "exec.scatter_batches_per_query",
        per(&|r| r.batches, &[Kind::Forest]),
    );
    report.set("exec.pool_steals", per(&|r| r.steals, &[Kind::Forest]));
    report.set(
        "optimizer.index_served_ratio",
        Value::new(
            rs.served_indexed as f64 / rs.planned_indexed.max(1) as f64,
            rs.planned_indexed,
        ),
    );

    report.set(
        "client.lock_wait_us",
        Value::new(untraced_lock.mean(), untraced_lock.len() as u64),
    );
    // Commit latency from the untraced half; read_query commits only in
    // its traced probe.
    let commits = if untraced_commits.len() > 0 {
        untraced_commits
    } else {
        &ws.lat
    };
    report.set("client.commit_p50_us", commits.median());
    report.set("client.commit_p99_us", commits.tail());
    report.set("client.writer_lag_p99_ms", ws.lag_ms.tail());

    let (a, n) = {
        let (ra, rn) = trace.unattributed_share("client.read");
        let (wa, wn) = trace.unattributed_share("client.commit");
        if rn + wn == 0 {
            (0.0, 0)
        } else {
            (
                (ra * rn as f64 + wa * wn as f64) / (rn + wn) as f64,
                rn + wn,
            )
        }
    };
    report.set("trace.unattributed_share", Value::new(a, n));
    let traced_client = if w.reads() { &rs.lat } else { &ws.lat };
    report.set(
        "trace.overhead_ratio",
        Value::new(
            traced_client.pct(50.0) / untraced_client.pct(50.0).max(1e-9),
            traced_client.len() as u64,
        ),
    );
}
