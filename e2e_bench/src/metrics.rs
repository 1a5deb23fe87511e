//! Every metric the benchmark reports, declared once.
//!
//! The tables below are the single source of names, units and
//! directions: the result line, the human-readable table and the
//! self-test all read them, and `BENCHMARK.json` must list the same
//! names (the self-test checks that too).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a per-layer number is obtained — what a reader may expect of
/// its repeatability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock time of one or more spans.
    Timing,
    /// An exact count or ratio of counts: with one client and one seed
    /// it repeats exactly.
    Exact,
    /// A count classified from timings (see `core.cols_rebuilds_per_read`).
    TimingClassified,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// What it measures, one line.
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        source: Source::Timing,
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    source: Source,
    meaning: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        source,
        meaning,
    }
}

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
pub const END_TO_END: &[Decl] = &[
    e2e(
        "op_p50_us",
        "us",
        Better::Lower,
        "median latency of the closed-loop client's op: a QueryService read, or a commit acknowledged after fsync",
    ),
    e2e(
        "op_p99_us",
        "us",
        Better::Lower,
        "tail latency of the same op, at the highest percentile (<= p99) with ten samples beyond it",
    ),
    e2e(
        "ops_per_s",
        "1/s",
        Better::Higher,
        "completed client ops per second of measured run time",
    ),
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        "populate + open + index build + checkpoint, median of the run's set-ups",
    ),
    e2e(
        "disk_bytes_per_user_byte",
        "ratio",
        Better::Lower,
        "bytes under the store directory at run end / attribute bytes the client wrote",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        "VmHWM of the workload's process",
    ),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: &[Decl] = &[
    layer("service.self_us", "us", Source::Timing, "service.request minus the layer calls it composes (plan, cols, execute, scatter), median per read"),
    layer("service.tree_sub_select.p50_us", "us", Source::Timing, "median service.request span of tree sub_select reads"),
    layer("service.list_sub_select.p50_us", "us", Source::Timing, "median service.request span of list sub_select reads"),
    layer("service.set_select.p50_us", "us", Source::Timing, "median service.request span of set select reads"),
    layer("service.forest_sub_select.p50_us", "us", Source::Timing, "median service.request span of sharded forest sub_select reads"),
    layer("service.tree_split.p50_us", "us", Source::Timing, "median service.request span of verified tree split reads"),
    layer("service.shed_ratio", "ratio", Source::Exact, "svc_shed / submissions"),
    layer("service.retry_ratio", "ratio", Source::Exact, "svc_retried / admitted submissions"),
    layer("failed_ratio", "ratio", Source::Exact, "(shed + failed + degraded) / attempted, all ops"),
    layer("pattern.parse_us", "us", Source::Timing, "median pattern.parse span (tree and list pattern text)"),
    layer("pattern.vm_steps_per_list_read", "count", Source::Exact, "pike VM steps per list sub_select read"),
    layer("optimizer.plan_us", "us", Source::Timing, "median optimizer.plan span"),
    layer("optimizer.execute_us", "us", Source::Timing, "median optimizer.execute span (self time)"),
    Decl {
        better: Better::Higher,
        ..layer("optimizer.index_served_ratio", "ratio", Source::Exact, "index-planned reads whose Explain has no fallback / index-planned reads")
    },
    layer("core.cols_us", "us", Source::Timing, "median core.cols span: tree/list columns forced before execute"),
    layer("core.cols_rebuilds_per_read", "count", Source::TimingClassified, "columns rebuilt (not cached) per read, classified by a time threshold calibrated at set-up"),
    layer("core.match_visits_per_read", "count", Source::Exact, "tree-matcher node visits per tree read"),
    layer("core.candidates_pruned_ratio", "ratio", Source::Exact, "match_candidates_pruned / match_candidates over tree reads"),
    layer("exec.scatter_us", "us", Source::Timing, "median exec.scatter span of forest reads"),
    layer("exec.scatter_batches_per_query", "count", Source::Exact, "Explain::shard_batches per forest read"),
    layer("exec.pool_steals", "count", Source::Timing, "pool steals per forest read (depends on thread timing)"),
    layer("store.apply_us", "us", Source::Timing, "median store.apply span: routed validate + merkle + WAL append + apply of a one-shard commit"),
    layer("store.sync_us", "us", Source::Timing, "median store.sync span (ShardedStore::sync after a one-shard commit)"),
    layer("store.txn.2pc_us", "us", Source::Timing, "median store.txn.2pc span (commit_gated of a two-shard commit)"),
    layer("store.txn.2pc_share", "ratio", Source::Exact, "two-shard commits / commits"),
    layer("store.fsyncs_per_commit", "count", Source::Exact, "fsyncs per acknowledged commit, from receipts: 1 on the fast path, 2P+1 under 2PC"),
    layer("store.wal.bytes_per_commit", "B", Source::Exact, "wal_bytes per commit (MetricsSnapshot)"),
    layer("store.wal.appends_per_commit", "count", Source::Exact, "wal_appends per commit (MetricsSnapshot)"),
    layer("store.checkpoint_us", "us", Source::Timing, "median store.checkpoint span"),
    layer("store.snapshot_bytes", "B", Source::Exact, "bytes of the snapshots the last checkpoint wrote"),
    layer("store.index.refresh_us", "us", Source::Timing, "store.index.refresh span at set-up"),
    layer("store.recovery_ms", "ms", Source::Timing, "median of nine cold reopens of the store the run left: replay, root verification, index rebuild"),
    layer("store.recovery.frames_replayed", "count", Source::Exact, "WAL frames replayed by the final reopen"),
    layer("store.recovery.roots_verified", "count", Source::Exact, "frame roots verified by the final reopen"),
    layer("client.lock_wait_us", "us", Source::Timing, "mean wait to acquire the store RwLock, reader and writer"),
    layer("client.commit_p50_us", "us", Source::Timing, "median commit latency, submission (open loop: due time) to acknowledgement after fsync; untraced half, or the probe"),
    layer("client.commit_p99_us", "us", Source::Timing, "tail of the same, at the highest percentile (<= p99) with ten samples beyond it"),
    layer("client.writer_lag_p99_ms", "ms", Source::Timing, "p99 of how late each commit was issued after it was due"),
    layer("trace.unattributed_share", "ratio", Source::Timing, "1 - sum of layer span time / request span time"),
    layer("trace.overhead_ratio", "ratio", Source::Timing, "traced / untraced median client-op latency in the same process"),
];

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
    /// The percentile actually used, for tail metrics.
    pub pct: Option<f64>,
}

impl Value {
    pub fn new(value: f64, samples: u64) -> Value {
        Value {
            value,
            samples,
            pct: None,
        }
    }
}

/// The metrics one run reports, keyed by declared name.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, v: Value) {
        self.values.insert(name, v);
    }

    /// Every declared name of `decls` that has no value.
    pub fn missing(&self, decls: &[Decl]) -> Vec<&'static str> {
        decls
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// Human-readable table: name, value, unit, samples, source.
    pub fn table(&self, decls: &[Decl]) -> String {
        let mut out = String::new();
        for d in decls {
            let Some(v) = self.values.get(d.name) else {
                continue;
            };
            let pct = v.pct.map(|p| format!(" (p{p:.1})")).unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<36} {:>14.4} {:<6} n={:<8} {:?}{pct}",
                d.name, v.value, d.unit, v.samples, d.source
            );
        }
        out
    }

    /// The `metrics` object of the result line, over `decls` only.
    pub fn json(&self, decls: &[Decl]) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for d in decls {
            let Some(v) = self.values.get(d.name) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_num(value),
                d.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with all its digits.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Latency samples in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` (0..=100); 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> Value {
        Value::new(self.pct(50.0), self.len() as u64)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// The tail percentile: p99, or the highest percentile that still
    /// has at least ten samples beyond it.
    pub fn tail(&self) -> Value {
        let n = self.len() as f64;
        let p = if n <= 10.0 {
            50.0
        } else {
            (100.0 * (1.0 - 10.0 / n)).clamp(50.0, 99.0)
        };
        Value {
            value: self.pct(p),
            samples: self.len() as u64,
            pct: Some(p),
        }
    }
}

/// `VmHWM` of this process in MB (0 when /proc is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
