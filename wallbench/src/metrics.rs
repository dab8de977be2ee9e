//! Metric names, the result report, and the counters each layer exposes.

use crate::tracer::Span;
use odyssey_core::{AccessPath, IngestOutcome, MaintenanceReport, QueryOutcome, SpaceOdyssey};
use odyssey_storage::{IoStats, StorageManager};
use std::collections::BTreeMap;

/// End-to-end metrics every workload reports on an untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("total_s", "s"),
    ("first_query_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports on a traced run (0 where a
/// layer is not exercised), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.pages_read_seq", "count"),
    ("storage.pages_read_rand", "count"),
    ("storage.objects_scanned", "count"),
    ("storage.pages_written", "count"),
    ("storage.file_pages", "count"),
    ("storage.dead_pages", "count"),
    ("storage.write_bytes", "B"),
    ("storage.write_syscalls", "count"),
    ("storage.write_amp", "ratio"),
    ("storage.sim_s", "s"),
    ("buffer.hits", "count"),
    ("buffer.misses", "count"),
    ("buffer.evictions", "count"),
    ("buffer.hit_ratio", "ratio"),
    ("cursor.open_p50_ms", "ms"),
    ("cursor.open_p99_ms", "ms"),
    ("cursor.pull_us", "us"),
    ("cursor.pulls_per_query", "count"),
    ("cursor.finish_p99_ms", "ms"),
    ("planner.plans_seqscan", "count"),
    ("planner.plans_octree", "count"),
    ("planner.plans_merge", "count"),
    ("planner.est_over_wall.seqscan", "ratio"),
    ("planner.est_over_wall.octree", "ratio"),
    ("planner.est_over_wall.mergefile", "ratio"),
    ("octree.partitions_refined", "count"),
    ("octree.scan_per_result", "ratio"),
    ("octree.rows_skipped", "count"),
    ("octree.splits", "count"),
    ("merger.merges", "count"),
    ("merger.merge_share", "ratio"),
    ("merger.repairs", "count"),
    ("merger.bypasses", "count"),
    ("result_cache.hits", "count"),
    ("result_cache.misses", "count"),
    ("result_cache.partial", "count"),
    ("result_cache.hit_ratio", "ratio"),
    ("scheduler.run_ms", "ms"),
    ("scheduler.jobs_enqueued", "count"),
    ("scheduler.jobs_completed", "count"),
    ("scheduler.queue_peak", "count"),
    ("scheduler.pages_written", "count"),
    ("scheduler.jobs_waited", "count"),
    ("compactor.compactions", "count"),
    ("compactor.pages_reclaimed", "count"),
    ("wal.pages_appended", "count"),
    ("durability.checkpoint_ms", "ms"),
    ("recovery.storage_open_ms", "ms"),
    ("recovery.engine_open_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.req_bytes_mean", "B"),
    ("serve.resp_bytes_mean", "B"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.dropped_replies", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.trace_overhead", "ratio"),
    ("self_ms.loadgen", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.cursor", "ms"),
    ("self_ms.ingest", "ms"),
    ("self_ms.scheduler", "ms"),
    ("self_ms.durability", "ms"),
    ("self_ms.storage", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.codec", "ms"),
];

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The printed verdict of a check.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

/// The cost model is the deterministic tripwire: one client and the same
/// inputs (`(variant, sim_s)` pairs with equal variants) must give the same
/// simulated seconds on every pass. The verdict is printed with every
/// result; it does not decide `correct`, which is about answers.
pub fn check_repeats(report: &mut Report, sim_s: &[(u64, f64)]) {
    let differing: Vec<&(u64, f64)> = sim_s
        .iter()
        .filter(|(v, s)| {
            sim_s
                .iter()
                .any(|(w, t)| w == v && t.to_bits() != s.to_bits())
        })
        .collect();
    let repeated = sim_s
        .iter()
        .filter(|(v, _)| sim_s.iter().filter(|(w, _)| w == v).count() > 1)
        .count();
    let detail = if repeated == 0 {
        "not checked (no repeated pass)".to_string()
    } else if differing.is_empty() {
        format!("ok ({repeated} passes)")
    } else {
        format!("VIOLATED {differing:?}")
    };
    report.info("check storage.sim_s repeats", detail, "");
}

/// What one run measured and found.
#[derive(Default)]
pub struct Report {
    /// Operations issued in timed phases.
    pub attempted: u64,
    /// Errors, sheds, expiries and wrong answers among them.
    pub failed: u64,
    /// Answers that differ from the oracle (counted in `failed` too).
    pub mismatches: u64,
    /// Answers the oracle could not pin down (kNN racing an ingest).
    pub unchecked: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    info: Vec<(String, String)>,
    /// Failed checks other than per-answer mismatches.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// A printed figure outside the reported metric set.
    pub fn info(&mut self, name: &str, value: impl std::fmt::Display, unit: &str) {
        self.info.push((
            name.to_string(),
            format!("{value} {unit}").trim().to_string(),
        ));
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Counts one answer that disagreed with the oracle.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches < 5 {
            eprintln!("oracle mismatch: {what}");
        }
        self.mismatches += 1;
        self.failed += 1;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the human-readable lines, then the result object as the last
    /// line of standard output.
    pub fn print(&self, traced: bool) {
        let (names, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        for (name, value) in &self.info {
            println!("info   {name:<32} {value}");
        }
        let mut json = String::new();
        for (name, unit) in names {
            let value = values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name:<32} {value} {unit}");
            if !json.is_empty() {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        for p in &self.problems {
            println!("problem {p}");
        }
        if !traced {
            for (name, _) in END_TO_END {
                if values.get(name).copied().unwrap_or(0.0) <= 0.0 {
                    println!("problem end-to-end metric {name} is not positive");
                }
            }
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Counters the storage layer, buffer pool, engine and kernel expose,
/// read from outside before and after a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub io: IoStats,
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub buffer_evictions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_partial: u64,
    pub compactions: u64,
    pub write_bytes: u64,
    pub write_syscalls: u64,
}

impl Counters {
    pub fn read(storage: &StorageManager, engine: &SpaceOdyssey) -> Self {
        let buffer = storage.buffer();
        let (write_bytes, write_syscalls) = proc_io();
        Counters {
            io: storage.stats(),
            buffer_hits: buffer.hits(),
            buffer_misses: buffer.misses(),
            buffer_evictions: buffer.evictions(),
            cache_hits: engine.cache_hits(),
            cache_misses: engine.cache_misses(),
            cache_partial: engine.cache_partial_reuses(),
            compactions: engine.compactions_performed(),
            write_bytes,
            write_syscalls,
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            io: self.io.since(&earlier.io).0,
            buffer_hits: self.buffer_hits - earlier.buffer_hits,
            buffer_misses: self.buffer_misses - earlier.buffer_misses,
            buffer_evictions: self.buffer_evictions - earlier.buffer_evictions,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_partial: self.cache_partial - earlier.cache_partial,
            compactions: self.compactions - earlier.compactions,
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            write_syscalls: self.write_syscalls.saturating_sub(earlier.write_syscalls),
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.io.merge(&d.io);
        self.buffer_hits += d.buffer_hits;
        self.buffer_misses += d.buffer_misses;
        self.buffer_evictions += d.buffer_evictions;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_partial += d.cache_partial;
        self.compactions += d.compactions;
        self.write_bytes += d.write_bytes;
        self.write_syscalls += d.write_syscalls;
    }
}

/// `write_bytes` and `syscw` of this process from `/proc/self/io` (0 where
/// the file is unavailable).
fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("write_bytes:"), field("syscw:"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the outcomes of one timed phase add up to.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub queries: u64,
    pub results: u64,
    pub plans: [u64; 3],
    pub refined: u64,
    pub rows_skipped: u64,
    pub merges: u64,
    pub from_merge: u64,
    pub from_datasets: u64,
    pub repairs: u64,
    pub bypasses: u64,
    pub jobs_waited: u64,
    pub splits: u64,
    pub reclaimed: u64,
    pub maintenance_ms: f64,
    pub checkpoint_ms: Vec<f64>,
    pub wal_pages: u64,
    /// Planner estimate over measured wall time, per access path, for
    /// queries whose every dataset took that path.
    pub est_over_wall: [Vec<f64>; 3],
}

fn path_index(path: AccessPath) -> usize {
    match path {
        AccessPath::SeqScan => 0,
        AccessPath::Octree => 1,
        AccessPath::MergeFile => 2,
    }
}

impl Tally {
    pub fn query(&mut self, o: &QueryOutcome, returned: usize, wall_s: f64) {
        self.queries += 1;
        self.results += returned as u64;
        for p in &o.plans {
            self.plans[path_index(p.path)] += 1;
        }
        if let Some(first) = o.plans.first() {
            if wall_s > 0.0 && o.plans.iter().all(|p| p.path == first.path) {
                let est: f64 = o.plans.iter().map(|p| p.estimated_seconds).sum();
                self.est_over_wall[path_index(first.path)].push(est / wall_s);
            }
        }
        self.refined += o.partitions_refined as u64;
        self.rows_skipped += o.rows_skipped_by_early_exit;
        self.merges += u64::from(o.merge_performed);
        self.from_merge += o.partitions_from_merge_file as u64;
        self.from_datasets += o.partitions_from_datasets as u64;
        self.repairs += o.stale_merge_repairs as u64;
        self.bypasses += u64::from(o.stale_merge_bypassed);
        self.jobs_waited += o.maintenance_jobs_waited;
    }

    pub fn ingest(&mut self, o: &IngestOutcome) {
        self.splits += o.partitions_split as u64;
        self.reclaimed += o.pages_reclaimed;
    }

    pub fn maintenance(&mut self, r: &MaintenanceReport, ms: f64) {
        self.maintenance_ms += ms;
        self.splits += r.refinements;
        self.repairs += r.repair_runs_appended;
        self.reclaimed += r.pages_reclaimed;
    }

    pub fn add(&mut self, t: &Tally) {
        self.queries += t.queries;
        self.results += t.results;
        for i in 0..3 {
            self.plans[i] += t.plans[i];
            self.est_over_wall[i].extend_from_slice(&t.est_over_wall[i]);
        }
        self.refined += t.refined;
        self.rows_skipped += t.rows_skipped;
        self.merges += t.merges;
        self.from_merge += t.from_merge;
        self.from_datasets += t.from_datasets;
        self.repairs += t.repairs;
        self.bypasses += t.bypasses;
        self.jobs_waited += t.jobs_waited;
        self.splits += t.splits;
        self.reclaimed += t.reclaimed;
        self.maintenance_ms += t.maintenance_ms;
        self.checkpoint_ms.extend_from_slice(&t.checkpoint_ms);
        self.wal_pages += t.wal_pages;
    }
}

/// Span durations (ms) of one span name.
pub fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Fills the storage, buffer, cursor, planner, octree, merger, result-cache,
/// scheduler, compactor and durability metrics from `passes` traced passes:
/// counts are per pass, ratios and quantiles over all of them.
pub fn fill_layers(
    report: &mut Report,
    c: &Counters,
    t: &Tally,
    spans: &[Span],
    passes: usize,
    user_pages: f64,
    end_pages: (u64, u64),
) {
    let n = passes.max(1) as f64;
    let per = |v: u64| v as f64 / n;
    report.layer("storage.pages_read_seq", per(c.io.sequential_reads));
    report.layer("storage.pages_read_rand", per(c.io.random_reads));
    report.layer("storage.objects_scanned", per(c.io.objects_scanned));
    report.layer("storage.pages_written", per(c.io.pages_written()));
    report.layer("storage.file_pages", end_pages.0 as f64);
    report.layer("storage.dead_pages", end_pages.1 as f64);
    report.layer("storage.write_bytes", per(c.write_bytes));
    report.layer("storage.write_syscalls", per(c.write_syscalls));
    report.layer(
        "storage.write_amp",
        ratio(per(c.io.pages_written()), user_pages),
    );
    report.layer("buffer.hits", per(c.buffer_hits));
    report.layer("buffer.misses", per(c.buffer_misses));
    report.layer("buffer.evictions", per(c.buffer_evictions));
    report.layer(
        "buffer.hit_ratio",
        ratio(
            c.buffer_hits as f64,
            (c.buffer_hits + c.buffer_misses) as f64,
        ),
    );

    let open = span_ms(spans, "cursor.open");
    let pulls = span_ms(spans, "cursor.next_batch");
    let finish = span_ms(spans, "cursor.finish");
    report.layer("cursor.open_p50_ms", median(&open));
    report.layer("cursor.open_p99_ms", percentile(&open, 99.0));
    report.layer("cursor.pull_us", mean(&pulls) * 1e3);
    report.layer(
        "cursor.pulls_per_query",
        ratio(pulls.len() as f64, open.len() as f64),
    );
    report.layer("cursor.finish_p99_ms", percentile(&finish, 99.0));

    report.layer("planner.plans_seqscan", per(t.plans[0]));
    report.layer("planner.plans_octree", per(t.plans[1]));
    report.layer("planner.plans_merge", per(t.plans[2]));
    report.layer("planner.est_over_wall.seqscan", median(&t.est_over_wall[0]));
    report.layer("planner.est_over_wall.octree", median(&t.est_over_wall[1]));
    report.layer(
        "planner.est_over_wall.mergefile",
        median(&t.est_over_wall[2]),
    );

    report.layer("octree.partitions_refined", per(t.refined));
    report.layer(
        "octree.scan_per_result",
        ratio(c.io.objects_scanned as f64, t.results as f64),
    );
    report.layer("octree.rows_skipped", per(t.rows_skipped));
    report.layer("octree.splits", per(t.splits));

    report.layer("merger.merges", per(t.merges));
    report.layer(
        "merger.merge_share",
        ratio(t.from_merge as f64, (t.from_merge + t.from_datasets) as f64),
    );
    report.layer("merger.repairs", per(t.repairs));
    report.layer("merger.bypasses", per(t.bypasses));

    report.layer("result_cache.hits", per(c.cache_hits));
    report.layer("result_cache.misses", per(c.cache_misses));
    report.layer("result_cache.partial", per(c.cache_partial));
    report.layer(
        "result_cache.hit_ratio",
        ratio(
            c.cache_hits as f64,
            (c.cache_hits + c.cache_misses + c.cache_partial) as f64,
        ),
    );

    report.layer("scheduler.run_ms", t.maintenance_ms / n);
    report.layer(
        "scheduler.jobs_enqueued",
        per(c.io.maintenance_jobs_enqueued),
    );
    report.layer(
        "scheduler.jobs_completed",
        per(c.io.maintenance_jobs_completed),
    );
    report.layer("scheduler.queue_peak", c.io.maintenance_queue_peak as f64);
    report.layer(
        "scheduler.pages_written",
        per(c.io.maintenance_pages_written),
    );
    report.layer("scheduler.jobs_waited", per(t.jobs_waited));
    report.layer("compactor.compactions", per(c.compactions));
    report.layer("compactor.pages_reclaimed", per(t.reclaimed));

    report.layer("wal.pages_appended", per(t.wal_pages));
    report.layer("durability.checkpoint_ms", median(&t.checkpoint_ms));

    let table = crate::tracer::self_times(spans);
    for (layer, name) in [
        ("loadgen", "self_ms.loadgen"),
        ("engine", "self_ms.engine"),
        ("cursor", "self_ms.cursor"),
        ("ingest", "self_ms.ingest"),
        ("scheduler", "self_ms.scheduler"),
        ("durability", "self_ms.durability"),
        ("storage", "self_ms.storage"),
        ("serve", "self_ms.serve"),
        ("codec", "self_ms.codec"),
    ] {
        report.layer(name, table.get(layer).map_or(0.0, |r| r.2) / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics a run reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let workloads = ["explore", "lookup", "serve", "churn"];
        let reported: Vec<&str> = workloads
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(declared, reported);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
