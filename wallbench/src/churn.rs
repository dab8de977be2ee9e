//! `churn`: writes beside reads on a durable on-disk store.
//!
//! One client replays an interleaved ingest+query trace of fixed length
//! against a store in a scratch directory, calling `run_maintenance` in
//! line every few steps (scheduler, staleness repair, compaction) and
//! checkpointing at a fixed interval. The store keeps the engine's default
//! flush policy. The pass ends with a drop without `close` — a crash — and a
//! timed reopen, after which every acknowledged ingest must be present and
//! answers must equal the oracle. The only workload that exercises the WAL,
//! fsync, the manifest and recovery.

use crate::common::{self, Clustered, Ctx};
use crate::metrics::{self, Counters, Report, Tally};
use crate::oracle::Snapshot;
use crate::tracer;
use odyssey_core::{OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{
    BrainModel, CombinationDistribution, CombinationPicker, DatasetSpec, TraceStep,
};
use odyssey_geom::{
    Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, ObjectId, PointQuery, Query, QueryId,
    RangeQuery, SpatialObject, Vec3,
};
use odyssey_storage::{StorageManager, StorageOptions, StorageResult, PAGE_SIZE};
use rand::Rng;
use std::path::Path;
use std::time::Instant;

const DATASETS: usize = 4;
const OBJECTS: usize = 10_000;
/// Query steps per trace; ingest batches interleave at `INGEST_RATIO`.
/// Per-op cost grows with trace length, so the length is fixed.
const TRACE_QUERIES: usize = 240;
const INGEST_RATIO: f64 = 0.25;
const INGEST_BATCH: usize = 64;
/// Soma clusters the queries gather around, of the model's sixteen. A
/// pass's latencies follow how dense its clusters happen to be; eight of them
/// average that out better than a few.
const CLUSTERS: usize = 8;
const MAINTENANCE_EVERY: usize = 16;
const CHECKPOINT_EVERY: usize = 100;
/// Trace queries re-asked of the recovered engine.
const VERIFY_QUERIES: usize = 40;
const BUFFER_PAGES: usize = 2_048;
/// `--seconds` over this is the pass count: fifteen at the default 15 s.
/// A pass takes about 1.6 s on the host the benchmark was sized on, so a run
/// takes about 25 s; each pass brings fresh inputs, and the pooled latencies
/// vary more from one pass's inputs to the next than anything else.
const PASS_SECONDS: f64 = 1.0;

struct Inputs {
    bounds: Aabb,
    objects: Vec<Vec<SpatialObject>>,
    steps: Vec<TraceStep>,
}

impl Inputs {
    fn live_objects(&self) -> usize {
        let ingested: usize = self
            .steps
            .iter()
            .map(|s| match s {
                TraceStep::Ingest { objects, .. } => objects.len(),
                TraceStep::Query(_) => 0,
            })
            .sum();
        self.objects.iter().map(Vec::len).sum::<usize>() + ingested
    }
}

/// Mixed-kind queries clustered around soma clusters, each preceded with
/// probability `INGEST_RATIO` by a batch of new objects arriving near it.
fn inputs(ctx: &Ctx, variant: u64) -> Inputs {
    let stream = 10 * variant;
    let model = BrainModel::new(DatasetSpec {
        num_datasets: DATASETS,
        objects_per_dataset: OBJECTS,
        seed: ctx.sub_seed(stream + 31),
        ..DatasetSpec::default()
    });
    let bounds = model.bounds();
    let mut windows = Clustered::new(&model, CLUSTERS, 1e-5, ctx.sub_seed(stream + 32));
    let mut combos = CombinationPicker::new(
        DATASETS,
        3,
        CombinationDistribution::Zipf,
        ctx.sub_seed(stream + 33),
    );
    let mut next_id = 1u64 << 40;
    let mut steps = Vec::new();
    for i in 0..TRACE_QUERIES {
        let at = windows.center();
        let rng = windows.rng();
        if rng.gen_range(0.0..1.0) < INGEST_RATIO {
            let dataset = DatasetId(rng.gen_range(0..DATASETS as u16));
            let objects = (0..INGEST_BATCH)
                .map(|_| {
                    let jitter = Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ) * 40.0;
                    let size = Vec3::splat(rng.gen_range(1.0..3.0));
                    next_id += 1;
                    SpatialObject::new(
                        ObjectId(next_id),
                        dataset,
                        Aabb::from_center_extent((at + jitter).clamp(bounds.min, bounds.max), size),
                    )
                })
                .collect();
            steps.push(TraceStep::Ingest { dataset, objects });
        }
        let id = QueryId(i as u32);
        let datasets = combos.next_combination();
        let window = windows.window(at);
        let kind = windows.rng().gen_range(0..4u32);
        steps.push(TraceStep::Query(match kind {
            0 => Query::Range(RangeQuery::new(id, window, datasets)),
            1 => Query::Point(PointQuery::new(id, at, datasets)),
            2 => Query::KNearestNeighbors(KnnQuery::new(id, at, 8, datasets)),
            _ => Query::Count(CountQuery::new(id, window, datasets)),
        }));
    }
    Inputs {
        bounds,
        objects: model.generate_all(),
        steps,
    }
}

/// The objects each dataset has received by the end of the first `upto`
/// steps.
fn ingested(inputs: &Inputs, upto: usize) -> Vec<Vec<SpatialObject>> {
    let mut out = vec![Vec::new(); DATASETS];
    for step in &inputs.steps[..upto] {
        if let TraceStep::Ingest { dataset, objects } = step {
            out[usize::from(dataset.0)].extend_from_slice(objects);
        }
    }
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    variant: u64,
    traced: bool,
    setup_s: f64,
    total_s: f64,
    first_ms: f64,
    queries_per_s: f64,
    query_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    recover_s: f64,
    storage_open_ms: f64,
    engine_open_ms: f64,
    sim_s: f64,
    space_amp: f64,
    counters: Counters,
    tally: Tally,
    end_pages: (u64, u64),
    user_pages: f64,
}

/// Builds a fresh durable store, replays the trace, crashes, reopens and
/// checks every answer against the oracle.
fn pass(ctx: &Ctx, index: usize, report: &mut Report) -> StorageResult<Pass> {
    let mut out = Pass {
        variant: ctx.variant(index),
        traced: ctx.traced_pass(index),
        ..Pass::default()
    };
    let dir = ctx.dir.join(format!("churn-seed{}-pass{index}", ctx.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let t = Instant::now();
    let inputs = inputs(ctx, out.variant);
    let storage = StorageManager::create(StorageOptions::durable(&dir, BUFFER_PAGES))?;
    let raws = common::write_raws(&storage, &inputs.objects)?;
    // One maintenance job at a time, on the client's thread: helper threads
    // would interleave job I/O and make the cost model's seconds vary.
    let config = OdysseyConfig::paper(inputs.bounds)
        .with_background_maintenance()
        .with_maintenance_max_jobs(1);
    let engine = SpaceOdyssey::create(config, raws, &storage)?;
    out.setup_s = t.elapsed().as_secs_f64();

    let mut answers = Vec::new();
    let before = Counters::read(&storage, &engine);
    let io_before = storage.stats();
    tracer::set_enabled(out.traced);
    let t0 = Instant::now();
    for (i, step) in inputs.steps.iter().enumerate() {
        report.attempted += 1;
        match step {
            TraceStep::Query(q) => {
                let (fp, ms) =
                    common::timed_cursor_query(&engine, &storage, q, i as u64, &mut out.tally)?;
                if out.query_ms.is_empty() {
                    out.first_ms = common::ms_since(t0);
                }
                out.query_ms.push(ms);
                answers.push((i, fp));
            }
            TraceStep::Ingest { dataset, objects } => {
                let open = tracer::enter(i as u64);
                let t = Instant::now();
                let done = engine.ingest(&storage, *dataset, objects);
                let ms = common::ms_since(t);
                tracer::exit(open, "ingest.apply", "");
                let done = done?;
                if done.objects_ingested != objects.len() {
                    report.mismatch(format!(
                        "churn step {i}: ingest of {} objects acknowledged {}",
                        objects.len(),
                        done.objects_ingested
                    ));
                }
                out.tally.ingest(&done);
                out.ingest_ms.push(ms);
            }
        }
        if (i + 1) % MAINTENANCE_EVERY == 0 {
            maintain(&engine, &storage, i as u64, &mut out.tally)?;
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            out.tally.wal_pages += storage.wal_pages();
            let open = tracer::enter(i as u64);
            let t = Instant::now();
            let done = engine.checkpoint(&storage);
            out.tally.checkpoint_ms.push(common::ms_since(t));
            tracer::exit(open, "durability.checkpoint", "");
            done?;
        }
    }
    // Let maintenance drain before measuring space.
    let steps = inputs.steps.len() as u64;
    while engine.maintenance_queue_depth() > 0 {
        maintain(&engine, &storage, steps, &mut out.tally)?;
    }
    out.total_s = t0.elapsed().as_secs_f64();
    out.queries_per_s = answers.len() as f64 / out.total_s;
    out.sim_s = storage.seconds_since(&io_before);
    out.tally.wal_pages += storage.wal_pages();
    out.counters = Counters::read(&storage, &engine).since(&before);
    out.end_pages = (storage.total_file_pages(), storage.total_dead_pages());
    out.user_pages = common::user_pages(inputs.live_objects());
    out.space_amp = dir_bytes(&dir) as f64 / (out.user_pages * PAGE_SIZE as f64);

    // The crash: no close, no final checkpoint.
    drop(engine);
    drop(storage);
    let t = Instant::now();
    let open = tracer::enter(steps);
    let opened = StorageManager::open(StorageOptions::durable(&dir, BUFFER_PAGES));
    out.storage_open_ms = common::ms_since(t);
    tracer::exit(open, "storage.open", "");
    let (storage, recovered) = opened?;
    let t1 = Instant::now();
    let open = tracer::enter(steps);
    let reopened = SpaceOdyssey::open(&storage, recovered);
    out.engine_open_ms = common::ms_since(t1);
    tracer::exit(open, "durability.engine_open", "");
    let engine = reopened?;
    out.recover_s = t.elapsed().as_secs_f64();
    tracer::set_enabled(false);

    // Each trace answer must equal the oracle's over the base data plus
    // every ingest before it.
    let snapshot = Snapshot::new(inputs.bounds, &inputs.objects);
    for &(i, fp) in &answers {
        let q = inputs.steps[i].as_query().expect("a query step");
        let before = ingested(&inputs, i);
        let added: Vec<&[SpatialObject]> = before.iter().map(Vec::as_slice).collect();
        if fp != snapshot.expected(q, &added).fingerprint() {
            report.mismatch(format!("churn pass {index} step {i}: {q:?}"));
        }
    }
    // After the crash every acknowledged ingest must be there — all were
    // acknowledged, so the committed prefix is the whole trace — and
    // answers must match the oracle over everything.
    let all = ingested(&inputs, inputs.steps.len());
    let added: Vec<&[SpatialObject]> = all.iter().map(Vec::as_slice).collect();
    let whole = inputs
        .bounds
        .expanded_uniform(inputs.bounds.extent().max_component());
    let mut probes: Vec<Query> = (0..DATASETS as u16)
        .map(|d| {
            Query::Count(CountQuery::new(
                QueryId(0),
                whole,
                DatasetSet::single(DatasetId(d)),
            ))
        })
        .collect();
    probes.extend(
        inputs
            .steps
            .iter()
            .filter_map(TraceStep::as_query)
            .rev()
            .take(VERIFY_QUERIES)
            .copied(),
    );
    let mut tally = Tally::default();
    for (k, q) in probes.iter().enumerate() {
        let req = steps + 1 + k as u64;
        let (fp, _) = common::timed_cursor_query(&engine, &storage, q, req, &mut tally)?;
        if fp != snapshot.expected(q, &added).fingerprint() {
            report.mismatch(format!("churn pass {index}: recovered answer to {q:?}"));
        }
    }
    drop(engine);
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

fn maintain(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    req: u64,
    tally: &mut Tally,
) -> StorageResult<()> {
    let open = tracer::enter(req);
    let t = Instant::now();
    let done = engine.run_maintenance(storage);
    let ms = common::ms_since(t);
    tracer::exit(open, "scheduler.run_maintenance", "");
    tally.maintenance(&done?, ms);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut passes: Vec<Pass> = Vec::new();
    while ctx.more(passes.len(), ctx.passes(PASS_SECONDS)) {
        let done = pass(ctx, passes.len(), &mut report);
        tracer::set_enabled(false);
        match done {
            Ok(p) => passes.push(p),
            Err(e) => {
                report.failed += 1;
                report.problem(format!("churn pass failed: {e}"));
                return report;
            }
        }
    }
    let sims: Vec<(u64, f64)> = passes.iter().map(|p| (p.variant, p.sim_s)).collect();
    metrics::check_repeats(&mut report, &sims);

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let pick = |f: fn(&Pass) -> f64| untraced.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let query_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.query_ms.iter().copied())
        .collect();
    let ingest_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.ingest_ms.iter().copied())
        .collect();
    report.info("passes", passes.len(), "");
    report.info("ingest_p99_ms", metrics::percentile(&ingest_ms, 99.0), "ms");
    report.info("recover_s", metrics::median(&pick(|p| p.recover_s)), "s");
    report.info(
        "failed_frac",
        metrics::ratio(report.failed as f64, report.attempted as f64),
        "",
    );
    report.info("query_samples", query_ms.len(), "");
    report.e2e("setup_s", metrics::median(&pick(|p| p.setup_s)));
    report.e2e("total_s", metrics::median(&pick(|p| p.total_s)));
    report.e2e("first_query_ms", metrics::median(&pick(|p| p.first_ms)));
    report.e2e("query_p50_ms", metrics::median(&query_ms));
    report.e2e("query_p99_ms", metrics::percentile(&query_ms, 99.0));
    report.e2e("queries_per_s", metrics::median(&pick(|p| p.queries_per_s)));
    report.e2e("space_amp", metrics::median(&pick(|p| p.space_amp)));
    report.e2e("peak_rss_mb", metrics::peak_rss_mb());

    if ctx.traced {
        let spans = tracer::take();
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let mut counters = Counters::default();
        let mut tally = Tally::default();
        for p in &traced {
            counters.add(&p.counters);
            tally.add(&p.tally);
        }
        let last = traced.last().copied();
        metrics::fill_layers(
            &mut report,
            &counters,
            &tally,
            &spans,
            traced.len(),
            last.map_or(0.0, |p| p.user_pages),
            last.map_or((0, 0), |p| p.end_pages),
        );
        let of =
            |f: fn(&Pass) -> f64| metrics::median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
        report.layer("storage.sim_s", of(|p| p.sim_s));
        report.layer("recovery.storage_open_ms", of(|p| p.storage_open_ms));
        report.layer("recovery.engine_open_ms", of(|p| p.engine_open_ms));
        // Traced pass over the untraced pass of the same inputs.
        let ratios: Vec<f64> = traced
            .iter()
            .filter_map(|t| {
                untraced
                    .iter()
                    .find(|u| u.variant == t.variant)
                    .map(|u| t.total_s / u.total_s)
            })
            .collect();
        report.layer("loadgen.trace_overhead", metrics::median(&ratios));
        report.info(
            "check wal.pages_appended>0",
            format!(
                "{} ({})",
                metrics::verdict(tally.wal_pages > 0),
                tally.wal_pages
            ),
            "",
        );
        ctx.write_trace("churn", &spans);
    }
    report
}
