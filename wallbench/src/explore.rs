//! `explore`: the paper's exploration session, starting from raw files.
//!
//! Ten brain-model datasets, clustered range queries over Zipf-distributed
//! combinations of five datasets, one closed-loop client, the store in
//! memory with a buffer pool at the paper's small memory fraction, cleared
//! before every query, and no result cache. No repeats, no ingest: the work
//! is first-touch partitioning, refinement, merge-file creation and device
//! reads (CRC check and decode included).

use crate::common::{self, Clustered, Ctx};
use crate::metrics::{self, Counters, Report, Tally};
use crate::oracle::{self, Snapshot};
use crate::tracer;
use odyssey_core::{OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{BrainModel, CombinationDistribution, CombinationPicker, DatasetSpec};
use odyssey_geom::{Aabb, Query, QueryId, RangeQuery, SpatialObject};
use odyssey_storage::{StorageManager, StorageOptions};
use std::time::Instant;

const DATASETS: usize = 10;
const OBJECTS: usize = 50_000;
const QUERIES: usize = 1_000;
const PER_QUERY: usize = 5;
const CLUSTERS: usize = 10;
/// The paper's 1 GB of memory against 50 GB of data.
const MEMORY_FRACTION: f64 = 0.02;
/// About how long one pass (set-up and session) takes on the host the
/// benchmark was sized on.
const PASS_SECONDS: f64 = 2.5;

struct Inputs {
    bounds: Aabb,
    objects: Vec<Vec<SpatialObject>>,
    queries: Vec<Query>,
}

fn inputs(ctx: &Ctx, variant: u64) -> Inputs {
    let stream = 10 * variant;
    let model = BrainModel::new(DatasetSpec {
        num_datasets: DATASETS,
        objects_per_dataset: OBJECTS,
        seed: ctx.sub_seed(stream + 1),
        ..DatasetSpec::default()
    });
    let mut windows = Clustered::new(&model, CLUSTERS, 1e-6, ctx.sub_seed(stream + 2));
    let mut combos = CombinationPicker::new(
        DATASETS,
        PER_QUERY,
        CombinationDistribution::Zipf,
        ctx.sub_seed(stream + 3),
    );
    let queries = (0..QUERIES)
        .map(|i| {
            let at = windows.center();
            Query::Range(RangeQuery::new(
                QueryId(i as u32),
                windows.window(at),
                combos.next_combination(),
            ))
        })
        .collect();
    Inputs {
        bounds: model.bounds(),
        objects: model.generate_all(),
        queries,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut first_ms = Vec::new();
    let mut untraced_total = Vec::new();
    let mut lat_ms = Vec::new();
    let mut amp = Vec::new();
    let mut sim_s: Vec<(u64, f64)> = Vec::new();
    let mut expected: Option<(u64, Vec<u64>)> = None;
    let mut overhead = Vec::new();
    let mut traced_sim = Vec::new();
    let mut counters = Counters::default();
    let mut tally = Tally::default();
    let mut traced_passes = 0;
    let mut end_pages = (0, 0);
    let mut user_pages = 0.0;

    let mut pass = 0;
    while ctx.more(pass, ctx.passes(PASS_SECONDS)) {
        let traced = ctx.traced_pass(pass);
        let variant = ctx.variant(pass);
        let t = Instant::now();
        let inputs = inputs(ctx, variant);
        let raw_pages: f64 = inputs
            .objects
            .iter()
            .map(|d| common::user_pages(d.len()))
            .sum();
        let buffer_pages = ((raw_pages * MEMORY_FRACTION) as usize).max(64);
        let storage = StorageManager::new(StorageOptions::in_memory(buffer_pages));
        let raws = match common::write_raws(&storage, &inputs.objects) {
            Ok(r) => r,
            Err(e) => {
                report.problem(format!("raw write failed: {e}"));
                return report;
            }
        };
        storage.clear_cache();
        setup_s.push(t.elapsed().as_secs_f64());
        let engine = SpaceOdyssey::new(OdysseyConfig::paper(inputs.bounds), raws)
            .expect("the paper configuration is valid");

        if expected.as_ref().is_none_or(|(v, _)| *v != variant) {
            let refs: Vec<&Query> = inputs.queries.iter().collect();
            let snapshot = Snapshot::new(inputs.bounds, &inputs.objects);
            expected = Some((variant, oracle::expected_all(&snapshot, &refs)));
        }
        let expected = &expected.as_ref().expect("computed above").1;

        let before = Counters::read(&storage, &engine);
        let io_before = storage.stats();
        let mut pass_tally = Tally::default();
        tracer::set_enabled(traced);
        let t0 = Instant::now();
        for (i, q) in inputs.queries.iter().enumerate() {
            storage.clear_cache();
            report.attempted += 1;
            match common::timed_cursor_query(&engine, &storage, q, i as u64, &mut pass_tally) {
                Ok((fp, ms)) => {
                    if i == 0 {
                        first_ms.push(common::ms_since(t0));
                    }
                    if !traced {
                        lat_ms.push(ms);
                    }
                    if fp != expected[i] {
                        report.mismatch(format!("explore pass {pass} query {i}"));
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("explore query {i} failed: {e}"));
                }
            }
        }
        let total = t0.elapsed().as_secs_f64();
        tracer::set_enabled(false);
        sim_s.push((variant, storage.seconds_since(&io_before)));
        let live: usize = inputs.objects.iter().map(Vec::len).sum();
        amp.push(common::space_amp(storage.total_file_pages() as f64, live));
        if traced {
            if let Some(untraced) = untraced_total.last() {
                overhead.push(total / untraced);
            }
            traced_sim.push(sim_s[sim_s.len() - 1].1);
            pass_tally.wal_pages = storage.wal_pages();
            counters.add(&Counters::read(&storage, &engine).since(&before));
            tally.add(&pass_tally);
            traced_passes += 1;
            end_pages = (storage.total_file_pages(), storage.total_dead_pages());
            user_pages = raw_pages;
        } else {
            untraced_total.push(total);
        }
        pass += 1;
    }

    metrics::check_repeats(&mut report, &sim_s);
    report.info("passes", pass, "");

    let total = metrics::median(&untraced_total);
    report.e2e("setup_s", metrics::median(&setup_s));
    report.e2e("total_s", total);
    report.e2e("first_query_ms", metrics::median(&first_ms));
    report.e2e("query_p50_ms", metrics::median(&lat_ms));
    report.e2e("query_p99_ms", metrics::percentile(&lat_ms, 99.0));
    report.e2e("queries_per_s", QUERIES as f64 / total);
    report.e2e("space_amp", metrics::median(&amp));
    report.e2e("peak_rss_mb", metrics::peak_rss_mb());
    report.info("query_samples", lat_ms.len(), "");

    if ctx.traced {
        let spans = tracer::take();
        metrics::fill_layers(
            &mut report,
            &counters,
            &tally,
            &spans,
            traced_passes,
            user_pages,
            end_pages,
        );
        report.layer("storage.sim_s", metrics::mean(&traced_sim));
        report.layer("loadgen.trace_overhead", metrics::median(&overhead));
        report.info(
            "check result_cache.hits=0",
            format!(
                "{} ({})",
                metrics::verdict(counters.cache_hits == 0),
                counters.cache_hits
            ),
            "",
        );
        ctx.write_trace("explore", &spans);
    }
    report
}
