//! `lookup`: the read path once nothing adapts any more.
//!
//! A converged in-memory engine whose buffer pool holds the whole working
//! set, with the result cache on. Two closed-loop clients send a mixed
//! range/point/kNN/count stream in which a fixed share of the requests
//! repeats an earlier one exactly. Time goes to buffer-pool hits, decoding,
//! planning and cache lookups, plus contention between the two threads;
//! refinement, merging and device reads should be almost absent.

use crate::common::{self, Ctx};
use crate::converged::{self, QueryGen};
use crate::metrics::{self, Counters, Report, Tally};
use crate::oracle::{self, Snapshot};
use crate::tracer;
use odyssey_core::SpaceOdyssey;
use odyssey_geom::Query;
use odyssey_storage::StorageManager;
use std::collections::VecDeque;
use std::time::Instant;

/// Engines built per run, each over its own inputs; the timed passes are
/// split evenly between them. An engine's throughput follows its inputs by
/// about 10%, so a run averages over six.
const SETUPS: usize = 6;
/// About how long one pass (requests and their oracle check) takes on the
/// host the benchmark was sized on.
const PASS_SECONDS: f64 = 1.0;
const CLIENTS: usize = 2;
/// Requests per timed pass, shared round-robin by the clients.
const PASS_REQUESTS: usize = 6_000;
/// Share of requests that repeat one of the last `REPEAT_WINDOW` requests.
const REPEAT_SHARE: f64 = 0.25;
const REPEAT_WINDOW: usize = 512;

#[derive(Default)]
struct ClientOut {
    /// (request index, answer fingerprint, latency ms)
    answers: Vec<(usize, u64, f64)>,
    tally: Tally,
    errors: Vec<String>,
}

fn client(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    requests: &[Query],
    c: usize,
) -> ClientOut {
    let mut out = ClientOut::default();
    for i in (c..requests.len()).step_by(CLIENTS) {
        let q = &requests[i];
        let root = tracer::enter(i as u64);
        let t = Instant::now();
        let call = tracer::enter(i as u64);
        let result = engine.execute_query(storage, q);
        let label = match &result {
            Ok(o) if o.cache_hits > 0 => "hit",
            Ok(o) if o.cache_partial_reuses > 0 => "partial",
            Ok(_) => "miss",
            Err(_) => "error",
        };
        tracer::exit(call, "engine.execute_query", label);
        let wall_s = t.elapsed().as_secs_f64();
        tracer::exit(root, "loadgen.query", "");
        match result {
            Ok(o) => {
                out.tally.query(&o, o.objects.len(), wall_s);
                out.answers
                    .push((i, oracle::answer_fp(q, &o.objects, o.count), wall_s * 1e3));
            }
            Err(e) => out.errors.push(format!("lookup request {i} failed: {e}")),
        }
    }
    out
}

/// A pass's requests: fresh queries, and with probability `REPEAT_SHARE`
/// an exact repeat of a recent one.
fn requests(
    gen: &mut QueryGen,
    inputs: &converged::Inputs,
    history: &mut VecDeque<Query>,
    repeats: &mut usize,
) -> Vec<Query> {
    (0..PASS_REQUESTS)
        .map(|_| {
            if !history.is_empty() && gen.gen_range(0.0, 1.0) < REPEAT_SHARE {
                *repeats += 1;
                history[gen.gen_index(history.len())]
            } else {
                let q = gen.query(inputs);
                if history.len() == REPEAT_WINDOW {
                    history.pop_front();
                }
                history.push_back(q);
                q
            }
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut first_ms = Vec::new();
    let mut amp = Vec::new();
    let mut untraced_total = Vec::new();
    let mut traced_total = Vec::new();
    let mut lat_ms = Vec::new();
    let mut counters = Counters::default();
    let mut tally = Tally::default();
    let mut traced_passes = 0;
    let mut repeats = 0usize;
    let mut end_pages = (0, 0);
    let mut user_pages = 0.0;
    let passes = ctx.passes(PASS_SECONDS).max(SETUPS);
    let mut pass = 0;
    for k in 0..SETUPS {
        let built = match converged::build(ctx, k as u64, true) {
            Ok(b) => b,
            Err(e) => {
                report.problem(format!("lookup set-up failed: {e}"));
                return report;
            }
        };
        setup_s.push(built.setup_s);
        first_ms.push(built.first_query_ms);
        let (engine, storage) = (&*built.engine, &*built.storage);
        let snapshot = Snapshot::new(built.inputs.bounds, &built.inputs.objects);
        let mut gen = QueryGen::new(ctx.sub_seed(10 * k as u64 + 14));
        let mut history = VecDeque::with_capacity(REPEAT_WINDOW);
        while ctx.more(pass, passes * (k + 1) / SETUPS) {
            let traced = ctx.traced_pass(pass);
            let requests = requests(&mut gen, &built.inputs, &mut history, &mut repeats);
            let before = Counters::read(storage, engine);
            tracer::set_enabled(traced);
            let t0 = Instant::now();
            let outs: Vec<ClientOut> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let requests = &requests;
                        s.spawn(move || client(engine, storage, requests, c))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lookup client panicked"))
                    .collect()
            });
            let total = t0.elapsed().as_secs_f64();
            tracer::set_enabled(false);

            let refs: Vec<&Query> = requests.iter().collect();
            let expected = oracle::expected_all(&snapshot, &refs);
            for out in &outs {
                report.attempted += (out.answers.len() + out.errors.len()) as u64;
                report.failed += out.errors.len() as u64;
                for e in out.errors.iter().take(3) {
                    report.problem(e.clone());
                }
                for &(i, fp, ms) in &out.answers {
                    if fp != expected[i] {
                        report
                            .mismatch(format!("lookup pass {pass} request {i}: {:?}", requests[i]));
                    }
                    if !traced {
                        lat_ms.push(ms);
                    }
                }
            }
            if traced {
                traced_total.push(total);
                counters.add(&Counters::read(storage, engine).since(&before));
                for out in &outs {
                    tally.add(&out.tally);
                }
                tally.wal_pages += storage.wal_pages();
                traced_passes += 1;
                end_pages = (storage.total_file_pages(), storage.total_dead_pages());
                user_pages = common::user_pages(built.inputs.live_objects());
            } else {
                untraced_total.push(total);
            }
            pass += 1;
        }
        amp.push(common::space_amp(
            storage.total_file_pages() as f64,
            built.inputs.live_objects(),
        ));
    }

    let total = metrics::median(&untraced_total);
    report.info("passes", pass, "");
    report.info(
        "repeat_share",
        repeats as f64 / (pass * PASS_REQUESTS) as f64,
        "",
    );
    report.info("query_samples", lat_ms.len(), "");
    report.e2e("setup_s", metrics::median(&setup_s));
    report.e2e("total_s", total);
    report.e2e("first_query_ms", metrics::median(&first_ms));
    report.e2e("query_p50_ms", metrics::median(&lat_ms));
    report.e2e("query_p99_ms", metrics::percentile(&lat_ms, 99.0));
    report.e2e("queries_per_s", PASS_REQUESTS as f64 / total);
    report.e2e("space_amp", metrics::median(&amp));
    report.e2e("peak_rss_mb", metrics::peak_rss_mb());

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
        report.layer(
            "loadgen.trace_overhead",
            metrics::median(&traced_total) / total,
        );
        let queries = (traced_passes * PASS_REQUESTS) as f64;
        let adapted = (tally.refined + tally.merges) as f64;
        let hit_ratio = metrics::ratio(
            counters.buffer_hits as f64,
            (counters.buffer_hits + counters.buffer_misses) as f64,
        );
        report.info(
            "check buffer.hit_ratio>=0.99",
            format!("{} ({hit_ratio:.4})", metrics::verdict(hit_ratio >= 0.99)),
            "",
        );
        report.info(
            "check refined+merges<1%",
            format!(
                "{} ({adapted} in {queries} queries)",
                metrics::verdict(adapted < 0.01 * queries)
            ),
            "",
        );
        ctx.write_trace("lookup", &spans);
    }
    report
}
