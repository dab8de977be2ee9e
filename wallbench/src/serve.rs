//! `serve`: an open loop over TCP loopback into `TcpServer` and `Server`.
//!
//! A converged in-memory engine (no result cache) behind the serving tier
//! with micro-batching on and admission budgets well above the offered
//! load, so any shed is a failure. One pipelined connection carries mostly
//! small queries plus a small share of ingest batches; the server echoes
//! request ids, so replies may return out of order. Latency is timed from
//! each request's due time. This is the workload where the wire codec,
//! dispatcher queue, batcher and admission control carry a visible share of
//! every request.

use crate::common::Ctx;
use crate::converged::{self, Inputs, QueryGen};
use crate::metrics::{self, Counters, Report, Tally};
use crate::oracle::{Answer, Snapshot};
use crate::tracer;
use odyssey_core::{EngineOp, OpOutcome};
use odyssey_geom::{Aabb, DatasetId, ObjectId, Query, SpatialObject, Vec3};
use odyssey_serve::{
    decode_response, encode_request, AdmissionConfig, BatchPolicy, Request, ServeConfig,
    ServeError, ServeResult, Server, TcpServer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Engines (and servers) built per run, each over its own inputs; the
/// nominal passes are split evenly between them.
const SETUPS: usize = 3;
/// Offered load of the nominal phase, requests per second: about a quarter
/// of what the tier sustains on the two-core host the benchmark was sized
/// on, so queueing stays light and latency does not swing with small
/// changes in host speed.
const NOMINAL_RATE: f64 = 250.0;
/// Length of one nominal pass: about a thousand queries, so a pass's p99
/// has ten samples beyond it.
const PASS_SECONDS: f64 = 4.0;
/// Every `INGEST_EVERY`-th request is an ingest batch (2%): a fixed count,
/// so each pass invalidates merge files equally often.
const INGEST_EVERY: usize = 50;
const INGEST_BATCH: usize = 16;
const TENANTS: u16 = 2;
/// Deadline of each nominal request, measured from its send.
const DEADLINE_MICROS: u64 = 2_000_000;
/// Server engine threads and TCP workers: one per core of the host the
/// benchmark was sized on.
const SERVER_THREADS: usize = 2;
/// The rate ladder, as multiples of the nominal rate, each rung offered for
/// `RUNG_SECONDS`; a rung is met when its p99 stays under `P99_LIMIT_MS`
/// and the last reply lands within that limit of the last due time.
const LADDER: [f64; 4] = [2.0, 4.0, 8.0, 16.0];
const RUNG_SECONDS: f64 = 0.5;
const P99_LIMIT_MS: f64 = 20.0;

/// One request of the open loop.
struct Planned {
    /// Due time, ns after the phase starts.
    due_ns: u64,
    request: Request,
}

/// What the client saw of one request.
#[derive(Default, Clone)]
struct Seen {
    send_ns: u64,
    recv_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    req_bytes: usize,
    resp_bytes: usize,
    result: Option<Result<OpOutcome, ServeError>>,
    queue_wait_us: u64,
    batch_size: usize,
}

/// Ingested objects with the times they were sent and acknowledged.
struct Ingested {
    send_ns: u64,
    ack_ns: u64,
    objects: Vec<SpatialObject>,
}

fn frame(id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&((8 + body.len()) as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Plans `seconds` of Poisson arrivals at `rate`, every `INGEST_EVERY`-th
/// an ingest batch.
fn plan(
    inputs: &Inputs,
    gen: &mut QueryGen,
    next_object: &mut u64,
    rate: f64,
    seconds: f64,
    deadline: bool,
) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -gen.gen_range(f64::EPSILON, 1.0).ln() / rate;
        if t >= seconds {
            return out;
        }
        let tenant = (out.len() % TENANTS as usize) as u16;
        let op = if (out.len() + 1) % INGEST_EVERY == 0 {
            let combo = inputs.combos[gen.gen_index(2)];
            let ids: Vec<DatasetId> = combo.iter().collect();
            let dataset = ids[gen.gen_index(ids.len())];
            let objects = (0..INGEST_BATCH)
                .map(|_| {
                    let at = gen.point(inputs);
                    let size = Vec3::splat(gen.gen_range(0.5, 2.0));
                    *next_object += 1;
                    SpatialObject::new(
                        ObjectId(*next_object),
                        dataset,
                        Aabb::from_center_extent(at, size),
                    )
                })
                .collect();
            EngineOp::Ingest { dataset, objects }
        } else {
            EngineOp::Query(gen.query(inputs))
        };
        out.push(Planned {
            due_ns: (t * 1e9) as u64,
            request: Request {
                tenant,
                deadline_micros: deadline.then_some(DEADLINE_MICROS),
                op,
            },
        });
    }
}

/// A reply as read off the wire: request id, arrival on the span clock,
/// decode time (ns), frame bytes, and the decoded result.
type Reply = (u64, u64, u64, usize, Result<ServeResult, String>);

/// Sends `planned` down one pipelined connection on schedule while a
/// reader thread collects the replies. Returns what was seen per request
/// and the phase start on the span clock.
fn drive(
    server: &Server,
    addr: std::net::SocketAddr,
    planned: &mut [Planned],
) -> std::io::Result<(Vec<Seen>, u64)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_secs(30)))?;
    let n = planned.len();
    let t0 = Instant::now();
    let base_ns = tracer::now_ns();
    let at = |t: Instant| base_ns + t.duration_since(t0).as_nanos() as u64;
    std::thread::scope(|s| {
        let replies = s.spawn(move || {
            let mut got: Vec<Reply> = Vec::with_capacity(n);
            let mut header = [0u8; 4];
            while got.len() < n {
                if reader.read_exact(&mut header).is_err() {
                    break;
                }
                let len = u32::from_le_bytes(header) as usize;
                if !(8..=64 << 20).contains(&len) {
                    break;
                }
                let mut body = vec![0u8; len];
                if reader.read_exact(&mut body).is_err() {
                    break;
                }
                let recv = at(Instant::now());
                let id = u64::from_le_bytes(body[..8].try_into().expect("8-byte id"));
                let recv_span = tracer::enter(id);
                let decode = tracer::enter(id);
                let d0 = Instant::now();
                let decoded = decode_response(&body[8..]).map_err(|e| e.to_string());
                let decode_ns = d0.elapsed().as_nanos() as u64;
                tracer::exit(decode, "codec.decode", "");
                tracer::exit(recv_span, "loadgen.recv", "");
                got.push((id, recv, decode_ns, 4 + len, decoded));
            }
            got
        });
        let mut seen = vec![Seen::default(); n];
        for (i, p) in planned.iter_mut().enumerate() {
            let due = t0 + Duration::from_nanos(p.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let send_span = tracer::enter(i as u64);
            if let Some(d) = p.request.deadline_micros.as_mut() {
                *d += server.now_micros();
            }
            let encode = tracer::enter(i as u64);
            let e0 = Instant::now();
            let body = encode_request(&p.request);
            seen[i].encode_ns = e0.elapsed().as_nanos() as u64;
            tracer::exit(encode, "codec.encode", "");
            let bytes = frame(i as u64, &body);
            seen[i].req_bytes = bytes.len();
            seen[i].send_ns = at(Instant::now());
            let sent = stream.write_all(&bytes);
            tracer::exit(send_span, "loadgen.send", "");
            if sent.is_err() {
                break;
            }
        }
        let got = replies.join().expect("reply reader panicked");
        for (id, recv, decode_ns, bytes, decoded) in got {
            let Some(s) = seen.get_mut(id as usize) else {
                continue;
            };
            s.recv_ns = recv;
            s.decode_ns = decode_ns;
            s.resp_bytes = bytes;
            tracer::record("serve.submit", id, s.send_ns, recv);
            s.result = Some(match decoded {
                Ok(Ok(served)) => {
                    s.queue_wait_us = served.queue_wait_micros;
                    s.batch_size = served.batch_size;
                    Ok(served.outcome)
                }
                Ok(Err(e)) => Err(e),
                Err(e) => Err(ServeError::Protocol(e)),
            });
        }
        Ok((seen, base_ns))
    })
}

/// Collected results of the phases of one run.
#[derive(Default)]
struct Phases {
    lat_ms: Vec<f64>,
    query_lat_ms: Vec<f64>,
    ingest_lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
    shed: u64,
    expired: u64,
    queries: u64,
    tally: Tally,
}

/// Checks and books one phase: failures, latencies from due time, and the
/// answers (kept with their send/reply times for the oracle).
fn book(
    report: &mut Report,
    phases: &mut Phases,
    planned: &[Planned],
    seen: &[Seen],
    base_ns: u64,
    answers: &mut Answers,
) -> (f64, f64) {
    let mut last_recv = 0;
    let mut lat = Vec::with_capacity(seen.len());
    for (p, s) in planned.iter().zip(seen) {
        report.attempted += 1;
        let due = base_ns + p.due_ns;
        let ms = s.recv_ns.saturating_sub(due) as f64 / 1e6;
        match &s.result {
            None => {
                report.failed += 1;
                report.problem("a request got no reply".into());
            }
            Some(Err(e)) => {
                report.failed += 1;
                match e {
                    ServeError::Overloaded { .. } => phases.shed += 1,
                    ServeError::DeadlineExceeded { .. } => phases.expired += 1,
                    _ => report.problem(format!("request failed: {e}")),
                }
            }
            Some(Ok(outcome)) => {
                last_recv = last_recv.max(s.recv_ns);
                lat.push(ms);
                phases.lat_ms.push(ms);
                phases
                    .late_ms
                    .push(s.send_ns.saturating_sub(due) as f64 / 1e6);
                phases.queue_wait_ms.push(s.queue_wait_us as f64 / 1e3);
                phases.batch_sizes.push(s.batch_size as f64);
                phases.encode_us.push(s.encode_ns as f64 / 1e3);
                phases.decode_us.push(s.decode_ns as f64 / 1e3);
                phases.req_bytes.push(s.req_bytes as f64);
                phases.resp_bytes.push(s.resp_bytes as f64);
                match (outcome, &p.request.op) {
                    (OpOutcome::Query(o), EngineOp::Query(q)) => {
                        phases.query_lat_ms.push(ms);
                        phases.queries += 1;
                        phases.tally.query(o, o.objects.len(), 0.0);
                        let got = Answer::of(q, &o.objects, o.count);
                        answers.queries.push((*q, s.send_ns, s.recv_ns, got));
                    }
                    (OpOutcome::Ingest(o), EngineOp::Ingest { objects, .. }) => {
                        phases.ingest_lat_ms.push(ms);
                        phases.tally.ingest(o);
                        if o.objects_ingested != objects.len() {
                            report.mismatch(format!(
                                "ingest of {} objects acknowledged {}",
                                objects.len(),
                                o.objects_ingested
                            ));
                        }
                        answers.ingested.push(Ingested {
                            send_ns: s.send_ns,
                            ack_ns: s.recv_ns,
                            objects: objects.clone(),
                        });
                    }
                    _ => report.mismatch("reply kind does not match the request".into()),
                }
            }
        }
    }
    let last_due = base_ns + planned.last().map_or(0, |p| p.due_ns);
    let drain_ms = last_recv.saturating_sub(last_due) as f64 / 1e6;
    (metrics::percentile(&lat, 99.0), drain_ms)
}

/// What the oracle needs after a server's passes: every acknowledged
/// ingest, and every query answer with its send and reply times.
#[derive(Default)]
struct Answers {
    ingested: Vec<Ingested>,
    queries: Vec<(Query, u64, u64, Answer)>,
}

/// Checks every query answer against the oracle between two bounds: the
/// ingests acknowledged before the query was sent must be visible, and
/// nothing sent after its reply arrived may be. kNN answers are checked
/// only when no ingest into their datasets was in flight meanwhile.
fn verify(report: &mut Report, snapshot: &Snapshot<'_>, answers: &Answers) {
    let ingested = &answers.ingested;
    for (q, send, recv, got) in &answers.queries {
        let relevant = |i: &&Ingested| {
            i.objects
                .first()
                .is_some_and(|o| q.datasets().contains(o.dataset))
        };
        let lower: Vec<&[SpatialObject]> = ingested
            .iter()
            .filter(relevant)
            .filter(|i| i.ack_ns < *send)
            .map(|i| i.objects.as_slice())
            .collect();
        let upper: Vec<&[SpatialObject]> = ingested
            .iter()
            .filter(relevant)
            .filter(|i| i.send_ns < *recv)
            .map(|i| i.objects.as_slice())
            .collect();
        let exact = lower.len() == upper.len();
        let lo = snapshot.expected(q, &lower);
        let ok = if exact {
            *got == lo
        } else {
            let hi = snapshot.expected(q, &upper);
            match (q, &lo, got, &hi) {
                (Query::KNearestNeighbors(_), ..) => {
                    report.unchecked += 1;
                    true
                }
                (_, Answer::Count(l), Answer::Count(g), Answer::Count(h)) => l <= g && g <= h,
                (_, Answer::Objects(l), Answer::Objects(g), Answer::Objects(h)) => {
                    subset(l, g) && subset(g, h)
                }
                _ => false,
            }
        };
        if !ok {
            report.mismatch(format!("serve answer to {q:?} outside the oracle bounds"));
        }
    }
}

fn subset(a: &[(u16, u64)], b: &[(u16, u64)]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let admission = AdmissionConfig {
        tokens_per_sec: 4.0 * NOMINAL_RATE * LADDER[LADDER.len() - 1],
        burst_tokens: 4.0 * NOMINAL_RATE * LADDER[LADDER.len() - 1],
        max_queued_per_tenant: 1 << 16,
    };
    let mut setup_s = Vec::new();
    let mut first_ms = Vec::new();
    let mut amp = Vec::new();
    let mut phases = Phases::default();
    let mut traced_phases = Phases::default();
    let mut untraced_total = Vec::new();
    let mut untraced_p99 = Vec::new();
    let mut traced_total = Vec::new();
    let mut counters = Counters::default();
    let mut traced_passes = 0;
    let mut dropped = 0;
    let mut served = 0;
    let mut max_rate_ok = 0.0;
    let mut end_pages = (0, 0);
    let mut user_pages = 0.0;
    let passes = ctx.passes(PASS_SECONDS).max(SETUPS);
    let mut pass = 0;
    for k in 0..SETUPS {
        let built = match converged::build(ctx, k as u64, false) {
            Ok(b) => b,
            Err(e) => {
                report.problem(format!("serve set-up failed: {e}"));
                return report;
            }
        };
        let t = Instant::now();
        let server = Server::start(
            built.engine.clone(),
            built.storage.clone(),
            ServeConfig {
                batch: BatchPolicy::default(),
                admission: Some(admission),
                threads: SERVER_THREADS,
                maintenance_interval: None,
            },
        );
        let tcp = match TcpServer::start(server.handle(), "127.0.0.1:0", SERVER_THREADS) {
            Ok(tcp) => tcp,
            Err(e) => {
                report.problem(format!("cannot start the TCP server: {e}"));
                return report;
            }
        };
        setup_s.push(built.setup_s + t.elapsed().as_secs_f64());
        first_ms.push(built.first_query_ms);
        let addr = tcp.local_addr();
        let mut gen = QueryGen::new(ctx.sub_seed(10 * k as u64 + 21));
        let mut next_object = 1u64 << 40;
        let mut answers = Answers::default();

        while ctx.more(pass, passes * (k + 1) / SETUPS) {
            let traced = ctx.traced_pass(pass);
            let mut planned = plan(
                &built.inputs,
                &mut gen,
                &mut next_object,
                NOMINAL_RATE,
                PASS_SECONDS,
                true,
            );
            let before = Counters::read(&built.storage, &built.engine);
            tracer::set_enabled(traced);
            let t0 = Instant::now();
            let driven = drive(&server, addr, &mut planned);
            let total = t0.elapsed().as_secs_f64();
            tracer::set_enabled(false);
            let (seen, base) = match driven {
                Ok(d) => d,
                Err(e) => {
                    report.problem(format!("serve client failed: {e}"));
                    break;
                }
            };
            let target = if traced {
                &mut traced_phases
            } else {
                &mut phases
            };
            let first = target.query_lat_ms.len();
            book(&mut report, target, &planned, &seen, base, &mut answers);
            let p99 = metrics::percentile(&target.query_lat_ms[first..], 99.0);
            if traced {
                traced_total.push(total);
                traced_phases.tally.wal_pages += built.storage.wal_pages();
                counters.add(&Counters::read(&built.storage, &built.engine).since(&before));
                traced_passes += 1;
            } else {
                untraced_total.push(total);
                untraced_p99.push(p99);
            }
            pass += 1;
        }

        if k == SETUPS - 1 && !ctx.traced {
            max_rate_ok = NOMINAL_RATE;
            for mult in LADDER {
                let rate = NOMINAL_RATE * mult;
                let mut planned = plan(
                    &built.inputs,
                    &mut gen,
                    &mut next_object,
                    rate,
                    RUNG_SECONDS,
                    false,
                );
                let Ok((seen, base)) = drive(&server, addr, &mut planned) else {
                    break;
                };
                let failed_before = report.failed;
                let (p99, drain_ms) = book(
                    &mut report,
                    &mut Phases::default(),
                    &planned,
                    &seen,
                    base,
                    &mut answers,
                );
                report.info(
                    &format!("ladder {rate} req/s"),
                    format!("p99 {p99:.3} ms, drain {drain_ms:.3} ms"),
                    "",
                );
                if report.failed > failed_before || p99 > P99_LIMIT_MS || drain_ms > P99_LIMIT_MS {
                    break;
                }
                max_rate_ok = rate;
            }
        }
        dropped += tcp.dropped_replies();
        tcp.stop();
        served += server.stop().served;
        let snapshot = Snapshot::new(built.inputs.bounds, &built.inputs.objects);
        verify(&mut report, &snapshot, &answers);
        let live = built.inputs.live_objects()
            + answers
                .ingested
                .iter()
                .map(|i| i.objects.len())
                .sum::<usize>();
        amp.push(crate::common::space_amp(
            built.storage.total_file_pages() as f64,
            live,
        ));
        end_pages = (
            built.storage.total_file_pages(),
            built.storage.total_dead_pages(),
        );
        user_pages = crate::common::user_pages(live);
    }

    let total = metrics::median(&untraced_total);
    report.info("passes", pass, "");
    report.info("nominal_rate", NOMINAL_RATE, "1/s");
    report.info("served_p50_ms", metrics::median(&phases.lat_ms), "ms");
    report.info(
        "served_p99_ms",
        metrics::percentile(&phases.lat_ms, 99.0),
        "ms",
    );
    report.info(
        "ingest_p99_ms",
        metrics::percentile(&phases.ingest_lat_ms, 99.0),
        "ms",
    );
    report.info("max_rate_ok", max_rate_ok, "1/s");
    report.info(
        "failed_frac",
        metrics::ratio(report.failed as f64, report.attempted as f64),
        "",
    );
    report.info("unchecked_answers", report.unchecked, "");
    report.info("server_served", served, "");
    report.info("query_samples", phases.query_lat_ms.len(), "");
    report.e2e("setup_s", metrics::median(&setup_s));
    report.e2e("total_s", total);
    report.e2e("first_query_ms", metrics::median(&first_ms));
    report.e2e("query_p50_ms", metrics::median(&phases.query_lat_ms));
    // A pass's p99, median over passes: an open loop on a shared host
    // meets scheduling stalls, and one stalled pass should not move the
    // run's tail figure.
    report.e2e("query_p99_ms", metrics::median(&untraced_p99));
    report.info(
        "query_p99_pooled_ms",
        metrics::percentile(&phases.query_lat_ms, 99.0),
        "ms",
    );
    report.e2e(
        "queries_per_s",
        phases.queries as f64 / untraced_total.iter().sum::<f64>(),
    );
    report.e2e("space_amp", metrics::median(&amp));
    report.e2e("peak_rss_mb", metrics::peak_rss_mb());

    if ctx.traced {
        let spans = tracer::take();
        let t = &traced_phases;
        metrics::fill_layers(
            &mut report,
            &counters,
            &t.tally,
            &spans,
            traced_passes,
            user_pages,
            end_pages,
        );
        report.layer("serve.queue_wait_p50_ms", metrics::median(&t.queue_wait_ms));
        report.layer(
            "serve.queue_wait_p99_ms",
            metrics::percentile(&t.queue_wait_ms, 99.0),
        );
        report.layer("serve.batch_size_mean", metrics::mean(&t.batch_sizes));
        report.layer("serve.encode_us", metrics::mean(&t.encode_us));
        report.layer("serve.decode_us", metrics::mean(&t.decode_us));
        report.layer("serve.req_bytes_mean", metrics::mean(&t.req_bytes));
        report.layer("serve.resp_bytes_mean", metrics::mean(&t.resp_bytes));
        report.layer("serve.shed", (phases.shed + t.shed) as f64);
        report.layer("serve.expired", (phases.expired + t.expired) as f64);
        report.layer("serve.dropped_replies", dropped as f64);
        report.layer("loadgen.late_p99_ms", metrics::percentile(&t.late_ms, 99.0));
        report.layer(
            "loadgen.trace_overhead",
            metrics::median(&traced_total) / total,
        );
        let serve_ms = tracer::self_times(&spans).get("serve").map_or(0.0, |r| r.2);
        report.info(
            "check serve.* time > 0",
            format!("{} ({serve_ms:.3} ms)", metrics::verdict(serve_ms > 0.0)),
            "",
        );
        ctx.write_trace("serve", &spans);
    }
    report
}
