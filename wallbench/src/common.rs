//! What the workloads share: the run context, raw-file set-up and the
//! traced cursor drive.

use crate::metrics::Tally;
use crate::tracer;
use odyssey_core::{QueryOutcome, SpaceOdyssey};
use odyssey_datagen::BrainModel;
use odyssey_geom::{Aabb, DatasetId, Query, SpatialObject, Vec3};
use odyssey_storage::{
    write_raw_dataset, RawDataset, StorageManager, StorageResult, OBJECTS_PER_PAGE,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::time::Instant;

/// One run's arguments.
#[derive(Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory inside the checkout (stores, span files).
    pub dir: PathBuf,
    pub started: Instant,
}

impl Ctx {
    /// A seed for one input stream of this run.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        let mut x = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Passes that fill `--seconds` when one takes about `pass_seconds`.
    /// The count depends on the arguments only, never on how fast passes
    /// ran, so a run's medians always cover the same inputs. At least three.
    pub fn passes(&self, pass_seconds: f64) -> usize {
        ((self.seconds / pass_seconds).round() as usize).max(3)
    }

    /// Whether pass `done` should run: it is within the count [`passes`]
    /// gives, and the run has not overstayed three times its budget (a
    /// host several times slower than sized for ends the run early rather
    /// than late).
    ///
    /// [`passes`]: Ctx::passes
    pub fn more(&self, done: usize, total: usize) -> bool {
        done < total && (done < 3 || self.started.elapsed().as_secs_f64() < 3.0 * self.seconds)
    }

    /// Which input variant pass `pass` runs. Whole-session workloads draw
    /// fresh inputs for most passes, so a run's medians average over several
    /// sessions rather than following one seed's layout. Two passes share
    /// each variant where it matters: the first two of an untraced run (the
    /// cost-model repeat check), and each untraced/traced pair of a traced
    /// run (the tracing overhead compares like with like).
    pub fn variant(&self, pass: usize) -> u64 {
        if self.traced {
            (pass / 2) as u64
        } else {
            pass.saturating_sub(1) as u64
        }
    }

    /// Whether pass `pass` records spans.
    pub fn traced_pass(&self, pass: usize) -> bool {
        self.traced && pass % 2 == 1
    }

    /// Writes the run's spans and self-time table and prints the table.
    pub fn write_trace(&self, workload: &str, spans: &[tracer::Span]) {
        let stem = format!("{workload}-seed{}", self.seed);
        let spans_path = self.dir.join(format!("{stem}.spans.jsonl"));
        let table_path = self.dir.join(format!("{stem}.selftime.txt"));
        if let Err(e) = tracer::write_files(spans, &spans_path, &table_path) {
            eprintln!("writing trace files: {e}");
        }
        println!("trace  {} spans -> {}", spans.len(), spans_path.display());
        for line in tracer::self_time_table(spans).lines() {
            println!("trace  {line}");
        }
    }
}

/// Query windows clustered around the brain model's soma clusters, the
/// paper's clustered ranges with each cluster where data is dense. Random
/// cluster centres would put some seeds' queries in empty space and others'
/// in the densest region, and the cost of a session would follow the seed.
pub struct Clustered {
    centers: Vec<Vec3>,
    side: f64,
    bounds: Aabb,
    rng: ChaCha8Rng,
}

impl Clustered {
    /// `clusters` of the model's soma clusters, cubes of `volume` times the
    /// brain volume.
    pub fn new(model: &BrainModel, clusters: usize, volume: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut all = model.cluster_centers().to_vec();
        let centers = (0..clusters.min(all.len()))
            .map(|_| all.swap_remove(rng.gen_range(0..all.len())))
            .collect();
        let bounds = model.bounds();
        Clustered {
            centers,
            side: (bounds.volume() * volume).cbrt(),
            bounds,
            rng,
        }
    }

    /// A centre drawn around a random cluster, two query sides apart on
    /// average (the paper's spread).
    pub fn center(&mut self) -> Vec3 {
        let c = self.centers[self.rng.gen_range(0..self.centers.len())];
        let sigma = 2.0 * self.side;
        let mut g = || {
            let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
        };
        let p = c + Vec3::new(g(), g(), g());
        p.clamp(
            self.bounds.min + Vec3::splat(self.side * 0.5),
            self.bounds.max - Vec3::splat(self.side * 0.5),
        )
    }

    pub fn window(&mut self, center: Vec3) -> Aabb {
        Aabb::from_center_extent(center, Vec3::splat(self.side))
    }

    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }
}

/// Writes one raw file per dataset, dataset `i` holding `data[i]`.
pub fn write_raws(
    storage: &StorageManager,
    data: &[Vec<SpatialObject>],
) -> StorageResult<Vec<RawDataset>> {
    data.iter()
        .enumerate()
        .map(|(i, objects)| write_raw_dataset(storage, DatasetId(i as u16), objects))
        .collect()
}

/// Pages the user's objects fill when packed.
pub fn user_pages(objects: usize) -> f64 {
    objects as f64 / OBJECTS_PER_PAGE as f64
}

/// Store pages over the pages the live user objects fill.
pub fn space_amp(store_pages: f64, live_objects: usize) -> f64 {
    store_pages / user_pages(live_objects)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `query` through the streaming cursor API — open, pull every batch,
/// finish — with a span around each call. The pull that finds the cursor
/// drained runs the end-of-query phases (statistics, WAL record, merge
/// trigger), so it is timed with `finish` as `cursor.finish`.
pub fn run_cursor(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    query: &Query,
    req: u64,
) -> StorageResult<(Vec<SpatialObject>, QueryOutcome)> {
    let open = tracer::enter(req);
    let cursor = engine.open_cursor(storage, query);
    tracer::exit(
        open,
        "cursor.open",
        if cursor.is_ok() { "" } else { "error" },
    );
    let mut cursor = cursor?;
    let mut objects = Vec::new();
    loop {
        let open = tracer::enter(req);
        match cursor.next_batch() {
            Ok(Some(batch)) => {
                tracer::exit(open, "cursor.next_batch", "");
                objects.extend(batch);
            }
            Ok(None) => {
                let outcome = cursor.finish();
                tracer::exit(open, "cursor.finish", "");
                return Ok((objects, outcome));
            }
            Err(e) => {
                tracer::exit(open, "cursor.next_batch", "error");
                return Err(e);
            }
        }
    }
}

/// One timed query through the cursor API, tallied; returns the answer's
/// fingerprint and the wall time in ms.
pub fn timed_cursor_query(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    query: &Query,
    req: u64,
    tally: &mut Tally,
) -> StorageResult<(u64, f64)> {
    let root = tracer::enter(req);
    let t = Instant::now();
    let run = run_cursor(engine, storage, query, req);
    let wall_s = t.elapsed().as_secs_f64();
    tracer::exit(root, "loadgen.query", "");
    let (objects, outcome) = run?;
    tally.query(&outcome, objects.len(), wall_s);
    let fp = crate::oracle::answer_fp(query, &objects, outcome.count);
    Ok((fp, wall_s * 1e3))
}
