//! The converged engine `lookup` and `serve` run against: brain-model data
//! queried only inside a few hot boxes by two hot dataset combinations, so
//! an untimed warm-up can refine every partition those queries reach and
//! merge every partition their combinations read. After it, queries find
//! nothing left to adapt.

use crate::common::{self, Ctx};
use odyssey_core::{OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{BrainModel, DatasetSpec};
use odyssey_geom::{
    Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, PointQuery, Query, QueryId, RangeQuery,
    SpatialObject, Vec3,
};
use odyssey_storage::{StorageManager, StorageOptions, StorageResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

const DATASETS: usize = 6;
const OBJECTS: usize = 40_000;
/// Hot boxes, each centred on a soma cluster. Several, so the data density
/// the queries meet averages out across seeds.
const BOXES: usize = 12;
/// Half the side of a hot box.
const BOX_HALF: f64 = 25.0;
/// Query volume as a fraction of the brain volume.
const QUERY_VOLUME: f64 = 1e-5;
/// Sweep points per box edge: spaced closer than one query side, so the
/// sweep's windows cover every window a query centred in the box can probe.
const SWEEP_STEPS: usize = 4;
const KNN_K: usize = 8;
/// Random queries after the sweep: they exercise the point, kNN and count
/// paths once and fill the statistics before timing starts.
const WARM_QUERIES: usize = 600;

/// The generated inputs.
pub struct Inputs {
    pub bounds: Aabb,
    pub objects: Vec<Vec<SpatialObject>>,
    pub combos: [DatasetSet; 2],
    pub boxes: Vec<Vec3>,
    pub side: f64,
}

impl Inputs {
    pub fn new(ctx: &Ctx, variant: u64) -> Self {
        let model = BrainModel::new(DatasetSpec {
            num_datasets: DATASETS,
            objects_per_dataset: OBJECTS,
            seed: ctx.sub_seed(10 * variant + 11),
            ..DatasetSpec::default()
        });
        let bounds = model.bounds();
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.sub_seed(10 * variant + 12));
        let mut centers = model.cluster_centers().to_vec();
        let boxes = (0..BOXES)
            .map(|_| centers.swap_remove(rng.gen_range(0..centers.len())))
            .collect();
        // Two distinct three-dataset combinations (the merger's minimum).
        let mut pick = || {
            let mut ids: Vec<u16> = (0..DATASETS as u16).collect();
            let mut set = DatasetSet::EMPTY;
            for _ in 0..3 {
                set = set.union(DatasetSet::single(DatasetId(
                    ids.swap_remove(rng.gen_range(0..ids.len())),
                )));
            }
            set
        };
        let first = pick();
        let mut second = pick();
        while second == first {
            second = pick();
        }
        Inputs {
            bounds,
            objects: model.generate_all(),
            combos: [first, second],
            boxes,
            side: (bounds.volume() * QUERY_VOLUME).cbrt(),
        }
    }

    pub fn live_objects(&self) -> usize {
        self.objects.iter().map(Vec::len).sum()
    }

    /// Range queries on a grid over every hot box, for each hot combination.
    fn sweep(&self) -> Vec<Query> {
        let mut out = Vec::new();
        let step = 2.0 * BOX_HALF / (SWEEP_STEPS - 1) as f64;
        for combo in self.combos {
            for c in &self.boxes {
                for i in 0..SWEEP_STEPS {
                    for j in 0..SWEEP_STEPS {
                        for k in 0..SWEEP_STEPS {
                            let at = *c - Vec3::splat(BOX_HALF)
                                + Vec3::new(i as f64, j as f64, k as f64) * step;
                            let id = QueryId(out.len() as u32);
                            out.push(Query::Range(RangeQuery::new(
                                id,
                                Aabb::from_center_extent(at, Vec3::splat(self.side)),
                                combo,
                            )));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Draws queries of the four kinds inside the hot boxes.
pub struct QueryGen {
    rng: ChaCha8Rng,
    next_id: u32,
}

impl QueryGen {
    pub fn new(seed: u64) -> Self {
        QueryGen {
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_id: 1 << 20,
        }
    }

    /// A point uniformly inside one of the hot boxes.
    pub fn point(&mut self, inputs: &Inputs) -> Vec3 {
        let c = inputs.boxes[self.rng.gen_range(0..inputs.boxes.len())];
        let mut u = || self.rng.gen_range(-BOX_HALF..BOX_HALF);
        c + Vec3::new(u(), u(), u())
    }

    pub fn query(&mut self, inputs: &Inputs) -> Query {
        let id = QueryId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        let combo = if self.rng.gen_range(0.0..1.0) < 0.7 {
            inputs.combos[0]
        } else {
            inputs.combos[1]
        };
        let at = self.point(inputs);
        let window = Aabb::from_center_extent(at, Vec3::splat(inputs.side));
        match self.rng.gen_range(0..4u32) {
            0 => Query::Range(RangeQuery::new(id, window, combo)),
            1 => Query::Point(PointQuery::new(id, at, combo)),
            2 => Query::KNearestNeighbors(KnnQuery::new(id, at, KNN_K, combo)),
            _ => Query::Count(CountQuery::new(id, window, combo)),
        }
    }

    pub fn gen_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    pub fn gen_index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// A converged engine and what building it took.
pub struct Built {
    pub inputs: Inputs,
    pub engine: Arc<SpaceOdyssey>,
    pub storage: Arc<StorageManager>,
    /// Data generation, raw-file writes and warm-up, in seconds.
    pub setup_s: f64,
    /// Engine over raw files to its first answer, in ms.
    pub first_query_ms: f64,
}

/// Generates the inputs of `variant`, writes the raw files into an
/// in-memory store whose buffer pool holds the whole working set, and warms
/// the engine up.
pub fn build(ctx: &Ctx, variant: u64, result_cache: bool) -> StorageResult<Built> {
    let t = Instant::now();
    let inputs = Inputs::new(ctx, variant);
    let raw_pages = common::user_pages(inputs.live_objects());
    let storage = Arc::new(StorageManager::new(StorageOptions::in_memory(
        (raw_pages * 6.0) as usize + 4096,
    )));
    let raws = common::write_raws(&storage, &inputs.objects)?;
    let mut config = OdysseyConfig::paper(inputs.bounds);
    if result_cache {
        config = config.with_result_cache(64 << 20);
    }
    let engine = Arc::new(SpaceOdyssey::new(config, raws).expect("valid configuration"));
    let t0 = Instant::now();
    let mut first_query_ms = 0.0;
    for (i, q) in inputs.sweep().iter().enumerate() {
        engine.execute_query(&storage, q)?;
        if i == 0 {
            first_query_ms = common::ms_since(t0);
        }
    }
    let mut gen = QueryGen::new(ctx.sub_seed(10 * variant + 13));
    for _ in 0..WARM_QUERIES {
        engine.execute_query(&storage, &gen.query(&inputs))?;
    }
    Ok(Built {
        setup_s: t.elapsed().as_secs_f64(),
        first_query_ms,
        inputs,
        engine,
        storage,
    })
}
