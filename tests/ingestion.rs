//! Integration tests for online ingestion: the append-aware engine must stay
//! bit-identical to the brute-force oracle after every ingest, across all
//! four query kinds, with the planner on and off — while exercising the
//! merge-file staleness machinery (repair and bypass-while-stale) and
//! ingest-triggered refinement.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use space_odyssey::core::{EngineOp, OdysseyConfig, OpOutcome, QueryOutcome, SpaceOdyssey};
use space_odyssey::datagen::{
    BrainModel, DatasetSpec, IngestProfile, InterleavedTraceSpec, MixedWorkloadSpec, QueryKindMix,
    TraceStep, WorkloadSpec,
};
use space_odyssey::geom::{
    scan_any_query, Aabb, DatasetId, DatasetSet, ObjectId, Query, QueryAnswer, QueryId, RangeQuery,
    SpatialObject, Vec3,
};
use space_odyssey::storage::{write_raw_dataset, RawDataset, StorageManager, StorageOptions};

fn spec(num_datasets: usize, objects: usize) -> DatasetSpec {
    DatasetSpec {
        num_datasets,
        objects_per_dataset: objects,
        soma_clusters: 5,
        segments_per_neuron: 40,
        seed: 2041,
        ..Default::default()
    }
}

struct World {
    storage: StorageManager,
    raws: Vec<RawDataset>,
    bounds: Aabb,
    all_objects: Vec<SpatialObject>,
    /// Keeps the tempdir of a disk-backed world alive for the test's run.
    _dir: Option<tempfile::TempDir>,
}

fn fresh_world(spec: &DatasetSpec) -> World {
    world_on(spec, StorageOptions::in_memory(2048), None)
}

/// Same world on the real-file backend (tempdir), so adaptation and ingest
/// are exercised against `StorageBackend::Disk`, not just the in-memory
/// default.
fn fresh_world_on_disk(spec: &DatasetSpec) -> World {
    let dir = tempfile::tempdir().unwrap();
    let options = StorageOptions::on_disk(dir.path(), 2048);
    world_on(spec, options, Some(dir))
}

fn world_on(spec: &DatasetSpec, options: StorageOptions, dir: Option<tempfile::TempDir>) -> World {
    let storage = StorageManager::new(options);
    let model = BrainModel::new(spec.clone());
    let mut all_objects = Vec::new();
    let raws = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| {
            all_objects.extend(objs.iter().copied());
            write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap()
        })
        .collect();
    World {
        storage,
        raws,
        bounds: model.bounds(),
        all_objects,
        _dir: dir,
    }
}

fn trace_spec(num_datasets: usize, queries: usize, seed: u64) -> InterleavedTraceSpec {
    InterleavedTraceSpec {
        mixed: MixedWorkloadSpec {
            base: WorkloadSpec {
                num_datasets,
                datasets_per_query: 3,
                num_queries: queries,
                query_volume_fraction: 1e-4,
                seed,
                ..Default::default()
            },
            mix: QueryKindMix::balanced(),
        },
        ingest: IngestProfile {
            ingest_ratio: 0.35,
            batch_size: 48,
            arrival_skew: 1.2,
            ..Default::default()
        },
    }
}

/// Normalizes an outcome for oracle comparison: `(dataset, id)` pairs
/// (order-sensitive for kNN, sorted otherwise) plus the count.
fn normalize(query: &Query, outcome: &QueryOutcome) -> (Vec<(DatasetId, u64)>, u64) {
    let mut ids: Vec<(DatasetId, u64)> = outcome
        .objects
        .iter()
        .map(|o| (o.dataset, o.id.0))
        .collect();
    if !matches!(query, Query::KNearestNeighbors(_)) {
        ids.sort_unstable();
        ids.dedup();
    }
    let count = if matches!(query, Query::Count(_)) {
        outcome.count
    } else {
        ids.len() as u64
    };
    (ids, count)
}

fn normalize_answer(query: &Query, answer: &QueryAnswer) -> (Vec<(DatasetId, u64)>, u64) {
    match answer {
        QueryAnswer::Objects(objs) => {
            let mut ids: Vec<(DatasetId, u64)> = objs.iter().map(|o| (o.dataset, o.id.0)).collect();
            if !matches!(query, Query::KNearestNeighbors(_)) {
                ids.sort_unstable();
            }
            let n = ids.len() as u64;
            (ids, n)
        }
        QueryAnswer::Count(n) => (Vec::new(), *n),
    }
}

/// The acceptance-criteria property test: an interleaved ingest+query trace
/// over all four kinds stays bit-identical to the brute-force oracle after
/// every ingest, with the planner on and off — and the planner-on run
/// provably exercises merge-file repair, bypass-while-stale, and
/// ingest-triggered refinement.
#[test]
fn interleaved_trace_matches_the_oracle_after_every_ingest() {
    interleaved_trace_matches_the_oracle(fresh_world);
}

/// The same acceptance property against real files: adaptation, ingestion
/// and staleness repair all hit the disk backend.
#[test]
fn interleaved_trace_matches_the_oracle_on_the_disk_backend() {
    interleaved_trace_matches_the_oracle(fresh_world_on_disk);
}

fn interleaved_trace_matches_the_oracle(make_world: fn(&DatasetSpec) -> World) {
    for planner_enabled in [true, false] {
        let ds_spec = spec(5, 2_500);
        let world = make_world(&ds_spec);
        let mut config = OdysseyConfig::paper(world.bounds);
        config.planner_enabled = planner_enabled;
        // A split threshold the skewed arrival stream will actually cross.
        config.ingest_split_objects = 256;
        let engine = SpaceOdyssey::new(config, world.raws.clone()).unwrap();
        let trace = trace_spec(5, 120, 0xFEED).generate(&world.bounds);
        assert!(trace.ingest_steps() > 20);

        let mut oracle = world.all_objects.clone();
        let mut splits = 0usize;
        for (i, step) in trace.steps.iter().enumerate() {
            match step {
                TraceStep::Ingest { dataset, objects } => {
                    let outcome = engine.ingest(&world.storage, *dataset, objects).unwrap();
                    assert_eq!(outcome.objects_ingested, objects.len());
                    splits += outcome.partitions_split;
                    oracle.extend(objects.iter().copied());
                }
                TraceStep::Query(query) => {
                    let outcome = engine.execute_query(&world.storage, query).unwrap();
                    let expected = normalize_answer(query, &scan_any_query(query, oracle.iter()));
                    assert_eq!(
                        normalize(query, &outcome),
                        expected,
                        "planner={planner_enabled}: step {i} ({:?}) diverged",
                        query.kind()
                    );
                }
            }
        }
        // Object conservation across every dataset's octree.
        let stored: u64 = engine
            .datasets()
            .iter()
            .filter(|d| d.is_initialized())
            .map(|d| d.partitions().iter().map(|p| p.object_count).sum::<u64>())
            .sum();
        let expected: u64 = engine
            .datasets()
            .iter()
            .filter(|d| d.is_initialized())
            .map(|d| d.raw().num_objects)
            .sum();
        assert_eq!(stored, expected, "objects lost or duplicated by ingestion");

        // The run exercised the full staleness machinery.
        assert!(
            engine.merger().staleness_repairs() > 0,
            "planner={planner_enabled}: no merge-file repair happened"
        );
        assert!(splits > 0, "no ingest-triggered refinement happened");
        if planner_enabled {
            assert!(
                engine.stale_bypasses() > 0,
                "no stale merge file was ever bypassed"
            );
        }
    }
}

/// Mixed ingest+query batches on many threads follow the same shuffle rules
/// as adaptation: each ingest applies exactly once, and every query answers
/// exactly as in a sequential ingests-first execution, regardless of op
/// order or thread interleaving.
#[test]
fn shuffled_mixed_ops_batch_is_deterministic_on_8_threads() {
    let ds_spec = spec(4, 2_000);
    let trace = trace_spec(4, 48, 0xBEEF).generate(&BrainModel::new(ds_spec.clone()).bounds());
    let ops: Vec<EngineOp> = trace
        .steps
        .iter()
        .map(|step| match step {
            TraceStep::Query(q) => EngineOp::Query(*q),
            TraceStep::Ingest { dataset, objects } => EngineOp::Ingest {
                dataset: *dataset,
                objects: objects.clone(),
            },
        })
        .collect();
    let ingested: Vec<SpatialObject> = trace
        .steps
        .iter()
        .flat_map(|s| match s {
            TraceStep::Ingest { objects, .. } => objects.clone(),
            TraceStep::Query(_) => Vec::new(),
        })
        .collect();
    assert!(!ingested.is_empty());

    // Reference: a fresh engine, all ingests applied first, then every query
    // sequentially — the documented semantics of a mixed batch.
    let world = fresh_world(&ds_spec);
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(world.bounds), world.raws.clone()).unwrap();
    for op in &ops {
        if let EngineOp::Ingest { dataset, objects } = op {
            engine.ingest(&world.storage, *dataset, objects).unwrap();
        }
    }
    let mut expected = std::collections::HashMap::new();
    let full_oracle: Vec<SpatialObject> = world
        .all_objects
        .iter()
        .copied()
        .chain(ingested.iter().copied())
        .collect();
    for op in &ops {
        if let EngineOp::Query(q) = op {
            let outcome = engine.execute_query(&world.storage, q).unwrap();
            let normalized = normalize(q, &outcome);
            // The sequential reference itself matches the full oracle.
            assert_eq!(
                normalized,
                normalize_answer(q, &scan_any_query(q, full_oracle.iter())),
                "sequential reference diverged on {:?}",
                q.id()
            );
            expected.insert(q.id(), normalized);
        }
    }

    // Shuffle the ops and execute them as one 8-thread mixed batch on a
    // fresh engine: answers must be identical per query id.
    let mut shuffled = ops.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let world2 = fresh_world(&ds_spec);
    let engine2 =
        SpaceOdyssey::new(OdysseyConfig::paper(world2.bounds), world2.raws.clone()).unwrap();
    let outcomes = engine2
        .execute_ops_batch_with_threads(&world2.storage, &shuffled, 8)
        .unwrap();
    assert_eq!(outcomes.len(), shuffled.len());
    let mut queries_checked = 0usize;
    for (op, outcome) in shuffled.iter().zip(&outcomes) {
        match (op, outcome) {
            (EngineOp::Query(q), OpOutcome::Query(o)) => {
                assert_eq!(
                    &normalize(q, o),
                    expected.get(&q.id()).expect("query id exists"),
                    "query {:?} diverged under the shuffled 8-thread batch",
                    q.id()
                );
                queries_checked += 1;
            }
            (EngineOp::Ingest { objects, .. }, OpOutcome::Ingest(o)) => {
                assert_eq!(o.objects_ingested, objects.len());
            }
            _ => panic!("outcome kind does not match op kind"),
        }
    }
    assert_eq!(queries_checked, expected.len());
    // Exactly-once ingestion: stored object counts equal base + arrivals.
    let stored: u64 = engine2.datasets().iter().map(|d| d.raw().num_objects).sum();
    assert_eq!(
        stored,
        (4 * 2_000 + ingested.len()) as u64,
        "ingests must apply exactly once under the shuffled batch"
    );
}

/// Directed staleness scenario, phase A on the legacy (planner-off) engine —
/// which always repairs a stale file it wants to read — and phase B on the
/// planner engine, which bypasses a repair that costs more than reading the
/// few hit partitions from the octree. Oracle-exactness throughout.
/// Repairing a stale merge file walks its partitions in key order, so two
/// identically built engines lay out the same repair runs and pay exactly
/// the same I/O.
#[test]
fn stale_merge_file_repair_io_repeats_across_identical_engines() {
    let run = || {
        let world = fresh_world(&spec(4, 2_500));
        let engine = SpaceOdyssey::new(
            OdysseyConfig::paper(world.bounds).without_planner(),
            world.raws.clone(),
        )
        .unwrap();
        let anchor = world
            .all_objects
            .iter()
            .find(|o| o.dataset == DatasetId(0))
            .unwrap()
            .center();
        let side = world.bounds.extent().x * 0.05;
        let hot = DatasetSet::from_ids((0..3u16).map(DatasetId));
        let hot_query = |i: u32| {
            Query::Range(RangeQuery::new(
                QueryId(i),
                Aabb::from_center_extent(anchor, Vec3::splat(side)),
                hot,
            ))
        };
        for i in 0..8 {
            engine.execute_query(&world.storage, &hot_query(i)).unwrap();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let tail: Vec<SpatialObject> = (0..200u64)
            .map(|i| {
                let jitter = Vec3::new(
                    rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                ) * side;
                SpatialObject::new(
                    ObjectId(6_000_000 + i),
                    DatasetId(1),
                    Aabb::from_center_extent(anchor + jitter, Vec3::splat(side * 0.02)),
                )
            })
            .collect();
        engine.ingest(&world.storage, DatasetId(1), &tail).unwrap();
        let repaired = engine
            .execute_query(&world.storage, &hot_query(100))
            .unwrap();
        assert!(repaired.stale_merge_repairs > 0, "{repaired:?}");
        world.storage.clear_cache();
        for i in 101..104 {
            engine.execute_query(&world.storage, &hot_query(i)).unwrap();
        }
        world.storage.stats()
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

#[test]
fn stale_merge_files_repair_or_bypass_but_never_lie() {
    // ---- Phase A: repair (legacy routing, planner off). ----
    let world = fresh_world(&spec(4, 2_500));
    let engine = SpaceOdyssey::new(
        OdysseyConfig::paper(world.bounds).without_planner(),
        world.raws.clone(),
    )
    .unwrap();
    let mut oracle = world.all_objects.clone();
    // Anchor on a real object so the hot region holds data for sure.
    let anchor = world
        .all_objects
        .iter()
        .find(|o| o.dataset == DatasetId(0))
        .unwrap()
        .center();
    let side = world.bounds.extent().x * 0.02;
    let hot = DatasetSet::from_ids((0..3u16).map(DatasetId));
    let hot_query = |i: u32| {
        Query::Range(RangeQuery::new(
            QueryId(i),
            Aabb::from_center_extent(anchor, Vec3::splat(side)),
            hot,
        ))
    };
    for i in 0..8 {
        engine.execute_query(&world.storage, &hot_query(i)).unwrap();
    }
    assert!(!engine.merger().directory().is_empty());

    // Small tail into the merged region: the next hot query repairs.
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let small_tail: Vec<SpatialObject> = (0..40u64)
        .map(|i| {
            let jitter = Vec3::new(
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            ) * side;
            SpatialObject::new(
                ObjectId(5_000_000 + i),
                DatasetId(1),
                Aabb::from_center_extent(anchor + jitter, Vec3::splat(side * 0.05)),
            )
        })
        .collect();
    engine
        .ingest(&world.storage, DatasetId(1), &small_tail)
        .unwrap();
    oracle.extend(small_tail.iter().copied());
    let repaired = engine
        .execute_query(&world.storage, &hot_query(100))
        .unwrap();
    assert!(repaired.stale_merge_repairs > 0, "{repaired:?}");
    assert!(repaired.used_merge_file());
    let q = hot_query(100);
    assert_eq!(
        normalize(&q, &repaired),
        normalize_answer(&q, &scan_any_query(&q, oracle.iter())),
        "repaired merge file must serve the complete tail"
    );
    assert!(engine.merger().staleness_repairs() > 0);

    // ---- Phase B: bypass (planner on). ----
    let world = fresh_world(&spec(4, 2_500));
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(world.bounds), world.raws.clone()).unwrap();
    let mut oracle = world.all_objects.clone();
    for i in 0..8 {
        engine.execute_query(&world.storage, &hot_query(i)).unwrap();
    }
    assert!(!engine.merger().directory().is_empty());

    // Huge tail spread across the volume: a small query bypasses the stale
    // file rather than paying the repair — and still answers exactly.
    let huge_tail: Vec<SpatialObject> = (0..25_000u64)
        .map(|i| {
            let c = Vec3::new(
                rng.gen_range(0.05..0.95),
                rng.gen_range(0.05..0.95),
                rng.gen_range(0.05..0.95),
            );
            SpatialObject::new(
                ObjectId(6_000_000 + i),
                DatasetId(2),
                Aabb::from_center_extent(
                    world.bounds.min
                        + Vec3::new(
                            c.x * world.bounds.extent().x,
                            c.y * world.bounds.extent().y,
                            c.z * world.bounds.extent().z,
                        ),
                    Vec3::splat(side * 0.05),
                ),
            )
        })
        .collect();
    engine
        .ingest(&world.storage, DatasetId(2), &huge_tail)
        .unwrap();
    oracle.extend(huge_tail.iter().copied());
    let bypassed = engine
        .execute_query(&world.storage, &hot_query(200))
        .unwrap();
    assert!(
        bypassed.stale_merge_bypassed,
        "a 25k-object repair must not be paid by one small query: {:?}",
        bypassed.plans
    );
    let q = hot_query(200);
    assert_eq!(
        normalize(&q, &bypassed),
        normalize_answer(&q, &scan_any_query(&q, oracle.iter())),
        "bypassing a stale file must not lose the tail"
    );
    assert!(engine.stale_bypasses() > 0);
}
