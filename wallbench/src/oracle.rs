//! Answer checking against the `geom` brute-force oracles.
//!
//! The oracle functions (`scan_query`, `scan_point_query`, `scan_knn_query`,
//! `scan_count_query`) decide every expected answer. A uniform grid only
//! narrows the objects they are handed to an exact superset of the ones
//! that can match, so tens of thousands of answers check in seconds.

use odyssey_geom::{
    scan_count_query, scan_knn_query, scan_point_query, scan_query, Aabb, DatasetId, Query,
    SpatialObject, Vec3,
};

/// An answer in comparable form: sorted `(dataset, id)` pairs, or a count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Objects(Vec<(u16, u64)>),
    Count(u64),
}

impl Answer {
    /// The engine's answer to `query`.
    pub fn of(query: &Query, objects: &[SpatialObject], count: u64) -> Self {
        match query {
            Query::Count(_) => Answer::Count(count),
            _ => {
                let mut ids: Vec<(u16, u64)> =
                    objects.iter().map(|o| (o.dataset.0, o.id.0)).collect();
                ids.sort_unstable();
                Answer::Objects(ids)
            }
        }
    }

    /// A hash of the answer, for comparing many answers cheaply.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0100_0000_01b3).rotate_left(29);
        };
        match self {
            Answer::Count(n) => {
                mix(0xC0C0);
                mix(*n);
            }
            Answer::Objects(ids) => {
                mix(ids.len() as u64);
                for (d, id) in ids {
                    mix(u64::from(*d));
                    mix(*id);
                }
            }
        }
        h
    }
}

/// Fingerprint of an engine answer to `query`.
pub fn answer_fp(query: &Query, objects: &[SpatialObject], count: u64) -> u64 {
    Answer::of(query, objects, count).fingerprint()
}

const GRID_CELLS: usize = 48;

/// One dataset's objects bucketed by every grid cell their MBR overlaps
/// (cell coordinates clamped to the grid, so objects or windows reaching
/// past the bounds still meet in the edge cells).
struct Grid {
    min: Vec3,
    cell: Vec3,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Grid {
    fn build(bounds: Aabb, objects: &[SpatialObject]) -> Self {
        let e = bounds.extent();
        let n = GRID_CELLS as f64;
        let mut grid = Grid {
            min: bounds.min,
            cell: Vec3::new(e.x / n, e.y / n, e.z / n),
            offsets: vec![0; GRID_CELLS * GRID_CELLS * GRID_CELLS + 1],
            items: Vec::new(),
        };
        // A counting sort: sizes first, then placement.
        let mut counts = vec![0u32; grid.offsets.len()];
        for o in objects {
            grid.for_cells(&o.mbr, |c| counts[c] += 1);
        }
        let mut acc = 0u32;
        for (i, c) in counts.iter().enumerate() {
            grid.offsets[i] = acc;
            acc += c;
        }
        *grid.offsets.last_mut().expect("offsets are non-empty") = acc;
        let mut fill = grid.offsets.clone();
        grid.items = vec![0; acc as usize];
        for (i, o) in objects.iter().enumerate() {
            let items = &mut grid.items;
            grid_for_cells(grid.min, grid.cell, &o.mbr, |c| {
                items[fill[c] as usize] = i as u32;
                fill[c] += 1;
            });
        }
        grid
    }

    fn for_cells(&self, b: &Aabb, f: impl FnMut(usize)) {
        grid_for_cells(self.min, self.cell, b, f);
    }

    /// Indices of the objects whose MBR may meet `window`, each once.
    fn candidates(&self, window: &Aabb, out: &mut Vec<u32>) {
        out.clear();
        self.for_cells(window, |c| {
            out.extend_from_slice(
                &self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize],
            )
        });
        out.sort_unstable();
        out.dedup();
    }
}

fn grid_for_cells(min: Vec3, cell: Vec3, b: &Aabb, mut f: impl FnMut(usize)) {
    let coord = |v: f64, lo: f64, size: f64| -> usize {
        let c = ((v - lo) / size).floor();
        if c.is_nan() || c < 0.0 {
            0
        } else {
            (c as usize).min(GRID_CELLS - 1)
        }
    };
    let (x0, x1) = (coord(b.min.x, min.x, cell.x), coord(b.max.x, min.x, cell.x));
    let (y0, y1) = (coord(b.min.y, min.y, cell.y), coord(b.max.y, min.y, cell.y));
    let (z0, z1) = (coord(b.min.z, min.z, cell.z), coord(b.max.z, min.z, cell.z));
    for x in x0..=x1 {
        for y in y0..=y1 {
            for z in z0..=z1 {
                f((x * GRID_CELLS + y) * GRID_CELLS + z);
            }
        }
    }
}

/// The data queries are answered over: per dataset, a gridded base set
/// plus objects added later (scanned whole).
pub struct Snapshot<'a> {
    bounds: Aabb,
    base: &'a [Vec<SpatialObject>],
    grids: Vec<Grid>,
}

impl<'a> Snapshot<'a> {
    pub fn new(bounds: Aabb, base: &'a [Vec<SpatialObject>]) -> Self {
        Snapshot {
            bounds,
            base,
            grids: base.iter().map(|d| Grid::build(bounds, d)).collect(),
        }
    }

    /// Objects of the queried datasets that may meet `window`: grid
    /// candidates of the base set plus every added object.
    fn near(
        &self,
        query: &Query,
        window: &Aabb,
        added: &[&[SpatialObject]],
        scratch: &mut Vec<u32>,
    ) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        for DatasetId(d) in query.datasets().iter() {
            let d = usize::from(d);
            if let (Some(objects), Some(grid)) = (self.base.get(d), self.grids.get(d)) {
                grid.candidates(window, scratch);
                out.extend(scratch.iter().map(|&i| objects[i as usize]));
            }
        }
        for part in added {
            out.extend(part.iter().filter(|o| query.datasets().contains(o.dataset)));
        }
        out
    }

    /// The oracle's answer to `query` over the base set plus `added`.
    pub fn expected(&self, query: &Query, added: &[&[SpatialObject]]) -> Answer {
        let mut scratch = Vec::new();
        match query {
            Query::Range(q) => {
                let near = self.near(query, &q.range, added, &mut scratch);
                Answer::of(query, &scan_query(q, near.iter()), 0)
            }
            Query::Point(q) => {
                let near = self.near(query, &Aabb::from_point(q.point), added, &mut scratch);
                Answer::of(query, &scan_point_query(q, near.iter()), 0)
            }
            Query::Count(q) => {
                let near = self.near(query, &q.range, added, &mut scratch);
                Answer::Count(scan_count_query(q, near.iter()))
            }
            Query::KNearestNeighbors(q) => {
                // Grow a cube around the probe until it holds k objects no
                // farther than its half-side r. Every object outside the
                // gathered set has its MBR outside the cube, so lies farther
                // than r: the true top k are all among the gathered ones.
                let whole = self.bounds.extent().max_component();
                let mut r = whole / GRID_CELLS as f64;
                loop {
                    let cube = Aabb::from_center_extent(q.point, Vec3::splat(2.0 * r));
                    let near = self.near(query, &cube, added, &mut scratch);
                    let covers = cube.contains(&self.bounds);
                    let within: Vec<SpatialObject> = near
                        .iter()
                        .filter(|o| covers || q.distance_squared(o) <= r * r)
                        .copied()
                        .collect();
                    if within.len() >= q.k || covers {
                        let answer = if covers { near } else { within };
                        return Answer::of(query, &scan_knn_query(q, answer.iter()), 0);
                    }
                    r *= 2.0;
                }
            }
        }
    }
}

/// Oracle fingerprints for many queries over the base set, on two threads.
pub fn expected_all(snapshot: &Snapshot<'_>, queries: &[&Query]) -> Vec<u64> {
    let mid = queries.len() / 2;
    let (a, b) = queries.split_at(mid);
    let fp = |q: &&Query| snapshot.expected(q, &[]).fingerprint();
    std::thread::scope(|s| {
        let left = s.spawn(|| a.iter().map(fp).collect::<Vec<_>>());
        let mut right: Vec<u64> = b.iter().map(fp).collect();
        let mut out = left.join().expect("oracle thread panicked");
        out.append(&mut right);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_datagen::{BrainModel, DatasetSpec};
    use odyssey_geom::{
        scan_any_query, CountQuery, DatasetSet, KnnQuery, PointQuery, QueryAnswer, QueryId,
        RangeQuery,
    };

    /// The grid only narrows what the oracles scan: every kind of answer
    /// must equal a scan over all objects, near and far from the data.
    #[test]
    fn gridded_answers_equal_full_scans() {
        let model = BrainModel::new(DatasetSpec::with_size(3, 3_000, 7));
        let objects = model.generate_all();
        let bounds = model.bounds();
        let added = [SpatialObject::new(
            odyssey_geom::ObjectId(1 << 40),
            DatasetId(1),
            Aabb::from_center_extent(model.cluster_centers()[0], Vec3::splat(2.0)),
        )];
        let snapshot = Snapshot::new(bounds, &objects);
        let all: Vec<SpatialObject> = objects.iter().flatten().chain(&added).copied().collect();
        let both = DatasetSet::from_ids([DatasetId(0), DatasetId(1)]);
        let mut probes: Vec<Vec3> = model.cluster_centers().iter().take(4).copied().collect();
        probes.push(bounds.min);
        probes.push(bounds.center() + Vec3::splat(333.0));
        for (i, p) in probes.into_iter().enumerate() {
            let id = QueryId(i as u32);
            let window = Aabb::from_center_extent(p, Vec3::splat(40.0));
            for q in [
                Query::Range(RangeQuery::new(id, window, both)),
                Query::Point(PointQuery::new(id, p, both)),
                Query::Count(CountQuery::new(id, window, both)),
                Query::KNearestNeighbors(KnnQuery::new(id, p, 8, both)),
                Query::KNearestNeighbors(KnnQuery::new(id, p, 1, DatasetSet::single(DatasetId(2)))),
            ] {
                let want = match scan_any_query(&q, all.iter()) {
                    QueryAnswer::Objects(o) => Answer::of(&q, &o, 0),
                    QueryAnswer::Count(n) => Answer::Count(n),
                };
                assert_eq!(snapshot.expected(&q, &[&added]), want, "{q:?}");
            }
        }
    }
}
