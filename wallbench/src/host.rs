//! The host stamp printed with every result, so latencies that involve the
//! disk are read as this machine's rather than a device's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The flush policy the durable workload runs under (the engine default).
pub const FLUSH_POLICY: &str =
    "WAL synced on every append; each data file synced before the record that commits it";

/// Builds the stamp: cores, compiler, a fixed CPU task's time (shared hosts
/// change speed from one run to the next), the scratch directory's
/// filesystem and a short fsync-latency probe of that directory.
pub fn stamp(dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (p50, max) = fsync_probe(dir).unwrap_or((0.0, 0.0));
    format!(
        "nproc={nproc} rustc=\"{}\" cpu_probe_ms={:.3} tmp_fs={} fsync_p50_us={p50:.1} fsync_max_us={max:.1} flush_policy=\"{FLUSH_POLICY}\"",
        env!("WALLBENCH_RUSTC"),
        cpu_probe_ms(),
        filesystem_of(dir),
    )
}

/// Median time of five rounds of hashing 8 MiB eight times over.
fn cpu_probe_ms() -> f64 {
    let words: Vec<u64> = (0..1u64 << 20).collect();
    let lat: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..8 {
                for &w in &words {
                    h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
                }
            }
            std::hint::black_box(h);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::metrics::median(&lat)
}

/// Median and maximum latency of 16 write+fsync rounds of one 4 KiB page.
fn fsync_probe(dir: &Path) -> std::io::Result<(f64, f64)> {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path)?;
    let page = [0x5Au8; 4096];
    let mut lat = Vec::with_capacity(16);
    for _ in 0..16 {
        let t = Instant::now();
        file.write_all(&page)?;
        file.sync_data()?;
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    let max = lat.iter().copied().fold(0.0, f64::max);
    Ok((crate::metrics::median(&lat), max))
}

/// The filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
