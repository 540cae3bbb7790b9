//! Where a result came from: commit, kernel ISA, cores, threads, features,
//! toolchain, and the disk under the WAL directory.  Results from different
//! hosts or builds are never compared; `compare` refuses on these keys.

use crate::json::Value;
use std::path::Path;

/// The Cargo features of the measured crates this package builds with (the
/// defaults of `cyberhd` and `hdc`; see `Cargo.toml`).
const FEATURES: &str = "cyberhd/parallel,hdc/parallel";

/// The checked-out commit, read from `.git` in the working directory without
/// starting a process; `unknown` outside a git checkout (the driver's copy).
fn commit() -> String {
    if let Ok(commit) = std::env::var("BENCH_COMMIT") {
        return commit;
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type and device of the mount holding `path` (Linux), e.g.
/// `ext4 /dev/vda`; `unknown` elsewhere.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (device, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), format!("{fstype} {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, found)| found)
}

pub fn collect(wal_dir: &Path, wal_disk: &str, shards: usize) -> Value {
    Value::obj([
        ("commit", Value::Str(commit())),
        ("kernel_isa", Value::str(hdc::kernel::active().isa())),
        ("nproc", Value::UInt(hdc::parallel::available_cores() as u64)),
        ("engine_threads", Value::UInt(hdc::parallel::engine_threads() as u64)),
        ("serve_shards", Value::UInt(shards as u64)),
        ("features", Value::str(FEATURES)),
        ("rustc", Value::str(env!("BENCH_RUSTC_VERSION"))),
        ("wal_dir", Value::str(wal_dir.display().to_string())),
        ("wal_disk", Value::str(wal_disk)),
    ])
}
