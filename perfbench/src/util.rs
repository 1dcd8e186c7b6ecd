//! Seeded inputs, order statistics, fingerprints and the environment
//! stamp shared by every workload.

use std::path::Path;
use std::time::Instant;

/// SplitMix64 finaliser: a cheap, well-mixed 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One sensor reading of stream `stream` at index `seq`: a per-stream
/// level plus uniform noise of width 0.2, with a planted spike near
/// 0.95 on roughly one reading in `spike_every`. A pure function of its
/// arguments, so any reading can be regenerated anywhere.
pub fn reading(seed: u64, stream: u64, seq: u64, spike_every: u64) -> f64 {
    let h = mix(seed ^ mix(stream.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ seq));
    if (h >> 7).is_multiple_of(spike_every) {
        0.92 + 0.05 * unit(mix(h))
    } else {
        0.3 + 0.02 * (stream % 5) as f64 + 0.2 * unit(h)
    }
}

/// FNV-1a, used for output fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The `q`-quantile (nearest rank) of `v`; sorts in place. 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// p50, p90, p99 and p99.9 of `v` (rounded to µs), for detail lines:
/// the tails are reported, not gated, because their run-to-run spread
/// on a shared machine exceeds any usable bound.
pub fn quantiles(v: &mut [f64]) -> [f64; 4] {
    [0.5, 0.9, 0.99, 0.999].map(|q| (quantile(v, q) * 1e3).round() / 1e3)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Each of `windows` equal spans of due time's `q`-quantile of
/// `(due, value)` samples; spans without samples are left out.
pub fn windowed_quantiles(samples: &[(f64, f64)], windows: usize, q: f64) -> Vec<f64> {
    let lo = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let hi = samples
        .iter()
        .map(|s| s.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut parts = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let i = ((t - lo) / (hi - lo).max(1e-12) * windows as f64) as usize;
        parts[i.min(windows - 1)].push(v);
    }
    parts
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(|mut p| quantile(&mut p, q))
        .collect()
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `build` repeatedly (at least `min_reps` times, then until
/// `budget_s` is spent or `max_reps` is reached) and returns the median
/// build time with the last value built.
pub fn repeat_setup<T>(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut build: impl FnMut() -> T,
) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps
        || (times.len() < max_reps && start.elapsed().as_secs_f64() < budget_s)
    {
        drop(last.take());
        let t0 = Instant::now();
        let v = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(times), last.expect("at least one setup"))
}

/// JSON string escaping for the hand-written output.
pub fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Where the run came from and what it ran on, stamped onto every
/// result: source revision, CPU, core count and the filesystem holding
/// the benchmark's output (and serve checkpoint) directory.
pub fn env_stamp(out_dir: &Path) -> String {
    // Only a checkout of its own: git would otherwise search the parent
    // directories for some other repository.
    let git_rev = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \"out_fs\": \"{}\"}}",
        esc(&git_rev),
        esc(&cpu),
        nproc,
        esc(&fs_type(out_dir))
    )
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
fn fs_type(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
