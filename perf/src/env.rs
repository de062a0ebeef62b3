//! What the machine was doing: a calibration kernel, peak memory, the
//! file system under the data directory, the CPUs the process may use.

use std::path::Path;
use std::time::Instant;

/// A fixed hash + memcpy kernel, timed in slices between the benchmark's
/// timed sections. The sandbox this runs in is a shared virtual machine
/// whose speed wanders by ±10 % over tens of seconds (other tenants' cache
/// and memory traffic, stolen CPU time): every engine time of a run moves
/// with it. The kernel's work is constant, so the time it takes while a
/// phase runs says how fast the machine was during that phase, and engine
/// times are reported at the reference speed [`Calibrator::REFERENCE_NS`].
pub struct Calibrator {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    const LEN: usize = 1 << 20;
    const ROUNDS: u8 = 8;
    /// What one slice takes on the reference box when it is quiet. Times
    /// are scaled by `REFERENCE_NS ÷ observed slice time`; the constant
    /// only fixes the unit, it cancels in any comparison.
    pub const REFERENCE_NS: f64 = 1_650_000.0;

    /// Allocates the kernel's two 1 MiB buffers.
    pub fn new() -> Self {
        let src = (0..Self::LEN).map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8).collect();
        Self { src, dst: vec![0u8; Self::LEN] }
    }

    /// Runs one slice (eight rounds of copy 1 MiB, then fold it eight
    /// bytes at a time through a dependent multiply) and returns its time
    /// in nanoseconds.
    pub fn slice(&mut self) -> u64 {
        let t = Instant::now();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for round in 0..Self::ROUNDS {
            self.dst.copy_from_slice(&self.src);
            self.dst[0] = round;
            for w in self.dst.chunks_exact(8) {
                h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
                    .wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        std::hint::black_box(h);
        t.elapsed().as_nanos() as u64
    }

    /// Median of `n` slices: the machine's speed right now.
    pub fn now(&mut self, n: usize) -> f64 {
        let mut v: Vec<u64> = (0..n).map(|_| self.slice()).collect();
        v.sort_unstable();
        v[v.len() / 2] as f64
    }

    /// The machine's speed while `slices` were taken, as a multiple of the
    /// reference speed: mean, not median, because the engine's own time is
    /// a sum over the same stretch and pays for every slow moment too.
    pub fn speed(slices: &[u64]) -> f64 {
        if slices.is_empty() {
            return 1.0;
        }
        let mean = slices.iter().sum::<u64>() as f64 / slices.len() as f64;
        Self::REFERENCE_NS / mean
    }
}

/// `VmHWM` of this process in MiB (0.0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File-system type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); `"unknown"` where that fails.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// CPUs this process may run on (after any `taskset`).
pub fn usable_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs the machine has, pinned or not.
pub fn machine_cores() -> usize {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let n = info.lines().filter(|l| l.starts_with("processor")).count();
    if n == 0 {
        usable_cores()
    } else {
        n
    }
}
