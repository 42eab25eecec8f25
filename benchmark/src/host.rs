//! What the host is and what it can do: the metadata printed with every run,
//! and the measured memory bandwidth the scan metrics are compared against.

use crate::json::Json;
use madlib_linalg::kernels;
use std::path::Path;
use std::time::Instant;

/// Threads the engine's parallel scans use (`MADLIB_THREADS`, else
/// `available_parallelism`) — also the most busy threads this process runs.
pub fn cores() -> usize {
    madlib_engine::scan::worker_count()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (longest mount-point prefix wins); `"unknown"` off Linux.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    filesystem_from_mounts(&mounts, &path)
}

fn filesystem_from_mounts(mounts: &str, path: &Path) -> String {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_device), Some(point), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), fs));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs.to_owned())
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `"unknown"` in a checkout that is not a git repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

pub fn metadata(scratch: &Path) -> Json {
    let env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MADLIB_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    Json::obj([
        ("nproc", Json::Num(cores() as f64)),
        (
            "cpu_features",
            Json::Arr(kernels::cpu_features().into_iter().map(Json::str).collect()),
        ),
        ("kernel_path", Json::str(kernels::active_path().label())),
        ("madlib_env", Json::Obj(env)),
        ("scratch_fs", Json::Str(filesystem_of(scratch))),
        ("git_commit", Json::Str(git_commit())),
    ])
}

/// Measured copy (`a = b`) and triad (`a = b + s·c`) bandwidth in GB/s over
/// arrays far larger than any cache, best of `reps`, once per entry of
/// `thread_counts` (each thread working its own slice of the same arrays).
/// Bytes counted are those the loop names (2 and 3 arrays), not
/// write-allocate traffic.
pub fn bandwidth(elements: usize, reps: usize, thread_counts: &[usize]) -> Vec<(f64, f64)> {
    let mut a = vec![0.0f64; elements];
    let b = vec![1.5f64; elements];
    let c = vec![0.25f64; elements];
    let bytes = (elements * 8) as f64;
    let mut best_of = |triad: bool, threads: usize| {
        let per = elements.div_ceil(threads);
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                    scope.spawn(move || {
                        if triad {
                            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                                *a = b + 3.0 * c;
                            }
                        } else {
                            a.copy_from_slice(b);
                        }
                        std::hint::black_box(&a);
                    });
                }
            });
            best = best.min(started.elapsed().as_secs_f64());
        }
        best
    };
    thread_counts
        .iter()
        .map(|&threads| {
            let copy_s = best_of(false, threads);
            let triad_s = best_of(true, threads);
            (2.0 * bytes / copy_s / 1e9, 3.0 * bytes / triad_s / 1e9)
        })
        .collect()
}

/// Seconds the four calibration loops take on the reference host (the 2-core
/// container this benchmark was sized on) when nothing else runs:
/// `[cpu × 1 thread, mem × 1 thread, cpu × all cores, mem × all cores]`.
/// Only their *ratio* to a run's measured loop times matters: it turns every
/// time of the run into "seconds of the undisturbed reference host".
pub const CALIBRATION_REFERENCE_S: [f64; 4] = [2.1e-3, 14.2e-3, 2.27e-3, 14.0e-3];

/// How much slower than the reference this host was during a run, for calls
/// that keep one thread busy (`serial`) and calls that keep every core busy
/// (`parallel`): the geometric mean of the arithmetic and the streaming
/// loop's slowdowns (most engine calls are part one, part the other).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    pub serial: f64,
    pub parallel: f64,
}

impl HostSpeed {
    /// From the typical seconds of the four loops, ordered as
    /// [`CALIBRATION_REFERENCE_S`].
    pub fn from_loops(seconds: [f64; 4]) -> Self {
        let slowdown = |i: usize| seconds[i] / CALIBRATION_REFERENCE_S[i];
        Self {
            serial: (slowdown(0) * slowdown(1)).sqrt(),
            parallel: (slowdown(2) * slowdown(3)).sqrt(),
        }
    }

    /// The factor for a call that is `parallel_share` parallel (0 = one
    /// thread, 1 = every core, 0.5 = half its time each).
    pub fn factor(&self, parallel_share: f64) -> f64 {
        self.serial.powf(1.0 - parallel_share) * self.parallel.powf(parallel_share)
    }
}

/// A fixed amount of work that touches no engine code: a cache-resident
/// multiply-add loop (`cpu`) or a streaming sum over an array far larger than
/// the L2 (`!cpu`), on one thread or on every core at once.  Its time
/// measures the *host's* speed at this moment and nothing else.
pub struct Calibration {
    small: Vec<f64>,
    large: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            small: (0..1 << 15).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect(),
            large: (0..1 << 24).map(|i| (i % 13) as f64).collect(),
        }
    }

    fn work(&self, cpu: bool) {
        let mut acc = 0.0f64;
        if cpu {
            // 256 passes over 256 KiB: stays in the L2.
            for pass in 0..256 {
                let scale = 1.0 + pass as f64 * 1e-9;
                for chunk in self.small.chunks_exact(4) {
                    acc += chunk[0] * scale + chunk[1] * chunk[2] - chunk[3];
                }
            }
        } else {
            // One pass over 128 MiB.
            let mut lanes = [0.0f64; 4];
            for chunk in self.large.chunks_exact(4) {
                for (lane, v) in lanes.iter_mut().zip(chunk) {
                    *lane += v;
                }
            }
            acc = lanes.iter().sum();
        }
        std::hint::black_box(acc);
    }

    /// Runs the loop on `threads` threads at once; returns the seconds until
    /// all are done.
    pub fn run(&self, cpu: bool, threads: usize) -> f64 {
        let started = Instant::now();
        if threads <= 1 {
            self.work(cpu);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| self.work(cpu));
                }
            });
        }
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_longest_mount_prefix_names_the_filesystem() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\ntmpfs /run tmpfs rw 0 0\n";
        assert_eq!(
            filesystem_from_mounts(mounts, Path::new("/root/repo/target")),
            "ext4"
        );
        assert_eq!(
            filesystem_from_mounts(mounts, Path::new("/dev/shm/x")),
            "tmpfs"
        );
        assert_eq!(filesystem_from_mounts("", Path::new("/x")), "unknown");
    }

    #[test]
    fn host_speed_is_one_on_the_reference_and_mixes_by_share() {
        let reference = HostSpeed::from_loops(CALIBRATION_REFERENCE_S);
        assert!((reference.serial - 1.0).abs() < 1e-12 && (reference.parallel - 1.0).abs() < 1e-12);
        let mut slow = CALIBRATION_REFERENCE_S;
        slow[2] *= 4.0; // the all-core arithmetic loop takes four times as long
        let speed = HostSpeed::from_loops(slow);
        assert!((speed.serial - 1.0).abs() < 1e-12);
        assert!((speed.parallel - 2.0).abs() < 1e-12);
        assert!((speed.factor(0.0) - 1.0).abs() < 1e-12);
        assert!((speed.factor(1.0) - 2.0).abs() < 1e-12);
        assert!((speed.factor(0.5) - 2f64.sqrt()).abs() < 1e-12);
        assert!(Calibration::new().run(true, 2) > 0.0);
    }

    #[test]
    fn bandwidth_and_rss_are_positive() {
        let measured = bandwidth(1 << 16, 2, &[1, 2]);
        assert_eq!(measured.len(), 2);
        assert!(measured
            .iter()
            .all(|&(copy, triad)| copy > 0.0 && triad > 0.0));
        assert!(peak_rss_mb() > 0.0);
    }
}
