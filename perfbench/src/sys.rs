//! Resource accounting of the benchmark process: a counting allocator, CPU
//! split into user and sys, RSS, open file descriptors and the fd limit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and its bytes. Install it
/// with `#[global_allocator]` in the binary (and in tests that read the
/// counts); without it the counts stay 0.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics (relaxed atomics that publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One reading of the process's resources, taken at a phase boundary.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was taken.
    pub at: Instant,
    /// User CPU seconds so far.
    pub user_s: f64,
    /// System CPU seconds so far.
    pub sys_s: f64,
    /// Current resident set, MB.
    pub rss_mb: f64,
    /// Peak resident set so far, MB.
    pub peak_rss_mb: f64,
    /// Open file descriptors.
    pub fds: usize,
    /// Allocations so far (0 without [`CountingAlloc`]).
    pub allocs: u64,
    /// Bytes allocated so far.
    pub alloc_bytes: u64,
}

impl Sample {
    /// Read the current process.
    pub fn now() -> Sample {
        let usage = arrow_cluster::procstat::scrape(std::process::id()).unwrap_or_default();
        let ticks = arrow_cluster::procstat::CLOCK_TICKS_PER_SEC as f64;
        Sample {
            at: Instant::now(),
            user_s: usage.utime_ticks as f64 / ticks,
            sys_s: usage.stime_ticks as f64 / ticks,
            rss_mb: usage.rss_kb as f64 / 1024.0,
            peak_rss_mb: usage.peak_rss_kb as f64 / 1024.0,
            fds: open_fds(),
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// CPU seconds (user + sys) so far.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// What happened between two samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// Wall seconds.
    pub wall_s: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Allocations.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
}

impl Delta {
    /// The difference `to - from`.
    pub fn between(from: &Sample, to: &Sample) -> Delta {
        Delta {
            wall_s: to.at.duration_since(from.at).as_secs_f64(),
            user_s: to.user_s - from.user_s,
            sys_s: to.sys_s - from.sys_s,
            allocs: to.allocs - from.allocs,
            alloc_bytes: to.alloc_bytes - from.alloc_bytes,
        }
    }

    /// Accumulate `other` (disjoint intervals).
    pub fn add(&mut self, other: &Delta) {
        self.wall_s += other.wall_s;
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }

    /// CPU seconds (user + sys).
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Share of CPU spent in the kernel (0 when no CPU was used).
    pub fn sys_share(&self) -> f64 {
        let cpu = self.cpu_s();
        if cpu > 0.0 {
            self.sys_s / cpu
        } else {
            0.0
        }
    }
}

/// Samples taken at every phase boundary of a run, in order.
#[derive(Debug, Default)]
pub struct PhaseLog {
    samples: Vec<(String, Sample)>,
}

impl PhaseLog {
    /// Sample now and remember it under `name`.
    pub fn mark(&mut self, name: &str) -> Sample {
        let s = Sample::now();
        self.samples.push((name.to_string(), s));
        s
    }

    /// Highest fd count seen at any boundary.
    pub fn fds_peak(&self) -> usize {
        self.samples.iter().map(|(_, s)| s.fds).max().unwrap_or(0)
    }

    /// One line per boundary, for the run's text report.
    pub fn lines(&self) -> Vec<String> {
        let Some((_, first)) = self.samples.first() else {
            return Vec::new();
        };
        self.samples
            .iter()
            .map(|(name, s)| {
                format!(
                    "phase {name:<24} t={:>8.3}s user={:.2}s sys={:.2}s rss={:.1}MB peak={:.1}MB \
                     fds={} allocs={}",
                    s.at.duration_since(first.at).as_secs_f64(),
                    s.user_s,
                    s.sys_s,
                    s.rss_mb,
                    s.peak_rss_mb,
                    s.fds,
                    s.allocs
                )
            })
            .collect()
    }
}

/// Open file descriptors of this process.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| dir.count())
        .unwrap_or(0)
}

/// The soft `RLIMIT_NOFILE` of this process, from `/proc/self/limits`
/// (`None` when unlimited or unreadable).
pub fn fd_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line["Max open files".len()..]
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Fail up front, with a clear message, when the fd limit cannot hold `need`
/// descriptors (a full mesh that runs out of fds fails mid-run with EMFILE).
pub fn check_fd_limit(need: u64) -> Result<(), String> {
    match fd_limit() {
        Some(limit) if limit < need => Err(format!(
            "RLIMIT_NOFILE is {limit}, but this workload needs {need} file descriptors \
             (raise it with `ulimit -n {need}`)"
        )),
        _ => Ok(()),
    }
}
