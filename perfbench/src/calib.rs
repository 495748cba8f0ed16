//! Host-speed calibration.
//!
//! The machine this benchmark runs on shares its cores with other tenants,
//! and the speed it gives one run can differ from the next by a quarter or
//! more for the whole run. A fixed loop of heap and hash-map work — standard
//! library code only, so no change to this repository moves it — is timed
//! between rounds of every workload; its median gives the host's speed during
//! the run relative to a reference, and the end-to-end timings of the
//! single-threaded workloads (`sim`, `analysis`) are reported at that
//! reference speed. On this machine the loop tracked the simulator's run time
//! to within ±3% while both moved by ±15% between runs. It tracks
//! `compress_schedule` less closely: over 37 windows of 15 s, the spread
//! (distance between quartiles over the median) of `compress_schedule`'s time
//! was 0.18, and of its ratio to the loop's time 0.09. Loops of matrix scans,
//! of fresh 8 MB allocations, or a small copy of `compress_schedule` itself
//! tracked it no better.

use crate::median;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The loop's time on a host of reference speed (seconds).
pub const REFERENCE_S: f64 = 0.005;

/// Keys the loop pushes through a heap and a hash map.
const KEYS: usize = 40_000;

/// Run the calibration loop once; returns its wall seconds.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut heap = BinaryHeap::with_capacity(KEYS);
    let mut map = HashMap::with_capacity(KEYS);
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x));
        map.insert(x, i);
    }
    let mut acc = 0usize;
    while let Some(Reverse(k)) = heap.pop() {
        acc ^= map[&k];
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

thread_local! {
    static SAMPLES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Forget this thread's samples (at the start of a run).
pub fn reset() {
    SAMPLES.with(|s| s.borrow_mut().clear());
}

/// Time the loop once more; workloads call this between rounds.
pub fn sample() {
    let t = calibrate();
    SAMPLES.with(|s| s.borrow_mut().push(t));
}

/// Median loop time of this run (seconds), and the number of samples.
pub fn median_s() -> (f64, usize) {
    SAMPLES.with(|s| {
        let s = s.borrow();
        (median(&s), s.len())
    })
}

/// Host speed relative to the reference (above 1: faster), from the median
/// sample; 1 before any sample.
pub fn speed() -> f64 {
    match median_s() {
        (_, 0) => 1.0,
        (m, _) => REFERENCE_S / m,
    }
}
