//! Scaling timings to a reference machine speed.
//!
//! The machines this benchmark runs on share their CPUs with other tenants,
//! and their speed moves in phases that last from seconds to minutes. On
//! the 2-vCPU VM the benchmark was tuned on, the same job's median over a
//! 30-second run moved by 12–20% between runs (quartile spread over 10
//! runs), and set-up by up to 36%: a whole run can fall in a fast or a slow
//! phase, so no statistic over one run's raw times is steady.
//!
//! So every timing is taken between two runs of a fixed *calibration
//! kernel* (sorting, hashing, floating point and number formatting, about
//! 5 ms on that VM) and scaled by `REFERENCE_S / kernel time`, the mean of
//! the kernel timings just before and just after it. A phase that slows
//! the machine slows the kernel alike and cancels out; a change to the
//! program does not touch the kernel and shows in full. The scaled figure
//! is the time the timed work would take on a machine that runs the kernel
//! in exactly `REFERENCE_S`. Raw medians are printed beside them.
//!
//! The kernel must not depend on what the program did before it, or a
//! change to the program's memory use would move the factor. So it never
//! allocates: its input and every buffer it writes are allocated once, in
//! [`Speed::new`], and reused. And each timing is preceded by one untimed
//! pass over the same buffers, so the timed pass finds them in the caches
//! whatever the job before it evicted. `--kernel-check` measures how far
//! the kernel time still moves with the work that precedes it.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::workload::derive;

/// Kernel time of the reference machine: scaled timings are in seconds of
/// a machine that runs the kernel in exactly this long.
pub const REFERENCE_S: f64 = 0.005;

/// Keys the kernel sorts and hashes.
const KEYS: usize = 40_000;
/// Open-addressing slots: a power of two, well above `KEYS`.
const SLOTS: usize = 1 << 17;
/// Keys the kernel formats as text.
const FORMATTED: usize = 10_000;
/// Passes one timing spans.
const PASSES: usize = 2;

/// The calibration kernel and every buffer it uses.
struct Kernel {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    slots: Vec<u64>,
    text: String,
}

impl Kernel {
    fn new() -> Self {
        Self {
            keys: (0..KEYS as u64).map(|i| derive(i, 7)).collect(),
            sorted: vec![0; KEYS],
            slots: vec![0; SLOTS],
            // "item" + at most 20 digits + ";" per key: never grows.
            text: String::with_capacity(FORMATTED * 25),
        }
    }

    /// One pass of the kernel; returns a checksum so no step is optimised
    /// away.
    fn pass(&mut self) -> u64 {
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();

        self.slots.fill(0);
        let mask = SLOTS - 1;
        let mut distinct = 0u64;
        for &x in &self.sorted {
            // Keys are never 0, which marks an empty slot.
            let key = (x >> 20) | 1;
            let mut i = derive(key, 0) as usize & mask;
            while self.slots[i] != key {
                if self.slots[i] == 0 {
                    self.slots[i] = key;
                    distinct += 1;
                    break;
                }
                i = (i + 1) & mask;
            }
        }

        let logs: f64 = self
            .sorted
            .iter()
            .map(|x| (((x & 0xffff) + 1) as f64).ln())
            .sum();

        self.text.clear();
        for x in &self.sorted[..FORMATTED] {
            // Within capacity, so this never allocates.
            let _ = write!(self.text, "item{x};");
        }
        distinct ^ logs.to_bits() ^ self.text.len() as u64
    }

    /// Times `PASSES` passes after an untimed one over the same buffers,
    /// in seconds.
    fn time_s(&mut self) -> f64 {
        black_box(self.pass());
        let start = Instant::now();
        for _ in 0..PASSES {
            black_box(self.pass());
        }
        start.elapsed().as_secs_f64()
    }
}

/// The machine's speed, re-measured between consecutive timings.
pub struct Speed {
    kernel: Kernel,
    last_s: f64,
    kernel_samples: Vec<f64>,
}

impl Speed {
    /// Allocates the kernel and times it once to open the first interval.
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        let last_s = kernel.time_s();
        Self {
            kernel,
            last_s,
            kernel_samples: vec![last_s],
        }
    }

    /// Times the kernel once, in seconds, without closing an interval.
    pub fn kernel_s(&mut self) -> f64 {
        self.kernel.time_s()
    }

    /// Closes the interval since the previous call: times the kernel again
    /// and returns the factor that scales a timing taken in the interval to
    /// reference speed.
    pub fn factor(&mut self) -> f64 {
        let now_s = self.kernel.time_s();
        let factor = REFERENCE_S / ((self.last_s + now_s) / 2.0);
        self.last_s = now_s;
        self.kernel_samples.push(now_s);
        factor
    }

    /// Every kernel time measured by `new` and `factor`, in seconds.
    pub fn kernel_samples(&self) -> &[f64] {
        &self.kernel_samples
    }
}
