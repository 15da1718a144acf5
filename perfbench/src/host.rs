//! Host-speed probe.
//!
//! The small shared hosts this benchmark runs on change speed by up to
//! ±25% over seconds to minutes, as neighbouring machines contend for the
//! shared cache and memory. A run's wall time alone then says as much
//! about the neighbours as about the code. The probe times a fixed amount
//! of cache-bound work right before and right after each timed run. The
//! end-to-end times are scaled by [`NOMINAL_S`] over the probe time, which
//! reports them at one nominal host speed.
//!
//! Of the probes tried (an L1-resident integer loop, this cache-sized
//! table, a 16 MiB sort with a random walk, and their sum), this one
//! tracked the run times of all four workloads best.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time at the nominal host speed: its typical time on a
/// 2-vCPU Intel Xeon host.
pub const NOMINAL_S: f64 = 0.05;

/// Table entries: 2 MiB of `u32`, larger than a core's private caches
/// and smaller than the shared one.
const TABLE: usize = 1 << 19;

/// Pseudo-random read-modify-writes per probe.
const UPDATES: u32 = 12 << 20;

/// The probe's table. It is allocated once, before any workload runs, so
/// the allocator state a workload leaves behind (heap layout, huge-page
/// backing) cannot change how fast the probe runs.
pub struct Probe {
    table: Vec<u32>,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            table: vec![0; TABLE],
        }
    }

    /// Times one probe, in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        for (i, t) in self.table.iter_mut().enumerate() {
            *t = i as u32;
        }
        let mut j = 0u64;
        for k in 0..UPDATES {
            j = (j
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(k))
                >> 7)
                & (TABLE as u64 - 1);
            self.table[j as usize] = self.table[j as usize].wrapping_add(k);
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}
