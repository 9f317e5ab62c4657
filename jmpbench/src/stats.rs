//! Small numeric helpers: a seeded generator, percentiles, the same-run OS
//! floor, and the process's peak resident memory.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// SplitMix64: a seeded, dependency-free generator. Every input the
/// benchmark hands the runtime is drawn from one of these.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// A generator for one named stream of `seed`, so adding a draw to one
    /// stream never shifts the inputs of another.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next_u64() % items.len() as u64) as usize]
    }
}

/// The `q` quantile (0..=1) of `values` by the nearest-rank rule; 0 when
/// there are no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median one-way hand-off between two bare `std::thread`s over a
/// `Mutex` + `Condvar`, in µs: what the host charges for the wake-ups every
/// blocking step of an operation is built from.
pub fn floor_handoff_us(rounds: usize) -> f64 {
    let turn = Arc::new((Mutex::new(0usize), Condvar::new()));
    let peer_turn = Arc::clone(&turn);
    let peer = std::thread::spawn(move || {
        let (lock, cv) = &*peer_turn;
        for i in 0..rounds {
            let mut n = lock.lock().expect("floor mutex is never poisoned");
            while *n != 2 * i + 1 {
                n = cv.wait(n).expect("floor mutex is never poisoned");
            }
            *n += 1;
            cv.notify_one();
        }
    });
    let (lock, cv) = &*turn;
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let start = Instant::now();
        let mut n = lock.lock().expect("floor mutex is never poisoned");
        *n += 1;
        cv.notify_one();
        while *n != 2 * i + 2 {
            n = cv.wait(n).expect("floor mutex is never poisoned");
        }
        drop(n);
        // A round trip is two hand-offs.
        samples.push(start.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    peer.join().expect("floor peer thread does not panic");
    median(&samples)
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each run of
/// the benchmark is one process driving one workload, so the peak is that
/// workload's alone.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_by_name() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "a").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, "a").next_u64(),
            Rng::stream(7, "b").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "a").next_u64(),
            Rng::stream(8, "a").next_u64()
        );
    }
}
