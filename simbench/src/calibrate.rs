//! Host-speed calibration of the timing metrics.
//!
//! The measuring host is shared. While other tenants load it, the
//! simulator's CPU time per job and its set-up time rise by 20–65%, and
//! such phases last minutes, longer than one measurement (README.md,
//! "Bounds and noise"). A fixed reference computation, timed again and
//! again through the measurement window, reads how fast the host runs at
//! the time, and the timing metrics are scaled by it to the speed of a
//! quiet host. The computation lives here, in the benchmark, and the
//! benchmark builds as a package of its own, so no change to the simulator
//! or to the repository's build settings can move it.

use std::collections::HashMap;
use std::hint::black_box;

use crate::meter;

/// CPU seconds of one [`sample`] that the timing metrics are scaled to:
/// a calibrated time reads as if a sample had taken this long. It sets
/// the scale only; comparisons between runs do not depend on it. Set
/// near the sample's time on a quiet 2-vCPU Intel Xeon VM.
pub const QUIET_REF_SECS: f64 = 0.010;

/// Words the reference prompts are built from.
const WORDS: [&str; 16] = [
    "a",
    "portrait",
    "of",
    "castle",
    "under",
    "neon",
    "light",
    "watercolor",
    "dog",
    "in",
    "the",
    "style",
    "mountain",
    "sunset",
    "highly",
    "detailed",
];

/// A fixed mix of the kinds of work the simulator does, on working sets
/// of its size: building and hashing prompt strings, dense dot products
/// and gradient steps over feature vectors, hash-map bookkeeping and
/// sorting.
fn reference_work() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Prompts and their FNV-1a hashes.
    let prompts: Vec<String> = (0..2_000)
        .map(|_| {
            let mut p = String::new();
            for _ in 0..12 {
                p.push_str(WORDS[(next() % 16) as usize]);
                p.push(' ');
            }
            p
        })
        .collect();
    let hashes: Vec<u64> = prompts
        .iter()
        .map(|p| {
            p.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
        })
        .collect();
    // Feature vectors and a few epochs of a linear model's gradient steps.
    const DIM: usize = 64;
    let features: Vec<f64> = (0..2_000 * DIM)
        .map(|_| (next() % 1_000) as f64 / 1_000.0)
        .collect();
    let mut w = [0.0f64; DIM];
    for _ in 0..4 {
        for (row, &h) in features.chunks_exact(DIM).zip(&hashes) {
            let target = (h % 2) as f64;
            let y: f64 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
            let g = 0.01 * (y - target);
            for (wi, a) in w.iter_mut().zip(row) {
                *wi -= g * a;
            }
        }
    }
    // Bookkeeping: a map from hash to index, then lookups.
    let index: HashMap<u64, usize> = hashes.iter().enumerate().map(|(i, &h)| (h, i)).collect();
    let mut hits = 0usize;
    for _ in 0..20_000 {
        let h = hashes[(next() % hashes.len() as u64) as usize];
        hits += index.get(&h).copied().unwrap_or(0);
    }
    // Sorting a queue-sized array.
    let mut v: Vec<u64> = (0..32_768).map(|_| next()).collect();
    v.sort_unstable();
    v[v.len() / 2] ^ hits as u64 ^ w.iter().sum::<f64>().to_bits()
}

/// One calibration sample: CPU seconds five reference computations take
/// on the calling thread now, or `None` without a thread CPU clock.
pub fn sample() -> Option<f64> {
    let start = meter::thread_cpu_secs()?;
    for _ in 0..5 {
        black_box(reference_work());
    }
    Some(meter::thread_cpu_secs()? - start)
}
