//! A fixed reference kernel that measures how fast the host is right now.
//!
//! On a shared VM the host's speed drifts by up to 1.5× over seconds (other
//! tenants on the same cores and caches), far more than the bounds the
//! benchmark wants to resolve. The bare run therefore times this kernel
//! right before and after every repetition and scales the repetition's
//! rate to [`NOMINAL_S`], the kernel's time on the host the recorded numbers
//! come from. The kernel is standard-library code only — sorting, B-tree
//! inserts and removes, `ln` — so no change to the simulator can move it,
//! and it keeps its working set small (~150 KiB) so it barely touches
//! `peak_rss_mib`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median time of [`time`] on a quiet moment of the recording host
/// (2-vCPU Intel Xeon VM), seconds.
pub const NOMINAL_S: f64 = 0.0042;

/// Run the kernel once and return how long it took, seconds.
pub fn time() -> f64 {
    const ROUNDS: usize = 4;
    const N: u64 = 8192;
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys = Vec::with_capacity(N as usize);
    let mut map = BTreeMap::new();
    let mut acc = 0.0f64;
    for _ in 0..ROUNDS {
        keys.clear();
        keys.extend((0..N).map(|_| next()));
        keys.sort_unstable();
        for i in 0..N / 2 {
            map.insert(next() % N, i);
        }
        for _ in 0..N / 2 {
            map.remove(&(next() % N));
        }
        for i in 1..N {
            acc += (i as f64).ln();
        }
    }
    black_box((keys[N as usize / 3], map.len(), acc));
    start.elapsed().as_secs_f64()
}
