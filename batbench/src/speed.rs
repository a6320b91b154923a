//! Host speed, so that host times taken in a shared machine's slow and
//! fast phases can be compared.
//!
//! On a host shared with other tenants, one run's wall time drifts by 20 %
//! or more over minutes as the neighbours load the caches, the memory and
//! the cores. Before each timed unit the benchmark therefore times a fixed
//! kernel that uses no simulator code: independent random reads over a
//! 64 MB table, then a dependent integer chain. Each timed unit is scaled
//! by [`REFERENCE_S`] over the kernel time taken just before it, and the
//! set-up times by [`REFERENCE_S`] over the median kernel time of the
//! process: all are reported in seconds at a reference host speed.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's time on the reference host (a quiet phase of a 2-core
/// Xeon guest), as the geometric mean of its two parts.
pub const REFERENCE_S: f64 = 0.0165;

const TABLE_WORDS: usize = 8 << 20;
const READS: u32 = 1 << 20;
const CHAIN: u64 = 10_000_000;

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()
    })
}

/// One kernel run on this thread: the geometric mean of the read part's
/// and the chain part's seconds.
fn kernel() -> f64 {
    let t = table();
    let start = Instant::now();
    let (mut x, mut sum) = (1u64, 0u64);
    for _ in 0..READS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        sum = sum.wrapping_add(t[(x >> 40) as usize % TABLE_WORDS]);
    }
    black_box(sum);
    let reads = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut h = 0u64;
    for i in 0..CHAIN {
        h = (h ^ i).wrapping_mul(0x0100_0000_01b3);
        if h & 7 == 3 {
            h = h.rotate_left(5);
        }
    }
    black_box(h);
    (reads * start.elapsed().as_secs_f64()).sqrt()
}

/// The kernel's time with `threads` copies running at once (one per
/// worker the timed unit uses), averaged over the copies.
pub fn measure(threads: usize) -> f64 {
    table();
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(kernel)).collect();
        handles.into_iter().map(|h| h.join().expect("speed kernel panicked")).collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}
