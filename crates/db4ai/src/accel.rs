//! Hardware acceleration for in-database training (DAnA / ColumnML).
//!
//! The paper's substrate is an FPGA wired to the buffer pool; we cannot
//! fabricate one, so per DESIGN.md the substitution is a *simulated
//! accelerator with an explicit cost model* — fixed offload latency +
//! per-byte transfer cost + a throughput multiplier — because the
//! decision DAnA automates is exactly a cost-model crossover ("is this
//! batch big enough to be worth shipping to the device?"). The host side
//! also gets DAnA's thread-level parallelism via scoped threads.

use aimdb_common::{AimError, Result};
use aimdb_ml::matrix::Matrix;

/// The simulated device's cost parameters (cost units ≈ microseconds).
#[derive(Debug, Clone, Copy)]
pub struct Accelerator {
    /// Fixed kernel-launch / setup latency per offload.
    pub launch_cost: f64,
    /// Transfer cost per matrix element (both directions folded in).
    pub transfer_per_elem: f64,
    /// Compute speed relative to one host core (>1 = faster).
    pub speedup: f64,
}

impl Accelerator {
    /// A DAnA-ish FPGA profile: expensive to reach, fast once there.
    pub fn fpga() -> Accelerator {
        Accelerator {
            launch_cost: 5_000.0,
            transfer_per_elem: 0.02,
            speedup: 16.0,
        }
    }
}

/// Host compute cost for a (m×k)·(k×n) matmul: one unit per MAC.
pub fn host_cost(m: usize, k: usize, n: usize, threads: usize) -> f64 {
    let macs = (m * k * n) as f64;
    // parallel efficiency 85%
    macs / (1.0 + 0.85 * (threads.saturating_sub(1)) as f64)
}

/// Device cost for the same matmul including transfers.
pub fn device_cost(acc: &Accelerator, m: usize, k: usize, n: usize) -> f64 {
    let macs = (m * k * n) as f64;
    let elems = (m * k + k * n + m * n) as f64;
    acc.launch_cost + acc.transfer_per_elem * elems + macs / acc.speedup
}

/// The offload decision DAnA's planner makes: run where predicted cost is
/// lower. Returns (use_device, predicted_host, predicted_device).
pub fn should_offload(
    acc: &Accelerator,
    m: usize,
    k: usize,
    n: usize,
    host_threads: usize,
) -> (bool, f64, f64) {
    let h = host_cost(m, k, n, host_threads);
    let d = device_cost(acc, m, k, n);
    (d < h, h, d)
}

/// The smallest square batch size at which offloading wins (the
/// crossover point of the E15 sweep).
pub fn crossover_batch(acc: &Accelerator, k: usize, host_threads: usize) -> Option<usize> {
    (1..=4096).find(|&m| should_offload(acc, m, k, m, host_threads).0)
}

/// Host matmul parallelized over row chunks on scoped threads — the
/// "thread-level parallelism" half of DAnA's execution model.
pub fn parallel_matmul(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(AimError::InvalidInput(format!(
            "matmul shape mismatch: {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let threads = threads.max(1);
    let rows = a.rows();
    let chunk = rows.div_ceil(threads);
    let out = std::sync::Mutex::new(Matrix::zeros(rows, b.cols()));
    let joined = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let out = &out;
                s.spawn(move || {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(rows);
                    for i in lo..hi {
                        let mut row = vec![0.0; b.cols()];
                        for k in 0..a.cols() {
                            let av = a.get(i, k);
                            if av == 0.0 {
                                continue;
                            }
                            for (j, r) in row.iter_mut().enumerate() {
                                *r += av * b.get(k, j);
                            }
                        }
                        // a poisoned lock means a sibling panicked; the
                        // join below surfaces that as an Execution error
                        if let Ok(mut guard) = out.lock() {
                            for (j, v) in row.into_iter().enumerate() {
                                guard.set(i, j, v);
                            }
                        }
                    }
                })
            })
            .collect();
        // join every handle, so a worker panic is an error, not a panic
        let mut ok = true;
        for h in handles {
            ok &= h.join().is_ok();
        }
        ok
    });
    if !joined {
        return Err(AimError::Execution("matmul worker panicked".into()));
    }
    out.into_inner()
        .map_err(|_| AimError::Execution("matmul result lock poisoned".into()))
}

/// One row of the E15 accelerator sweep.
#[derive(Debug, Clone)]
pub struct AccelRow {
    pub batch: usize,
    pub host_1t: f64,
    pub host_4t: f64,
    pub device: f64,
    pub offloaded: bool,
}

/// Sweep batch sizes for a fixed feature width `k`.
pub fn sweep(acc: &Accelerator, k: usize, batches: &[usize]) -> Vec<AccelRow> {
    batches
        .iter()
        .map(|&m| {
            let (offloaded, _, device) = should_offload(acc, m, k, m.min(64), 4);
            AccelRow {
                batch: m,
                host_1t: host_cost(m, k, m.min(64), 1),
                host_4t: host_cost(m, k, m.min(64), 4),
                device,
                offloaded,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_stay_on_host_large_offload() {
        let acc = Accelerator::fpga();
        let (off_small, _, _) = should_offload(&acc, 8, 16, 8, 4);
        assert!(!off_small, "tiny batch must not pay the launch cost");
        let (off_big, h, d) = should_offload(&acc, 2048, 64, 64, 4);
        assert!(off_big, "big batch should offload: host {h} device {d}");
    }

    #[test]
    fn crossover_exists_and_moves_with_host_threads() {
        let acc = Accelerator::fpga();
        let x1 = crossover_batch(&acc, 64, 1).expect("crossover with 1 thread");
        let x4 = crossover_batch(&acc, 64, 4).expect("crossover with 4 threads");
        // a faster host pushes the crossover to larger batches
        assert!(x4 >= x1, "crossover 1t={x1} 4t={x4}");
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        let a = Matrix::from_rows(
            &(0..37)
                .map(|i| (0..23).map(|j| (i * 31 + j * 7) as f64 * 0.01).collect())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let b = Matrix::from_rows(
            &(0..23)
                .map(|i| (0..19).map(|j| (i + j) as f64 * 0.1 - 1.0).collect())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let serial = a.matmul(&b).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = parallel_matmul(&a, &b, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
        assert!(parallel_matmul(&a, &a, 2).is_err()); // shape check
    }

    #[test]
    fn sweep_is_monotone_in_the_right_places() {
        let acc = Accelerator::fpga();
        let rows = sweep(&acc, 64, &[8, 64, 512, 2048]);
        // host cost grows with batch; 4 threads beat 1 thread
        assert!(rows.windows(2).all(|w| w[1].host_1t > w[0].host_1t));
        for r in &rows {
            assert!(r.host_4t < r.host_1t);
        }
        // offload flag flips exactly once from false to true
        let flips: Vec<bool> = rows.iter().map(|r| r.offloaded).collect();
        assert!(!flips[0] && *flips.last().unwrap(), "{flips:?}");
    }
}
