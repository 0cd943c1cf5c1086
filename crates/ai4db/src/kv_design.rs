//! Learned key-value store design (E9) — design continuums / data
//! structure alchemy (Idreos et al.).
//!
//! "They define the design space by the fundamental design components …
//! To design a data structure, they first identify the bottleneck of the
//! total cost and then tweak different knobs in one direction until
//! reaching the cost boundary or the total cost is minimal, which is
//! similar to the gradient descent procedure."
//!
//! We implement exactly that: a parametric storage-design space whose
//! extreme points are the classic structures (B-tree, LSM-tree, hash
//! table, sorted array), an analytic I/O cost model over a workload
//! (point reads / writes / range scans), and the bottleneck-driven
//! coordinate-descent search. The experiment sweeps the read/write mix
//! and shows the searched design matching or beating every fixed design
//! everywhere, with crossovers where the literature puts them.

use aimdb_common::{AimError, Result};

/// A point in the storage design space.
///
/// Knobs (continuous, following the design-continuum formulation):
/// - `merge_levels`: 0 = in-place (B-tree-like); higher = more LSM-like
///   lazy merging (cheap writes, read amplification).
/// - `fence_density`: fraction of blocks with fence pointers (0 = scan,
///   1 = full index; more fences = faster point reads, more memory).
/// - `hash_fraction`: fraction of point-read traffic served by a hash
///   directory (O(1) reads, useless for ranges, memory cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Design {
    pub merge_levels: f64,
    pub fence_density: f64,
    pub hash_fraction: f64,
}

impl Design {
    pub fn btree() -> Design {
        Design {
            merge_levels: 0.0,
            fence_density: 1.0,
            hash_fraction: 0.0,
        }
    }

    pub fn lsm() -> Design {
        // real LSM runs carry full fence pointers / per-run indexes
        Design {
            merge_levels: 4.0,
            fence_density: 1.0,
            hash_fraction: 0.0,
        }
    }

    pub fn hash() -> Design {
        Design {
            merge_levels: 0.0,
            fence_density: 0.2,
            hash_fraction: 1.0,
        }
    }

    pub fn sorted_array() -> Design {
        Design {
            merge_levels: 0.0,
            fence_density: 0.0,
            hash_fraction: 0.0,
        }
    }

    fn clamp(mut self) -> Design {
        self.merge_levels = self.merge_levels.clamp(0.0, 8.0);
        self.fence_density = self.fence_density.clamp(0.0, 1.0);
        self.hash_fraction = self.hash_fraction.clamp(0.0, 1.0);
        self
    }
}

/// Workload mix (fractions sum to 1) over `n` keys.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub point_reads: f64,
    pub writes: f64,
    pub range_scans: f64,
    pub n_keys: f64,
}

impl Workload {
    pub fn mix(read_frac: f64, scan_frac: f64, n_keys: f64) -> Workload {
        let read_frac = read_frac.clamp(0.0, 1.0);
        let scan_frac = scan_frac.clamp(0.0, 1.0 - read_frac);
        Workload {
            point_reads: read_frac,
            range_scans: scan_frac,
            writes: 1.0 - read_frac - scan_frac,
            n_keys,
        }
    }
}

/// Per-component workload costs (expected I/Os weighted by the mix).
/// The shape follows the RUM/design-continuum trade-offs:
/// - buffered merging divides write cost by the merge depth (an LSM write
///   is ~1/B of a B-tree's read-modify-write) but adds per-level read and
///   scan amplification;
/// - fence pointers turn O(log n) block probes into nearly O(1) for point
///   reads, at a memory rent;
/// - a hash directory short-circuits point reads, does nothing for
///   ranges, must be maintained by writes, and rents the most memory.
fn components(d: &Design, w: &Workload) -> (f64, f64, f64, f64) {
    let n = w.n_keys.max(2.0);
    let log_n = n.log2();
    let fenced = 1.0 + log_n * (1.0 - 0.85 * d.fence_density);
    let sorted_read = (1.0 + 0.6 * d.merge_levels) * fenced;
    let point_unit = d.hash_fraction * 1.2 + (1.0 - d.hash_fraction) * sorted_read;
    let inplace_write = 2.0 + log_n * (1.0 - 0.8 * d.fence_density);
    let write_unit =
        inplace_write / (1.0 + 3.0 * d.merge_levels) + 0.2 * d.merge_levels + 2.0 * d.hash_fraction;
    let scan_unit = (1.0 + d.merge_levels) * (2.0 + 0.1 * log_n) + 1.5 * d.hash_fraction;
    let memory = 0.3 * d.fence_density + 0.6 * d.hash_fraction;
    (
        w.point_reads * point_unit,
        w.writes * write_unit,
        w.range_scans * scan_unit,
        memory,
    )
}

/// Total cost (expected I/Os per operation) of running `w` on design `d`.
pub fn cost(d: &Design, w: &Workload) -> f64 {
    let (p, wr, s, m) = components(d, w);
    p + wr + s + m
}

/// Identify the bottleneck (which workload component pays the most) —
/// the alchemy loop's "find the bottleneck" step. Returns (component
/// name, its share of total cost).
pub fn bottleneck(d: &Design, w: &Workload) -> (&'static str, f64) {
    let (point, write, scan, _) = components(d, w);
    let total = (point + write + scan).max(1e-12);
    let mut parts = [
        ("point_reads", point),
        ("writes", write),
        ("range_scans", scan),
    ];
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    (parts[0].0, parts[0].1 / total)
}

/// The self-design search: coordinate descent over the knob space,
/// nudging one knob at a time in the direction that reduces total cost,
/// with step-size halving — the "gradient descent procedure" of the
/// data-structure-alchemy description.
pub fn search_design(
    w: &Workload,
    start: Design,
    max_iters: usize,
) -> Result<(Design, f64, usize)> {
    let mut d = start.clamp();
    let mut best = cost(&d, w);
    let mut evals = 1;
    let mut steps = [1.0, 0.25, 0.25]; // per-knob step sizes
    for _ in 0..max_iters {
        let mut improved = false;
        for knob in 0..3 {
            for dir in [1.0, -1.0] {
                let mut cand = d;
                match knob {
                    0 => cand.merge_levels += dir * steps[0],
                    1 => cand.fence_density += dir * steps[1],
                    _ => cand.hash_fraction += dir * steps[2],
                }
                let cand = cand.clamp();
                let c = cost(&cand, w);
                evals += 1;
                if c < best - 1e-9 {
                    d = cand;
                    best = c;
                    improved = true;
                }
            }
        }
        if !improved {
            // halve steps; stop when they're all tiny
            for s in steps.iter_mut() {
                *s /= 2.0;
            }
            if steps.iter().all(|&s| s < 1e-3) {
                break;
            }
        }
    }
    Ok((d, best, evals))
}

/// Fixed designs compared in the sweep.
pub fn fixed_designs() -> Vec<(&'static str, Design)> {
    vec![
        ("btree", Design::btree()),
        ("lsm", Design::lsm()),
        ("hash", Design::hash()),
        ("sorted-array", Design::sorted_array()),
    ]
}

/// One row of the E9 sweep: read fraction → cost of each fixed design +
/// the searched design.
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub read_frac: f64,
    pub fixed: Vec<(&'static str, f64)>,
    pub searched: f64,
    pub searched_design: Design,
}

/// Sweep the read/write mix (with a fixed scan fraction).
pub fn sweep(scan_frac: f64, n_keys: f64, points: usize) -> Result<Vec<SweepRow>> {
    (0..points)
        .map(|i| {
            let read_frac = (1.0 - scan_frac) * i as f64 / (points - 1).max(1) as f64;
            let w = Workload::mix(read_frac, scan_frac, n_keys);
            let fixed = fixed_designs()
                .into_iter()
                .map(|(name, d)| (name, cost(&d, &w)))
                .collect();
            // multi-start: from each classic design, keep the best
            let mut best: Option<(Design, f64)> = None;
            for (_, start) in fixed_designs() {
                let (d, c, _) = search_design(&w, start, 200)?;
                if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    best = Some((d, c));
                }
            }
            let (searched_design, searched) = best
                .ok_or_else(|| AimError::InvalidInput("no fixed designs to start from".into()))?;
            Ok(SweepRow {
                read_frac,
                fixed,
                searched,
                searched_design,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: f64 = 1e7;

    #[test]
    fn classic_tradeoffs_hold() {
        // write-heavy: LSM beats B-tree
        let w = Workload::mix(0.1, 0.0, N);
        assert!(cost(&Design::lsm(), &w) < cost(&Design::btree(), &w));
        // read-heavy point workload: hash beats LSM
        let r = Workload::mix(0.95, 0.0, N);
        assert!(cost(&Design::hash(), &r) < cost(&Design::lsm(), &r));
        // scan-heavy: hash is bad, few levels good
        let s = Workload::mix(0.1, 0.8, N);
        assert!(cost(&Design::btree(), &s) < cost(&Design::hash(), &s));
        assert!(cost(&Design::btree(), &s) < cost(&Design::lsm(), &s));
    }

    #[test]
    fn bottleneck_identifies_dominant_component() {
        let w = Workload::mix(0.05, 0.0, N); // 95% writes
        let (name, share) = bottleneck(&Design::btree(), &w);
        assert_eq!(name, "writes");
        assert!(share > 0.5);
        let r = Workload::mix(0.95, 0.0, N);
        let (name, _) = bottleneck(&Design::sorted_array(), &r);
        assert_eq!(name, "point_reads");
    }

    #[test]
    fn search_dominates_every_fixed_design() {
        for read_frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for scan_frac in [0.0, 0.2] {
                let w = Workload::mix(read_frac * (1.0 - scan_frac), scan_frac, N);
                let mut best_fixed = f64::INFINITY;
                let mut searched = f64::INFINITY;
                for (_, d) in fixed_designs() {
                    best_fixed = best_fixed.min(cost(&d, &w));
                    let (_, c, _) = search_design(&w, d, 200).unwrap();
                    searched = searched.min(c);
                }
                assert!(
                    searched <= best_fixed + 1e-9,
                    "read={read_frac} scan={scan_frac}: searched {searched} vs fixed {best_fixed}"
                );
            }
        }
    }

    #[test]
    fn search_strictly_beats_fixed_somewhere() {
        // mixed workloads live between the extreme designs
        let w = Workload::mix(0.45, 0.1, N);
        let mut best_fixed = f64::INFINITY;
        for (_, d) in fixed_designs() {
            best_fixed = best_fixed.min(cost(&d, &w));
        }
        let mut searched = f64::INFINITY;
        for (_, d) in fixed_designs() {
            let (_, c, _) = search_design(&w, d, 300).unwrap();
            searched = searched.min(c);
        }
        assert!(
            searched < best_fixed * 0.98,
            "searched {searched} vs best fixed {best_fixed}"
        );
    }

    #[test]
    fn sweep_shows_crossovers() {
        let rows = sweep(0.0, N, 11).unwrap();
        let at = |row: &SweepRow, name: &str| row.fixed.iter().find(|(n, _)| *n == name).unwrap().1;
        // write end: lsm < hash; read end: hash < lsm → a crossover exists
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(at(first, "lsm") < at(first, "hash"));
        assert!(at(last, "hash") < at(last, "lsm"));
        // searched design always at or below the fixed envelope
        for row in &rows {
            let envelope = row
                .fixed
                .iter()
                .map(|(_, c)| *c)
                .fold(f64::INFINITY, f64::min);
            assert!(row.searched <= envelope + 1e-9, "at read={}", row.read_frac);
        }
    }

    #[test]
    fn searched_knobs_move_with_the_workload() {
        // write-heavy → higher merge_levels than scan-heavy (scans pay
        // per-level merge amplification, so the search flattens the tree)
        let (dw, _, _) = search_design(&Workload::mix(0.05, 0.0, N), Design::btree(), 300).unwrap();
        let (ds, _, _) = search_design(&Workload::mix(0.1, 0.8, N), Design::lsm(), 300).unwrap();
        assert!(
            dw.merge_levels > ds.merge_levels,
            "write-heavy {dw:?} vs scan-heavy {ds:?}"
        );
        // read-heavy point workload → the search reaches for the hash path
        let (dr, _, _) = search_design(&Workload::mix(0.95, 0.0, N), Design::btree(), 300).unwrap();
        assert!(dr.hash_fraction > 0.5, "read-heavy {dr:?}");
    }
}
