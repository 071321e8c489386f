//! The eleven numbers the paper publishes that the reproduction is held
//! against. They live here, in the benchmark, not in the code under test:
//! the gap is measured against a reference the simulator cannot move.

/// Geometric-mean improvement of Hurricane-1 Mult over one dedicated
/// protocol processor per node, 4 x 16-way SMPs (the abstract's "2.6").
pub const HEADLINE_GEOMEAN: f64 = 2.6;

/// Table 2: S-COMA speedups on 8 x 8-way SMPs, in the paper's order.
pub const TABLE2_SCOMA_SPEEDUP: [(&str, f64); 7] = [
    ("barnes", 31.0),
    ("cholesky", 5.0),
    ("em3d", 34.0),
    ("fft", 19.0),
    ("fmm", 31.0),
    ("radix", 12.0),
    ("water-sp", 61.0),
];

/// Table 1: total remote read miss latency in 400 MHz cycles for S-COMA,
/// Hurricane and Hurricane-1.
pub const TABLE1_TOTAL_CYCLES: [f64; 3] = [440.0, 584.0, 1164.0];

/// Mean of `|reproduced / published - 1|` over the eleven numbers, in
/// percent. `reproduced` is `(headline, table 2 in order, table 1 in order)`.
pub fn gap_pct(headline: f64, table2: &[f64], table1: &[f64]) -> f64 {
    let pairs = std::iter::once((headline, HEADLINE_GEOMEAN))
        .chain(
            table2
                .iter()
                .copied()
                .zip(TABLE2_SCOMA_SPEEDUP.iter().map(|p| p.1)),
        )
        .chain(table1.iter().copied().zip(TABLE1_TOTAL_CYCLES));
    let (sum, count) = pairs.fold((0.0, 0usize), |(sum, count), (got, want)| {
        (sum + (got / want - 1.0).abs(), count + 1)
    });
    debug_assert_eq!(count, 11);
    sum / count as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perfect_reproduction_has_no_gap() {
        let table2: Vec<f64> = TABLE2_SCOMA_SPEEDUP.iter().map(|p| p.1).collect();
        assert_eq!(
            gap_pct(HEADLINE_GEOMEAN, &table2, &TABLE1_TOTAL_CYCLES),
            0.0
        );
        // One number 11 % off moves the mean over eleven by one point.
        let gap = gap_pct(HEADLINE_GEOMEAN * 1.11, &table2, &TABLE1_TOTAL_CYCLES);
        assert!((gap - 1.0).abs() < 1e-9, "{gap}");
    }
}
