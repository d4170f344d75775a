//! Bit-identity pins for the spin-1/2 fast path across the local-Hilbert
//! refactor: enumeration output (serial and chunked-parallel), and
//! ground-state eigenvalues through the symmetric and combinadic U(1)
//! pipelines. The constants were captured on the pre-refactor tree; any
//! drift means the generic encoding path changed spin-1/2 arithmetic or
//! state ordering, which the refactor promises not to do.

use exact_diag::basis::{SectorSpec, SpinBasis};
use exact_diag::prelude::*;

fn fnv1a(stream: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in stream {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn u1_enumeration_bit_identical() {
    // 24-site weight-12 U(1)-only sector: dimension and full state-list
    // hash (order-sensitive).
    let sector = SectorSpec::with_weight(24, 12).unwrap();
    let basis = SpinBasis::build(sector);
    assert_eq!(basis.dim(), 2_704_156);
    assert_eq!(fnv1a(basis.states().iter().copied()), 0xeab1b037cce7ddf5);
}

#[test]
fn parallel_enumeration_bit_identical() {
    // Chunked parallel enumeration (the distributed layer's shape) with a
    // prime chunk count that does not divide the dimension.
    let sector = SectorSpec::with_weight(18, 9).unwrap();
    let chunk = exact_diag::basis::enumerate::enumerate_par(&sector, 37);
    assert_eq!(fnv1a(chunk.states.iter().copied()), 0x29d3b3dafe643301);
}

#[test]
fn symmetric_sector_eigenvalue_bit_identical() {
    // 16-site fully symmetrized Heisenberg ground state (character-phase
    // channel path).
    let n = 16usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(8), group).unwrap();
    let (_, op) = exact_diag::core::Operator::<f64>::from_expr(&expr, sector).unwrap();
    let e0 = exact_diag::core::eigen::ground_state_energy(&op);
    assert_eq!(e0.to_bits(), 0xc01c91b6231cc16f, "got {e0}");
}

#[test]
fn combinadic_u1_eigenvalue_bit_identical() {
    // 20-site U(1)-only BatchedPull ground state (combinadic ranking and
    // the fused segment-gather fast path).
    let n = 20usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let sector = SectorSpec::with_weight(n as u32, 10).unwrap();
    let (basis, op) = exact_diag::core::Operator::<f64>::from_expr(&expr, sector).unwrap();
    assert_eq!(basis.ranking(), exact_diag::basis::RankingKind::Combinadic);
    let e0 = exact_diag::core::eigen::ground_state_energy(&op);
    assert_eq!(e0.to_bits(), 0xc021cf0bc0518648, "got {e0}");
}

#[test]
fn reduced_precision_eigenvalues_bit_identical() {
    // 16-site U(1) sector through f32 Krylov storage: raw (`F32`) and
    // with the f64 Rayleigh–Ritz refinement (`Mixed`).
    use exact_diag::eigen::{eigensolve_precision, Precision};
    let n = 16usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let sector = SectorSpec::with_weight(n as u32, 8).unwrap();
    let (_, op) = exact_diag::core::Operator::<f64>::from_expr(&expr, sector).unwrap();
    let opts = RestartOptions { extra: 10, tol: 1e-6, ..RestartOptions::new(2) };
    for (precision, expect) in [
        (Precision::F32, [0xc01c91b622a5e350u64, 0xc01b7d0988688109]),
        (Precision::Mixed, [0xc01c91b6231cc0ea, 0xc01b7d0988788e1f]),
    ] {
        let r = eigensolve_precision(&op, &opts, precision);
        let bits: Vec<u64> = r.eigenvalues.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect, "{precision:?}");
    }
}
