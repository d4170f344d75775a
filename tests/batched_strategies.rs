//! Property tests pinning the batched matvec engine to its scalar
//! references.
//!
//! `BatchedPull` is engineered to perform the identical floating-point
//! operations in the identical order as the scalar pull (per output
//! element: diagonal, then channels in ascending order), so it is checked
//! for *equality* against `apply_pull` — any reordering regression fails
//! immediately — and for agreement to rounding against the push-order
//! `Serial` oracle.

use exact_diag::basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use exact_diag::core::matvec::{apply_batched_pull, apply_pull, apply_serial};
use exact_diag::prelude::*;
use proptest::prelude::*;

fn random_vec(dim: usize, seed: u64) -> Vec<f64> {
    (0..dim)
        .map(|i| {
            let h = ls_kernels::hash64_01(seed.wrapping_add(i as u64));
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random XXZ couplings, random sectors with and without symmetries:
    /// the batched pull is the bit-exact twin of the scalar pull and
    /// agrees with `Serial` to rounding.
    #[test]
    fn batched_strategies_bitexact(
        jxy in 0.1f64..3.0,
        delta in -2.0f64..2.0,
        n_choice in 0usize..3,
        sym_choice in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = [8usize, 10, 12][n_choice];
        let sector = match sym_choice {
            // U(1)-only: combinadic ranking, the differential-ranking
            // fused path.
            0 => SectorSpec::with_weight(n as u32, n as u32 / 2).unwrap(),
            // Translation (k = 0).
            1 => SectorSpec::new(
                n as u32,
                Some(n as u32 / 2),
                chain_group(n, 0, None, None).unwrap(),
            )
            .unwrap(),
            // Full chain symmetry: translation + reflection + spin flip.
            2 => SectorSpec::new(
                n as u32,
                Some(n as u32 / 2),
                chain_group(n, 0, Some(0), Some(0)).unwrap(),
            )
            .unwrap(),
            // k = π (real characters, non-trivial phases).
            _ => SectorSpec::new(
                n as u32,
                Some(n as u32 / 2),
                chain_group(n, n as i64 / 2, None, None).unwrap(),
            )
            .unwrap(),
        };
        let kernel = xxz(&chain_bonds(n), jxy, delta).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector);
        let x = random_vec(basis.dim(), seed);

        let mut y_serial = vec![0.0; basis.dim()];
        let mut y_pull = vec![0.0; basis.dim()];
        let mut y_bpull = vec![0.0; basis.dim()];
        apply_serial(&op, &basis, &x, &mut y_serial);
        apply_pull(&op, &basis, &x, &mut y_pull);
        apply_batched_pull(&op, &basis, &x, &mut y_bpull);

        for i in 0..basis.dim() {
            // Bit-exact twins.
            prop_assert_eq!(y_bpull[i], y_pull[i], "batched pull vs pull at {}", i);
            // Cross-formulation agreement to rounding.
            prop_assert!(
                (y_bpull[i] - y_serial[i]).abs() < 1e-10,
                "pull vs serial at {}: {} vs {}", i, y_bpull[i], y_serial[i]
            );
        }
    }

    /// Repeated applies through one `Operator` (its scratch pool warm)
    /// stay bit-identical to the first — buffer reuse must not leak state
    /// between products.
    #[test]
    fn pooled_reapply_is_reproducible(seed in any::<u64>()) {
        let n = 10usize;
        let sector = SectorSpec::new(
            n as u32,
            Some(5),
            chain_group(n, 0, Some(0), None).unwrap(),
        )
        .unwrap();
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        let x = random_vec(basis.dim(), seed);
        let mut first = vec![0.0; basis.dim()];
        op.apply(&x, &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0; basis.dim()];
            op.apply(&x, &mut again);
            prop_assert_eq!(&first, &again);
        }
    }
}

/// A non-Hermitian operator has no gather formulation; `Operator` must
/// route it to the serial push oracle on its own and reproduce that
/// oracle bit for bit (the batched pull would reject it).
#[test]
fn non_hermitian_operator_applies_through_serial() {
    let n = 10usize;
    let expr = parse_expr("S+_0 * S-_1 + 0.5 * Sz_2").unwrap();
    let sector = SectorSpec::with_weight(n as u32, n as u32 / 2).unwrap();
    let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
    assert!(!op.is_hermitian());
    let x = random_vec(basis.dim(), 5);
    let mut y = vec![0.0; basis.dim()];
    op.apply(&x, &mut y);
    let mut y_ref = vec![0.0; basis.dim()];
    apply_serial(op.symmetrized(), &basis, &x, &mut y_ref);
    for i in 0..basis.dim() {
        assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "apply vs serial at {i}");
    }
    // The fused product+dot takes the same route.
    let mut y_dot = vec![0.0; basis.dim()];
    let d = op.apply_dot(&x, &mut y_dot);
    assert_eq!(y_dot, y_ref);
    let expect: f64 = x.iter().zip(&y_ref).map(|(a, b)| a * b).sum();
    assert!((d - expect).abs() <= 1e-12 * expect.abs().max(1.0), "{d} vs {expect}");
}
