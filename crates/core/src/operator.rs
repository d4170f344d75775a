//! The high-level operator: expression + sector → basis + matrix-free
//! Hamiltonian with a parallel shared-memory matrix-vector product.

use crate::matvec::{self, MatvecScratchPool};
use ls_basis::{BasisError, SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_eigen::LinearOp;
use ls_expr::Expr;
use ls_kernels::Scalar;
use std::sync::Arc;

/// A symmetrized Hamiltonian bound to its basis.
///
/// The product path is a function of the operator alone: the batched
/// pull for a Hermitian operator, the serial push otherwise (see
/// [`crate::matvec`]). The operator owns a [`MatvecScratchPool`]: repeated [`LinearOp::apply`]
/// calls (a Lanczos run performs hundreds on the same operator) reuse the
/// same staging buffers instead of reallocating per product.
#[derive(Clone)]
pub struct Operator<S: Scalar> {
    symop: SymmetrizedOperator<S>,
    basis: Arc<SpinBasis>,
    scratch: Arc<MatvecScratchPool<S>>,
}

impl<S: Scalar> Operator<S> {
    /// Compiles `expr` against the sector's local Hilbert space, builds
    /// the sector basis (in parallel) and binds the two. Returns the
    /// basis alongside the operator.
    pub fn from_expr(
        expr: &Expr,
        sector: SectorSpec,
    ) -> Result<(Arc<SpinBasis>, Self), BasisError> {
        let hilbert = ls_expr::LocalHilbert::from_encoding(sector.encoding());
        let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).map_err(|_| {
            BasisError::OperatorSizeMismatch {
                kernel_sites: expr.min_sites() as u32,
                n_sites: sector.n_sites(),
            }
        })?;
        let symop = SymmetrizedOperator::<S>::new(&kernel, &sector)?;
        let basis = Arc::new(SpinBasis::build(sector));
        let op = Self::from_parts(symop, Arc::clone(&basis));
        Ok((basis, op))
    }

    /// Binds an already-compiled kernel to an existing basis.
    pub fn from_parts(symop: SymmetrizedOperator<S>, basis: Arc<SpinBasis>) -> Self {
        Self { symop, basis, scratch: Arc::new(MatvecScratchPool::new()) }
    }

    pub fn basis(&self) -> &Arc<SpinBasis> {
        &self.basis
    }

    pub fn symmetrized(&self) -> &SymmetrizedOperator<S> {
        &self.symop
    }

    /// The number of stored Hamiltonian terms (diagnostics).
    pub fn n_terms(&self) -> usize {
        self.symop.n_channels() + self.symop.n_diag_monomials()
    }
}

impl<S: Scalar> LinearOp<S> for Operator<S> {
    fn dim(&self) -> usize {
        self.basis.dim()
    }

    fn apply(&self, x: &[S], y: &mut [S]) {
        let pool = &*self.scratch;
        if self.symop.is_hermitian() {
            matvec::apply_batched_pull_pooled(&self.symop, &self.basis, x, y, pool)
        } else {
            matvec::apply_serial_pooled(&self.symop, &self.basis, x, y, pool)
        }
    }

    /// The fused matvec+dot epilogue: for a Hermitian operator the inner
    /// product is accumulated chunk-by-chunk while the batched pull's
    /// output is still cache-resident (one full sweep over the Krylov
    /// vectors saved per Lanczos iteration). A non-Hermitian operator
    /// falls back to the serial product followed by the deterministic
    /// parallel dot.
    fn apply_dot(&self, x: &[S], y: &mut [S]) -> S {
        if self.symop.is_hermitian() {
            matvec::apply_batched_pull_dot_pooled(&self.symop, &self.basis, x, y, &self.scratch)
        } else {
            self.apply(x, y);
            ls_eigen::op::par_dot(x, y)
        }
    }

    fn is_hermitian(&self) -> bool {
        self.symop.is_hermitian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_expr::builders::heisenberg;
    use ls_symmetry::lattice;

    #[test]
    fn build_and_apply() {
        let n = 8usize;
        let expr = heisenberg(&lattice::chain_bonds(n), 1.0);
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(4), group).unwrap();
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        assert!(op.is_hermitian());
        let x = vec![1.0; basis.dim()];
        let mut y = vec![0.0; basis.dim()];
        op.apply(&x, &mut y);
        // H acting on the uniform vector: row sums; compare with the
        // serial oracle.
        let mut y2 = vec![0.0; basis.dim()];
        matvec::apply_serial(op.symmetrized(), &basis, &x, &mut y2);
        for i in 0..basis.dim() {
            assert!((y[i] - y2[i]).abs() < 1e-12, "at {i}");
        }
    }

    #[test]
    fn rejects_bad_sector() {
        let n = 6usize;
        let expr = heisenberg(&lattice::chain_bonds(n), 1.0);
        // Momentum k=1 sector is complex: f64 must be rejected.
        let group = lattice::chain_group(n, 1, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(3), group).unwrap();
        assert!(Operator::<f64>::from_expr(&expr, sector).is_err());
    }
}
