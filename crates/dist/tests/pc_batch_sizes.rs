//! Integration test: the producer/consumer pipeline agrees with the
//! shared-memory serial reference for extreme staging-buffer capacities —
//! a 1-pair capacity ships every off-diagonal contribution as its own
//! message, 4096 exceeds the whole off-diagonal volume so everything
//! ships in the final drain.

use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_dist::matvec::{matvec_pc, PcOptions};
use ls_dist::{enumerate_dist, DistSpinBasis};
use ls_expr::builders::heisenberg;
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use ls_symmetry::lattice::{chain_bonds, chain_group};

fn serial_reference(op: &SymmetrizedOperator<f64>, basis: &SpinBasis, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; basis.dim()];
    let mut row = Vec::new();
    for j in 0..basis.dim() {
        let alpha = basis.state(j);
        y[j] += op.diagonal(alpha) * x[j];
        row.clear();
        op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut row);
        for &(rep, amp) in &row {
            y[basis.index_of(rep).unwrap()] += amp * x[j];
        }
    }
    y
}

fn scatter(basis: &SpinBasis, dist: &DistSpinBasis, dense: &[f64]) -> DistVec<f64> {
    let mut out = DistVec::<f64>::zeros(&dist.states().lens());
    for l in 0..dist.n_locales() {
        for (i, &s) in dist.states().part(l).iter().enumerate() {
            out.part_mut(l)[i] = dense[basis.index_of(s).unwrap()];
        }
    }
    out
}

/// Runs the pipeline on one sector over every capacity and task shape
/// on each `(locales, cores)` cluster shape.
fn check_sector(
    n: usize,
    group: ls_symmetry::SymmetryGroup,
    x: impl Fn(usize) -> f64,
    shapes: &[(usize, usize)],
    chunks: usize,
) {
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector.clone());
    let x: Vec<f64> = (0..basis.dim()).map(x).collect();
    let y_ref = serial_reference(&op, &basis, &x);

    for &(locales, cores) in shapes {
        let cluster = Cluster::new(ClusterSpec::new(locales, cores));
        let dist = enumerate_dist(&cluster, &sector, chunks);
        let xd = scatter(&basis, &dist, &x);
        for capacity in [1usize, 7, 4096] {
            for (producers, consumers) in [(1usize, 1usize), (2, 2)] {
                let mut yd = DistVec::<f64>::zeros(&dist.states().lens());
                matvec_pc(
                    &cluster,
                    &op,
                    &dist,
                    &xd,
                    &mut yd,
                    PcOptions { producers, consumers, capacity, ..PcOptions::default() },
                );
                for l in 0..locales {
                    for (i, &s) in dist.states().part(l).iter().enumerate() {
                        let expect = y_ref[basis.index_of(s).unwrap()];
                        assert!(
                            (yd.part(l)[i] - expect).abs() < 1e-11,
                            "n={n} locales={locales} capacity={capacity} p={producers} \
                             c={consumers} state={s:#b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pc_pipeline_across_batch_capacities() {
    // Fully symmetric 12-site ring on 1 and 3 locales.
    check_sector(
        12,
        chain_group(12, 0, Some(0), Some(0)).unwrap(),
        |i| ((i as f64) * 0.73).sin() - 0.2,
        &[(1, 2), (3, 2)],
        2,
    );
    // 10-site ring without the reflection, spread over 4 single-core locales.
    check_sector(
        10,
        chain_group(10, 0, None, Some(0)).unwrap(),
        |i| ((i as f64) * 1.37).cos(),
        &[(4, 1)],
        3,
    );
}
