//! The shared-memory symmetry-adapted basis.

use crate::enumerate;
use crate::sector::SectorSpec;
use ls_kernels::combinadics::BinomialTable;
use ls_kernels::search::{PrefixIndex, NOT_FOUND};
use ls_kernels::SiteEncoding;

/// A generated state that has no rank in the basis — raised when an
/// operator produces a representative outside the sector. This is always
/// a logic error (a Hermitian symmetry-commuting operator stays inside
/// the sector), so the hot ranking paths report it by panicking via
/// [`missing_state`]; the typed form exists so every layer (shared-memory
/// basis, batched matvec, distributed locales) formats the same
/// diagnostic, including the per-site configuration under the sector's
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingState {
    pub rep: u64,
    pub encoding: SiteEncoding,
    pub n_sites: u32,
}

impl std::fmt::Display for MissingState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "generated state {:#018x} is not in the basis (sites [", self.rep)?;
        for (i, c) in self.encoding.decode(self.rep, self.n_sites).iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "])")
    }
}

impl std::error::Error for MissingState {}

/// The shared cold tail of every `index_of_present`-style lookup (basis
/// ranking, batched matvec gather, distributed locale resolution):
/// keeping the panic (and its formatting machinery) out of the inlined
/// hot path lets the ranking call compile down to the lookup plus one
/// predictable branch.
#[cold]
#[inline(never)]
pub fn missing_state(rep: u64, encoding: SiteEncoding, n_sites: u32) -> ! {
    panic!("{}", MissingState { rep, encoding, n_sites });
}

/// How `state -> index` ranking is performed — a function of the sector
/// alone, fixed when the basis is assembled.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RankingKind {
    /// Prefix-bucket index + short binary search (every sector that is
    /// not U(1)-only spin-1/2).
    PrefixBuckets,
    /// Closed-form combinadic ranking (U(1)-only spin-1/2 sectors).
    Combinadic,
}

/// A fully built symmetry sector basis: the sorted list of representatives
/// with orbit sizes and a ranking structure.
#[derive(Clone, Debug)]
pub struct SpinBasis {
    sector: SectorSpec,
    states: Vec<u64>,
    orbit_sizes: Vec<u32>,
    prefix: PrefixIndex,
    /// Present exactly when the sector ranks combinadically.
    combinadic: Option<BinomialTable>,
}

impl SpinBasis {
    /// Builds the basis by parallel enumeration.
    pub fn build(sector: SectorSpec) -> Self {
        let chunks = (rayon::current_num_threads() * 8).max(1);
        Self::build_with_chunks(sector, chunks)
    }

    /// Builds with an explicit chunk count (useful for tests and benches).
    pub fn build_with_chunks(sector: SectorSpec, chunks: usize) -> Self {
        let chunk = enumerate::enumerate_par(&sector, chunks);
        Self::from_parts(sector, chunk.states, chunk.orbit_sizes)
    }

    /// Assembles a basis from already-enumerated parts (used by the
    /// distributed layer after gathering).
    pub fn from_parts(sector: SectorSpec, states: Vec<u64>, orbit_sizes: Vec<u32>) -> Self {
        debug_assert_eq!(states.len(), orbit_sizes.len());
        debug_assert!(states.windows(2).all(|w| w[0] < w[1]), "states must be sorted");
        let prefix = PrefixIndex::auto(&states, sector.code_bits());
        // Combinadic ranking is exact only when every state is its own
        // orbit (trivial group), the weight is fixed, and the full
        // fixed-weight range is present — one-bit site codes with no
        // extra per-species charges.
        let combinadic = if sector.group().order() == 1
            && sector.hamming_weight().is_some()
            && sector.encoding().bits() == 1
            && sector.charges().is_empty()
        {
            Some(BinomialTable::new())
        } else {
            None
        };
        Self { sector, states, orbit_sizes, prefix, combinadic }
    }

    pub fn sector(&self) -> &SectorSpec {
        &self.sector
    }

    pub fn dim(&self) -> usize {
        self.states.len()
    }

    pub fn states(&self) -> &[u64] {
        &self.states
    }

    pub fn orbit_sizes(&self) -> &[u32] {
        &self.orbit_sizes
    }

    /// The state stored at `index`.
    #[inline]
    pub fn state(&self, index: usize) -> u64 {
        self.states[index]
    }

    /// Ranking: the index of a representative, or `None` if it is not in
    /// the basis. This is the paper's `stateToIndex`.
    #[inline]
    pub fn index_of(&self, rep: u64) -> Option<usize> {
        match &self.combinadic {
            Some(t) => {
                let idx = t.rank(rep) as usize;
                // Combinadic rank is only meaningful for the right weight.
                if rep.count_ones() == self.sector.hamming_weight().unwrap()
                    && idx < self.states.len()
                {
                    debug_assert_eq!(self.states[idx], rep);
                    Some(idx)
                } else {
                    None
                }
            }
            None => self.prefix.lookup(&self.states, rep),
        }
    }

    /// Ranking for hot loops where the state is guaranteed to be a member
    /// of the basis (every valid representative a Hermitian,
    /// symmetry-commuting operator generates is). Skips the `Option`
    /// plumbing and keeps panic formatting in a cold out-of-line function;
    /// membership is still asserted in debug builds.
    #[inline]
    pub fn index_of_present(&self, rep: u64) -> usize {
        debug_assert!(self.index_of(rep).is_some(), "state {rep:#018x} missing from the basis");
        match self.index_of(rep) {
            Some(i) => i,
            None => missing_state(rep, self.sector.encoding(), self.sector.n_sites()),
        }
    }

    /// Batched ranking: resolves a whole block of representatives into
    /// `out`, one `u32` rank (or [`NOT_FOUND`]) per input. Dispatches to
    /// the bulk kernel of the sector's [`RankingKind`] — this is the
    /// `stateToIndex` the batched matvec uses.
    pub fn index_of_batch(&self, reps: &[u64], out: &mut Vec<u32>) {
        match &self.combinadic {
            Some(t) => {
                let weight = self.sector.hamming_weight().unwrap();
                let len = self.states.len();
                out.clear();
                out.extend(reps.iter().map(|&rep| {
                    let idx = t.rank(rep) as usize;
                    if rep.count_ones() == weight && idx < len {
                        debug_assert_eq!(self.states[idx], rep);
                        idx as u32
                    } else {
                        NOT_FOUND
                    }
                }));
            }
            None => self.prefix.lookup_batch(&self.states, reps, out),
        }
    }

    /// The ranking the sector uses: [`RankingKind::Combinadic`] for
    /// U(1)-only spin-1/2 sectors, [`RankingKind::PrefixBuckets`]
    /// otherwise.
    pub fn ranking(&self) -> RankingKind {
        if self.combinadic.is_some() {
            RankingKind::Combinadic
        } else {
            RankingKind::PrefixBuckets
        }
    }

    /// The combinadic ranking table, present exactly when the sector is
    /// U(1)-only (trivial group, fixed weight) — the precondition of the
    /// differential-ranking fast path in the batched matvec.
    pub fn combinadic_table(&self) -> Option<&BinomialTable> {
        self.combinadic.as_ref()
    }

    /// Memory estimate in bytes (states + orbit sizes + index).
    pub fn memory_bytes(&self) -> usize {
        self.states.len() * 8 + self.orbit_sizes.len() * 4 + self.prefix.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::search::binary_search;
    use ls_symmetry::lattice;

    fn chain_basis(n: usize) -> SpinBasis {
        let g = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        SpinBasis::build(SectorSpec::new(n as u32, Some(n as u32 / 2), g).unwrap())
    }

    #[test]
    fn build_and_rank() {
        let basis = chain_basis(12);
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // A non-representative must not be found.
        assert_eq!(basis.index_of(0b1000_0000_0001), None);
    }

    /// Scalar and batched ranking of `basis` both agree with the
    /// binary-search oracle on every probe.
    fn assert_ranks_like_binary_search(basis: &SpinBasis, probes: &[u64]) {
        let mut out = Vec::new();
        basis.index_of_batch(probes, &mut out);
        assert_eq!(out.len(), probes.len());
        for (&p, &o) in probes.iter().zip(&out) {
            let expect = binary_search(basis.states(), p);
            assert_eq!(basis.index_of(p), expect, "{:?} probe={p:#b}", basis.ranking());
            assert_eq!(o, expect.map_or(NOT_FOUND, |i| i as u32), "batch probe={p:#b}");
        }
    }

    #[test]
    fn ranking_kinds_agree() {
        // PrefixBuckets on a symmetrized sector.
        let basis = chain_basis(10);
        assert_eq!(basis.ranking(), RankingKind::PrefixBuckets);
        let mut probes: Vec<u64> = basis.states().to_vec();
        probes.extend(0..1024u64); // mostly absent
        probes.push(u64::MAX);
        assert_ranks_like_binary_search(&basis, &probes);
        // Combinadic on a U(1)-only basis.
        let basis = SpinBasis::build(SectorSpec::with_weight(12, 6).unwrap());
        assert_eq!(basis.ranking(), RankingKind::Combinadic);
        probes.extend(0..1 << 12);
        assert_ranks_like_binary_search(&basis, &probes);
    }

    #[test]
    fn index_of_present_agrees() {
        let basis = chain_basis(10);
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of_present(s), i);
        }
    }

    #[test]
    #[should_panic(expected = "is not in the basis")]
    #[cfg(not(debug_assertions))]
    fn index_of_present_panics_on_missing() {
        let basis = chain_basis(10);
        basis.index_of_present(0b10); // not a representative
    }

    #[test]
    fn combinadic_fast_path() {
        let basis = SpinBasis::build(SectorSpec::with_weight(14, 7).unwrap());
        assert_eq!(basis.ranking(), RankingKind::Combinadic);
        assert_eq!(basis.dim(), 3432);
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // Wrong-weight probes return None.
        assert_eq!(basis.index_of(0b111), None);
        assert_eq!(basis.index_of(0), None);
    }

    #[test]
    fn combinadic_only_for_u1_only_spin_half() {
        // Symmetry-adapted sector: combinadic ranking is impossible.
        assert_eq!(chain_basis(8).ranking(), RankingKind::PrefixBuckets);
        // Charge-constrained fermionic sector: states are not the full
        // fixed-weight range, so combinadic ranking is impossible too.
        let fermi = SpinBasis::build(SectorSpec::spinful_fermions(3, 1, 1).unwrap());
        assert_eq!(fermi.ranking(), RankingKind::PrefixBuckets);
        assert!(fermi.combinadic_table().is_none());
    }

    #[test]
    fn fermion_and_spin_one_bases_rank() {
        let basis = SpinBasis::build(SectorSpec::spinful_fermions(4, 2, 2).unwrap());
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
            assert_eq!(basis.index_of_present(s), i);
        }
        // Wrong species count is absent even though total weight matches.
        assert_eq!(basis.index_of(0b0000_1111), None);

        let spin1 = SpinBasis::build(SectorSpec::spin_s(5, 3, Some(5)).unwrap());
        assert_eq!(spin1.dim() as u64, spin1.sector().dimension());
        let probes: Vec<u64> = (0..1 << 10).collect();
        assert_ranks_like_binary_search(&spin1, &probes);
    }

    #[test]
    fn missing_state_reports_site_configuration() {
        let e = MissingState { rep: 0b10_01_00, encoding: SiteEncoding::spin(3), n_sites: 3 };
        let msg = e.to_string();
        assert!(msg.contains("is not in the basis"), "{msg}");
        assert!(msg.contains("[0 1 2]"), "{msg}");
    }
}
