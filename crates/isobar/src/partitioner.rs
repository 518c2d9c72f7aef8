//! ISOBAR-partitioner: split elements into compressible and
//! incompressible byte streams (§II.B, Algorithm 1, Fig. 5).
//!
//! Given the analyzer's column selection, the partitioner serializes
//! the compressible columns with the EUPA-chosen linearization (these
//! go to the solver) and the incompressible columns column-wise (these
//! are stored verbatim — their order only needs to be deterministic).
//! `reassemble` inverts the split exactly.

use crate::analyzer::ColumnSelection;
use isobar_linearize::Linearization;
use isobar_simd::transpose::StreamLayout;
use isobar_simd::KernelTier;

/// The kernel crate's layout tag for a linearization choice: the C
/// stream is row- or column-major per EUPA, the I stream always
/// column-major.
fn layout(lin: Linearization) -> StreamLayout {
    match lin {
        Linearization::Row => StreamLayout::RowMajor,
        Linearization::Column => StreamLayout::ColumnMajor,
    }
}

/// Output of partitioning one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioned {
    /// Bytes of the compressible columns, serialized with the chosen
    /// linearization — the solver's input (paper's C).
    pub compressible: Vec<u8>,
    /// Bytes of the incompressible columns, column-wise — stored as-is
    /// (paper's I).
    pub incompressible: Vec<u8>,
}

/// Split `data` (`N × width` bytes) according to `selection`.
///
/// The compressible part uses `lin`; the incompressible part is always
/// column-wise (it is never compressed, and column order keeps the
/// reassembly stride-friendly).
///
/// # Example
///
/// ```
/// use isobar::partitioner::{partition, reassemble};
/// use isobar::{ColumnSelection, Linearization};
///
/// // Two elements of width 3; columns 0 and 2 selected compressible.
/// let data = [10u8, 11, 12, 20, 21, 22];
/// let selection = ColumnSelection::new(vec![true, false, true]);
///
/// let parts = partition(&data, 3, &selection, Linearization::Row);
/// assert_eq!(parts.compressible, vec![10, 12, 20, 22]); // row-wise C
/// assert_eq!(parts.incompressible, vec![11, 21]);       // column-wise I
///
/// let rebuilt = reassemble(&parts, 3, &selection, Linearization::Row);
/// assert_eq!(rebuilt, data);
/// ```
pub fn partition(
    data: &[u8],
    width: usize,
    selection: &ColumnSelection,
    lin: Linearization,
) -> Partitioned {
    let mut parts = Partitioned {
        compressible: Vec::new(),
        incompressible: Vec::new(),
    };
    partition_into(
        data,
        width,
        selection,
        lin,
        &mut parts.compressible,
        &mut parts.incompressible,
    );
    parts
}

/// [`partition`] into caller-provided buffers (cleared and refilled) —
/// the allocation-free path the compressor's hot loop uses, on the
/// process-wide kernel tier.
pub fn partition_into(
    data: &[u8],
    width: usize,
    selection: &ColumnSelection,
    lin: Linearization,
    compressible: &mut Vec<u8>,
    incompressible: &mut Vec<u8>,
) {
    partition_into_with(
        isobar_simd::active_tier(),
        data,
        width,
        selection,
        lin,
        compressible,
        incompressible,
    );
}

/// [`partition_into`] on an explicit kernel tier. One fused pass over
/// the source feeds both output streams (SIMD unpack-tree for
/// ω ≤ 8, cache-blocked scalar otherwise).
fn partition_into_with(
    tier: KernelTier,
    data: &[u8],
    width: usize,
    selection: &ColumnSelection,
    lin: Linearization,
    compressible: &mut Vec<u8>,
    incompressible: &mut Vec<u8>,
) {
    debug_assert_eq!(selection.width(), width);
    let n = data.len() / width.max(1);
    let comp_cols = selection.compressible();
    let incomp_cols = selection.incompressible();
    compressible.clear();
    compressible.resize(n * comp_cols.len(), 0);
    incompressible.clear();
    incompressible.resize(n * incomp_cols.len(), 0);
    isobar_simd::transpose::partition2(
        tier,
        data,
        width,
        &comp_cols,
        layout(lin),
        compressible,
        &incomp_cols,
        incompressible,
    );
}

/// Inverse of [`partition`]: rebuild the original element bytes.
///
/// # Panics
///
/// Panics if the stream lengths are inconsistent with `width` and
/// `selection` (the container validates lengths before calling this).
pub fn reassemble(
    parts: &Partitioned,
    width: usize,
    selection: &ColumnSelection,
    lin: Linearization,
) -> Vec<u8> {
    let total = parts.compressible.len() + parts.incompressible.len();
    let mut out = vec![0u8; total];
    reassemble_into(
        &parts.compressible,
        &parts.incompressible,
        width,
        selection,
        lin,
        &mut out,
    );
    out
}

/// [`reassemble`] into a caller-provided buffer (must be exactly
/// `compressible.len() + incompressible.len()` bytes) — the allocation-
/// free path the decompressor's hot loop uses, on the process-wide
/// kernel tier.
pub fn reassemble_into(
    compressible: &[u8],
    incompressible: &[u8],
    width: usize,
    selection: &ColumnSelection,
    lin: Linearization,
    out: &mut [u8],
) {
    reassemble_into_with(
        isobar_simd::active_tier(),
        compressible,
        incompressible,
        width,
        selection,
        lin,
        out,
    );
}

/// [`reassemble_into`] on an explicit kernel tier. C and I together
/// cover every byte-column, which is what lets the SIMD kernel store
/// whole rows (its "unlisted columns are unspecified" contract is
/// vacuous here).
#[allow(clippy::too_many_arguments)]
fn reassemble_into_with(
    tier: KernelTier,
    compressible: &[u8],
    incompressible: &[u8],
    width: usize,
    selection: &ColumnSelection,
    lin: Linearization,
    out: &mut [u8],
) {
    assert_eq!(out.len(), compressible.len() + incompressible.len());
    isobar_simd::transpose::reassemble2(
        tier,
        compressible,
        &selection.compressible(),
        layout(lin),
        incompressible,
        &selection.incompressible(),
        width,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;

    fn demo_data(n: usize) -> Vec<u8> {
        // width 4: [constant, uniform, index-low, uniform]
        let mut state = 0xABCDEFu64;
        (0..n)
            .flat_map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                [
                    5u8,
                    (state >> 33) as u8,
                    (i % 64) as u8,
                    (state >> 41) as u8,
                ]
            })
            .collect()
    }

    #[test]
    fn partition_splits_by_selection() {
        let data = demo_data(50_000);
        let sel = Analyzer::default().analyze(&data, 4).unwrap();
        assert_eq!(sel.bits(), &[true, false, true, false]);
        let parts = partition(&data, 4, &sel, Linearization::Row);
        assert_eq!(parts.compressible.len(), 2 * 50_000);
        assert_eq!(parts.incompressible.len(), 2 * 50_000);
        // Row linearization interleaves columns 0 and 2 per element.
        assert_eq!(parts.compressible[0], 5);
        assert_eq!(parts.compressible[1], 0); // i % 64 at i = 0
        assert_eq!(parts.compressible[3], 1); // i % 64 at i = 1
    }

    #[test]
    fn reassemble_is_exact_for_all_linearizations() {
        let data = demo_data(10_000);
        let sel = Analyzer::default().analyze(&data, 4).unwrap();
        for lin in Linearization::ALL {
            let parts = partition(&data, 4, &sel, lin);
            assert_eq!(reassemble(&parts, 4, &sel, lin), data, "{lin}");
        }
    }

    #[test]
    fn all_compressible_selection_degenerates_gracefully() {
        let data = demo_data(1000);
        let sel = crate::analyzer::ColumnSelection::new(vec![true; 4]);
        let parts = partition(&data, 4, &sel, Linearization::Row);
        assert_eq!(parts.compressible, data);
        assert!(parts.incompressible.is_empty());
        assert_eq!(reassemble(&parts, 4, &sel, Linearization::Row), data);
    }

    #[test]
    fn all_incompressible_selection_degenerates_gracefully() {
        let data = demo_data(1000);
        let sel = crate::analyzer::ColumnSelection::new(vec![false; 4]);
        let parts = partition(&data, 4, &sel, Linearization::Column);
        assert!(parts.compressible.is_empty());
        assert_eq!(parts.incompressible.len(), data.len());
        assert_eq!(reassemble(&parts, 4, &sel, Linearization::Column), data);
    }

    #[test]
    fn partition_into_reused_buffers_match_fresh_partition() {
        // Dirty, differently-sized buffers must not leak into results.
        let a = demo_data(10_000);
        let b = demo_data(3_000);
        let sel_a = Analyzer::default().analyze(&a, 4).unwrap();
        let sel_b = Analyzer::default().analyze(&b, 4).unwrap();
        let mut comp = vec![0xAA; 999];
        let mut incomp = vec![0x55; 7];
        for lin in Linearization::ALL {
            for (data, sel) in [(&a, &sel_a), (&b, &sel_b)] {
                partition_into(data, 4, sel, lin, &mut comp, &mut incomp);
                let fresh = partition(data, 4, sel, lin);
                assert_eq!(comp, fresh.compressible, "{lin}");
                assert_eq!(incomp, fresh.incompressible, "{lin}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let sel = crate::analyzer::ColumnSelection::new(vec![true, false]);
        let parts = partition(&[], 2, &sel, Linearization::Row);
        assert!(parts.compressible.is_empty() && parts.incompressible.is_empty());
        assert!(reassemble(&parts, 2, &sel, Linearization::Row).is_empty());
    }

    #[test]
    fn compressible_stream_is_more_compressible_than_original() {
        // The point of the exercise: after removing the noise columns,
        // the solver sees a lower-entropy stream.
        use isobar_codecs::{bwt::Bzip2Like, deflate::Deflate, Codec};
        let data = demo_data(100_000);
        let sel = Analyzer::default().analyze(&data, 4).unwrap();
        let parts = partition(&data, 4, &sel, Linearization::Row);
        for codec in [&Deflate::default() as &dyn Codec, &Bzip2Like::default()] {
            let whole = codec.compress(&data).len();
            let precond = codec.compress(&parts.compressible).len() + parts.incompressible.len();
            assert!(
                precond < whole,
                "{}: preconditioned {} vs whole {}",
                codec.name(),
                precond,
                whole
            );
        }
    }
}
