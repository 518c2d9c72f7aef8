//! Property tests for the ISOBAR pipeline: exact round-trips under
//! arbitrary element shapes, selections, and configurations.

use isobar::container::{ChunkMode, ChunkRecord, Header};
use isobar::partitioner::{partition, reassemble};
use isobar::{
    Analyzer, CodecId, ColumnSelection, EupaSelector, IsobarCompressor, IsobarOptions,
    IsobarReader, IsobarWriter, Linearization, Preference,
};
use isobar_codecs::CompressionLevel;
use proptest::prelude::*;
use std::io::Write;

/// Element data with structured columns: some constant, some drawn
/// from a small alphabet, some uniform — plus arbitrary width.
fn element_data() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (1usize..10, 0usize..400).prop_flat_map(|(width, n)| {
        proptest::collection::vec(any::<u8>(), width * 2).prop_map(move |params| {
            let mut data = Vec::with_capacity(n * width);
            let mut state = 0x9E3779B97F4A7C15u64;
            for i in 0..n {
                for (c, chunk) in params.chunks(2).enumerate().take(width) {
                    let kind = chunk[0] % 3;
                    let byte = match kind {
                        0 => chunk[1],                             // constant column
                        1 => chunk[1].wrapping_add((i % 7) as u8), // small alphabet
                        _ => {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            (state >> 48) as u8 ^ c as u8
                        }
                    };
                    data.push(byte);
                }
            }
            (width, data)
        })
    })
}

fn options(
    pref_idx: usize,
    level_idx: usize,
    chunk_elements: usize,
    parallel: bool,
) -> IsobarOptions {
    let prefs = [
        Preference::Ratio,
        Preference::Speed,
        Preference::SpeedWithRatioFloor(1.05),
    ];
    IsobarOptions {
        preference: prefs[pref_idx % 3],
        level: CompressionLevel::ALL[level_idx % 3],
        chunk_elements,
        eupa: EupaSelector {
            sample_elements: 128,
            sample_blocks: 2,
            ..Default::default()
        },
        parallel,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_round_trips_everything(
        (width, data) in element_data(),
        pref in 0usize..3,
        level in 0usize..3,
        chunk in 1usize..200,
        parallel in any::<bool>(),
    ) {
        let isobar = IsobarCompressor::new(options(pref, level, chunk, parallel));
        let packed = isobar.compress(&data, width).unwrap();
        prop_assert_eq!(isobar.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn write_splits_and_framing_never_change_the_records(
        (width, data) in element_data(),
        pref in 0usize..3,
        level in 0usize..3,
        chunk in 1usize..200,
        parallel in any::<bool>(),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
    ) {
        // Every preference's pick rests on sample sizes alone, so equal
        // input means equal bytes; the session decides on the whole
        // input, as the batch call does.
        let options = options(pref, level, chunk, parallel);
        let streamed = |cuts: &[usize]| {
            let mut writer = IsobarWriter::new(Vec::new(), width, options).unwrap();
            writer.decide(&data).unwrap();
            let mut fed = 0;
            for &cut in cuts.iter().chain([&data.len()]) {
                writer.write_all(&data[fed..cut]).unwrap();
                fed = cut;
            }
            writer.finish().unwrap().0
        };
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let stream = streamed(&[]);
        prop_assert_eq!(&streamed(&cuts), &stream, "split at {:?}", cuts);

        // Both forms: one header but for the length fields, one body.
        let isobar = IsobarCompressor::new(options);
        let batch = isobar.compress(&data, width).unwrap();
        prop_assert_eq!(&stream[..16], &batch[..16]);
        prop_assert_eq!(&stream[28..stream.len() - 13], &batch[28..]);

        // The slice decoder and the reader agree on both.
        for form in [&batch, &stream] {
            prop_assert_eq!(&isobar.decompress(form).unwrap(), &data);
            prop_assert_eq!(&IsobarReader::new(&form[..]).unwrap().read_to_vec().unwrap(), &data);
        }
    }

    #[test]
    fn pipeline_with_forced_codec_and_linearization(
        (width, data) in element_data(),
        codec in 0usize..2,
        lin in 0usize..2,
    ) {
        let isobar = IsobarCompressor::new(IsobarOptions {
            codec_override: Some([CodecId::Deflate, CodecId::Bzip2Like][codec]),
            linearization_override: Some(Linearization::ALL[lin]),
            chunk_elements: 64,
            ..Default::default()
        });
        let packed = isobar.compress(&data, width).unwrap();
        prop_assert_eq!(isobar.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn partition_reassemble_round_trips_any_selection(
        (width, data) in element_data(),
        mask in any::<u16>(),
        lin in 0usize..2,
    ) {
        let selection = ColumnSelection::from_mask(mask as u64 & ((1 << width) - 1), width).unwrap();
        let lin = Linearization::ALL[lin];
        let parts = partition(&data, width, &selection, lin);
        prop_assert_eq!(reassemble(&parts, width, &selection, lin), data);
    }

    #[test]
    fn analyzer_is_deterministic_and_order_free(
        (width, data) in element_data(),
        seed in any::<u64>(),
    ) {
        // §III.G: byte-column statistics are invariant under element
        // permutation, so the analyzer's verdict must be too.
        let analyzer = Analyzer::default();
        let a = analyzer.analyze(&data, width).unwrap();
        let n = data.len() / width;
        let perm = isobar_linearize::random_permutation(n, seed);
        let shuffled = isobar_linearize::apply_permutation(&data, width, &perm);
        let b = analyzer.analyze(&shuffled, width).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn container_survives_arbitrary_mutations_without_panicking(
        (width, data) in element_data(),
        flip_at in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let isobar = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 64,
            codec_override: Some(CodecId::Deflate),
            linearization_override: Some(Linearization::Row),
            ..Default::default()
        });
        let mut packed = isobar.compress(&data, width).unwrap();
        let i = flip_at.index(packed.len());
        packed[i] ^= 1 << flip_bit;
        // Either an error or (if the flip hit dead space) the original
        // data — never a panic, never silently wrong data.
        if let Ok(out) = isobar.decompress(&packed) {
            prop_assert_eq!(out, data);
        }
    }

    #[test]
    fn truncated_containers_error_cleanly(
        (width, data) in element_data(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let isobar = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 64,
            codec_override: Some(CodecId::Deflate),
            linearization_override: Some(Linearization::Row),
            ..Default::default()
        });
        let packed = isobar.compress(&data, width).unwrap();
        prop_assume!(!data.is_empty());
        let cut = cut.index(packed.len());
        prop_assert!(isobar.decompress(&packed[..cut]).is_err());
    }

    #[test]
    fn header_parses_only_what_it_wrote(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes must never panic the header parser.
        let _ = Header::read(&raw);
        let _ = ChunkRecord::read(&raw, 8);
    }

    #[test]
    fn chunk_modes_partition_the_dataset(
        (width, data) in element_data(),
    ) {
        let isobar = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 50,
            codec_override: Some(CodecId::Deflate),
            linearization_override: Some(Linearization::Row),
            ..Default::default()
        });
        let (_, report) = isobar.compress_with_report(&data, width).unwrap();
        let total: usize = report.chunks.iter().map(|c| c.elements).sum();
        prop_assert_eq!(total, data.len() / width);
        for c in &report.chunks {
            match c.mode {
                ChunkMode::Passthrough => prop_assert_eq!(c.incompressible_len, 0),
                ChunkMode::Partitioned => {
                    prop_assert!(c.mask != 0);
                    prop_assert!(c.incompressible_len > 0 || c.htc_pct == 0.0);
                }
                // The solver-panic fallback: never produced by a
                // healthy pipeline run.
                ChunkMode::Verbatim => prop_assert!(false, "unexpected verbatim chunk"),
            }
        }
    }
}
