//! Workspace-level integration: the umbrella crate's re-exports work
//! together across crate boundaries, end to end.

use isobar_suite::isobar::{
    Analyzer, EupaSelector, IsobarCompressor, IsobarOptions, IsobarReader, IsobarWriter, Preference,
};
use isobar_suite::isobar_codecs::{bwt::Bzip2Like, deflate::Deflate, Codec};
use isobar_suite::isobar_datasets::{catalog, stats};
use isobar_suite::isobar_float_codecs::{Dims, Fpc, FpzipLike};
use isobar_suite::isobar_linearize::{apply_permutation, hilbert_order};
use isobar_suite::isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};
use std::io::Write;

fn options() -> IsobarOptions {
    IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: 20_000,
        eupa: EupaSelector {
            sample_elements: 1024,
            sample_blocks: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn every_public_surface_composes() {
    // Dataset substrate → statistics.
    let ds = catalog::spec("flash_gamc")
        .expect("catalog")
        .generate(40_000, 77);
    let st = stats::dataset_stats(&ds);
    assert_eq!(st.elements, 40_000);

    // Analyzer on the generated data.
    let sel = Analyzer::default().analyze(&ds.bytes, ds.width()).unwrap();
    assert!(sel.is_improvable());

    // Batch pipeline.
    let isobar = IsobarCompressor::new(options());
    let packed = isobar.compress(&ds.bytes, ds.width()).unwrap();
    assert_eq!(isobar.decompress(&packed).unwrap(), ds.bytes);

    // The same session fed incrementally, over the same bytes.
    let mut writer = IsobarWriter::new(Vec::new(), ds.width(), options()).unwrap();
    writer.write_all(&ds.bytes).unwrap();
    let (stream, _) = writer.finish().unwrap();
    let restored = IsobarReader::new(&stream[..])
        .unwrap()
        .read_to_vec()
        .unwrap();
    assert_eq!(restored, ds.bytes);

    // Standalone solvers and float baselines on the same bytes.
    for codec in [&Deflate::default() as &dyn Codec, &Bzip2Like::default()] {
        assert_eq!(
            codec.decompress(&codec.compress(&ds.bytes)).unwrap(),
            ds.bytes
        );
    }
    let fpc = Fpc::default();
    assert_eq!(fpc.decompress(&fpc.compress(&ds.bytes)).unwrap(), ds.bytes);
    let fpz = FpzipLike;
    let fz = fpz
        .compress_f64(&ds.bytes, Dims::linear(ds.element_count()))
        .unwrap();
    assert_eq!(fpz.decompress(&fz).unwrap(), ds.bytes);

    // Linearization robustness: analyzer verdict is order-free.
    let hilbert = apply_permutation(&ds.bytes, ds.width(), &hilbert_order(ds.element_count()));
    let sel_h = Analyzer::default().analyze(&hilbert, ds.width()).unwrap();
    assert_eq!(sel.bits(), sel_h.bits());

    // Checkpoint store over the pipeline.
    let dir = std::env::temp_dir().join(format!("isobar-smoke-{}.store", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
    store.put(0, "gamc", ds.bytes.clone(), ds.width()).unwrap();
    store.close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.get(0, "gamc").unwrap(), ds.bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn preconditioning_beats_standalone_on_the_motivating_case() {
    // The one-line version of the paper: on hard-to-compress data,
    // ISOBAR + zlib strictly dominates zlib alone on size.
    let ds = catalog::spec("gts_phi_l")
        .expect("catalog")
        .generate(60_000, 1);
    let standalone = Deflate::default().compress(&ds.bytes).len();
    let preconditioned = IsobarCompressor::new(options())
        .compress(&ds.bytes, ds.width())
        .unwrap()
        .len();
    assert!(
        preconditioned < standalone,
        "isobar {preconditioned} vs zlib {standalone}"
    );
}
