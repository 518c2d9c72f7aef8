//! The per-process measurement cache every experiment draws on.
//!
//! A catalog dataset is generated once and a (dataset, standalone codec)
//! or (dataset, ISOBAR preference) pair is timed once per process, so
//! Tables II, V, VI, VII and IX report the *same* run. Experiments that
//! need other inputs (Fig. 8's longer datasets, §III.F's seeds, an
//! ablation's options) measure those themselves.

use crate::{default_options, delta_cr_pct, mbps, run_codec, run_isobar_with, speedup, time};
use crate::{CodecRun, IsobarRun, SEED};
use isobar::Preference;
use isobar_codecs::{codec_for, CodecId};
use isobar_datasets::catalog::{self, Dataset};
use isobar_linearize::{apply_permutation, hilbert_order, random_permutation};
use std::rc::Rc;

/// (ΔCR %, compression speed-up) of ISOBAR-Sp over standalone zlib.
pub type VsZlib = (f64, f64);

/// The cache. Lookups are linear: there are 24 datasets.
#[derive(Default)]
pub struct Bench {
    scale: f64,
    datasets: Vec<(&'static str, Rc<Dataset>)>,
    codecs: Vec<((&'static str, CodecId), CodecRun)>,
    isobars: Vec<((&'static str, Preference), Rc<IsobarRun>)>,
    orderings: Vec<(&'static str, [VsZlib; 3])>,
    /// Every miss in order, as `"dataset"` (generated) or `"dataset
    /// what"` (timed): the record that each thing ran once.
    pub log: Vec<String>,
}

impl Bench {
    /// An empty cache for datasets at `scale` times the paper's sizes.
    pub fn new(scale: f64) -> Self {
        Self {
            scale,
            ..Self::default()
        }
    }

    /// The scale this cache generates at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The catalog dataset `name` at the harness scale and seed.
    pub fn dataset(&mut self, name: &str) -> Rc<Dataset> {
        if let Some((_, ds)) = self.datasets.iter().find(|(n, _)| *n == name) {
            return ds.clone();
        }
        let spec = catalog::spec(name).expect("catalog entry");
        let ds = Rc::new(spec.generate(spec.scaled_elements(self.scale), SEED));
        self.log.push(spec.name.to_string());
        self.datasets.push((spec.name, ds.clone()));
        ds
    }

    /// Standalone zlib (`Deflate`) or bzlib2 (`Bzip2Like`) at the
    /// default level on `name`.
    pub fn codec(&mut self, name: &str, id: CodecId) -> CodecRun {
        let ds = self.dataset(name);
        let key = (ds.spec.name, id);
        if let Some((_, run)) = self.codecs.iter().find(|(k, _)| *k == key) {
            return *run;
        }
        self.log.push(format!("{name} {}", id.name()));
        let run = run_codec(codec_for(id, Default::default()).as_ref(), &ds.bytes);
        self.codecs.push((key, run));
        run
    }

    /// The full pipeline under the harness options for `preference`.
    pub fn isobar(&mut self, name: &str, preference: Preference) -> Rc<IsobarRun> {
        let ds = self.dataset(name);
        let key = (ds.spec.name, preference);
        if let Some((_, run)) = self.isobars.iter().find(|(k, _)| *k == key) {
            return run.clone();
        }
        self.log.push(format!("{name} ISOBAR {preference:?}"));
        let options = default_options(preference);
        let run = Rc::new(run_isobar_with(&ds.bytes, ds.width(), options));
        self.isobars.push((key, run.clone()));
        run
    }

    /// Fig. 9/10: ISOBAR-Sp against standalone zlib with the elements of
    /// `name` in original, Hilbert and random order.
    pub fn orderings(&mut self, name: &str) -> [VsZlib; 3] {
        if let Some((_, runs)) = self.orderings.iter().find(|(n, _)| *n == name) {
            return *runs;
        }
        let ds = self.dataset(name);
        let (n, width) = (ds.element_count(), ds.width());
        let zlib = self.codec(name, CodecId::Deflate);
        let isobar = self.isobar(name, Preference::Speed);
        let original = (
            delta_cr_pct(isobar.ratio, zlib.ratio),
            speedup(isobar.comp_mbps, zlib.comp_mbps),
        );
        self.log.push(format!("{name} permuted"));
        let deflate = codec_for(CodecId::Deflate, Default::default());
        let permuted = [hilbert_order(n), random_permutation(n, SEED)].map(|order| {
            let data = apply_permutation(&ds.bytes, width, &order);
            let (packed, secs) = time(|| deflate.compress(&data));
            let isobar = run_isobar_with(&data, width, default_options(Preference::Speed));
            (
                delta_cr_pct(isobar.ratio, data.len() as f64 / packed.len() as f64),
                speedup(isobar.comp_mbps, mbps(data.len(), secs)),
            )
        });
        let runs = [original, permuted[0], permuted[1]];
        self.orderings.push((ds.spec.name, runs));
        runs
    }
}
