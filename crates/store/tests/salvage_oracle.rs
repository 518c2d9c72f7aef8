//! Manifest-less store salvage against an oracle: the backward walk
//! that `isobar::salvage::resync_walk` replaced — find each `ISBR`
//! magic, then search back over every name length for a record header
//! that ends there (`find_magic` / `record_at`) — with that code's own
//! newest-per-key selection (module `oracle`).
//!
//! On every segment of 1–4 records — valid, bit-flipped, truncated and
//! garbage-spliced — `salvage_store` on a directory holding only that
//! segment must recover what the oracle recovers: the same `(step,
//! name, container)` list in the same order and the same
//! `entries_lost`.

use isobar::{IsobarCompressor, IsobarOptions, Preference};
use isobar_store::{encode_segment_header, salvage_store, StoreReader};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

type Recovered = Vec<(u32, String, Vec<u8>)>;

mod oracle {
    use super::Recovered;
    use isobar::{IsobarCompressor, IsobarOptions};
    use std::collections::HashMap;

    const MAGIC: [u8; 4] = *b"ISBR";
    const HEAD_LEN: usize = 8;

    fn find_magic(data: &[u8]) -> Option<usize> {
        data.windows(MAGIC.len()).position(|w| w == MAGIC)
    }

    struct WalkRecord<'a> {
        step: u32,
        name: &'a str,
        container_len: usize,
    }

    fn record_at(data: &[u8], head_len: usize, m: usize) -> Option<WalkRecord<'_>> {
        const TAIL: usize = 4 + 1 + 8;
        let max_name = m.checked_sub(head_len + 2 + TAIL)?;
        for name_len in 0..=max_name.min(u16::MAX as usize) {
            let start = m - TAIL - name_len - 2;
            let claimed = u16::from_le_bytes(data[start..start + 2].try_into().ok()?) as usize;
            if claimed != name_len {
                continue;
            }
            let name = match std::str::from_utf8(&data[start + 2..start + 2 + name_len]) {
                Ok(n) => n,
                Err(_) => continue,
            };
            let tail = &data[start + 2 + name_len..m];
            let step = u32::from_le_bytes(tail[..4].try_into().ok()?);
            let width = tail[4];
            let container_len = u64::from_le_bytes(tail[5..13].try_into().ok()?);
            if width == 0 || width > 64 {
                continue;
            }
            if container_len == 0 || (m as u64).checked_add(container_len)? > data.len() as u64 {
                continue;
            }
            return Some(WalkRecord {
                step,
                name,
                container_len: container_len as usize,
            });
        }
        None
    }

    /// What salvage recovers from one segment file, and how many
    /// candidates it lost.
    pub fn salvage_segment(data: &[u8]) -> (Recovered, usize) {
        let verifier = IsobarCompressor::new(IsobarOptions {
            verify: true,
            ..Default::default()
        });
        let mut lost = 0;
        let mut order: Vec<usize> = Vec::new();
        let mut by_key: HashMap<(u32, String), usize> = HashMap::new();
        let mut candidates: Recovered = Vec::new();
        let mut pos = HEAD_LEN;
        while pos + MAGIC.len() <= data.len() {
            let Some(found) = find_magic(&data[pos..]) else {
                break;
            };
            let m = pos + found;
            match record_at(data, HEAD_LEN, m) {
                Some(record) => {
                    let container = &data[m..m + record.container_len];
                    if verifier.decompress(container).is_ok() {
                        let key = (record.step, record.name.to_string());
                        candidates.push((record.step, record.name.to_string(), container.to_vec()));
                        let at = candidates.len() - 1;
                        if let Some(slot) = by_key.get_mut(&key) {
                            *slot = at;
                        } else {
                            by_key.insert(key, at);
                            order.push(at);
                        }
                        pos = m + record.container_len;
                    } else {
                        lost += 1;
                        pos = m + MAGIC.len();
                    }
                }
                None => pos = m + MAGIC.len(),
            }
        }
        let recovered = order
            .into_iter()
            .map(|at| {
                let (step, name, _) = &candidates[at];
                candidates[by_key[&(*step, name.clone())]].clone()
            })
            .collect();
        (recovered, lost)
    }
}

fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "isobar-store-salvage-oracle-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// `salvage_store` on a directory whose only file is `segment`.
fn library(segment: &[u8]) -> (Recovered, usize) {
    let dir = tmp("in");
    let out = tmp("out");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("g0000000000000000-s000.seg"), segment).unwrap();
    let report = salvage_store(&dir, &out).unwrap();
    assert!(report.index_rebuilt);
    let reader = StoreReader::open(&out).unwrap();
    let recovered: Recovered = reader
        .entries()
        .iter()
        .map(|e| (e.step, e.name.clone(), reader.get_container(e).unwrap()))
        .collect();
    assert_eq!(report.entries_recovered, recovered.len());
    drop(reader);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
    (recovered, report.entries_lost)
}

fn same(segment: &[u8]) {
    assert_eq!(library(segment), oracle::salvage_segment(segment));
}

/// One record: `(step, name, width, elements, seed)`.
type Spec = (u32, &'static str, u8, usize, u64);

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    let spec = (
        0u32..3,
        prop_oneof![Just("a"), Just("density"), Just("potential")],
        prop_oneof![Just(4u8), Just(8u8)],
        1usize..300,
        any::<u64>(),
    );
    proptest::collection::vec(spec, 1..=4)
}

fn segment(specs: &[Spec]) -> Vec<u8> {
    let compressor = IsobarCompressor::new(IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: 128,
        ..Default::default()
    });
    let mut out = encode_segment_header(0).to_vec();
    for &(step, name, width, elements, seed) in specs {
        let mut state = seed | 1;
        let data: Vec<u8> = (0..elements * width as usize)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if i % width as usize == 0 {
                    state as u8
                } else {
                    (i / width as usize / 16) as u8
                }
            })
            .collect();
        let container = compressor.compress(&data, width as usize).unwrap();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&step.to_le_bytes());
        out.push(width);
        out.extend_from_slice(&(container.len() as u64).to_le_bytes());
        out.extend_from_slice(&container);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_segments_agree(specs in specs()) {
        let seg = segment(&specs);
        let (recovered, lost) = library(&seg);
        prop_assert_eq!(lost, 0);
        prop_assert!(!recovered.is_empty());
        same(&seg);
    }

    #[test]
    fn bit_flipped_segments_agree(
        specs in specs(),
        flips in proptest::collection::vec(any::<proptest::sample::Index>(), 1..4),
    ) {
        let mut seg = segment(&specs);
        for flip in flips {
            let bit = flip.index(seg.len() * 8);
            seg[bit / 8] ^= 1 << (bit % 8);
        }
        same(&seg);
    }

    #[test]
    fn truncated_segments_agree(specs in specs(), cut in any::<proptest::sample::Index>()) {
        let seg = segment(&specs);
        same(&seg[..cut.index(seg.len() + 1)]);
    }

    #[test]
    fn garbage_spliced_segments_agree(
        specs in specs(),
        at in any::<proptest::sample::Index>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
        overwrite in any::<bool>(),
    ) {
        let mut seg = segment(&specs);
        let at = at.index(seg.len() + 1);
        if overwrite {
            let end = (at + garbage.len()).min(seg.len());
            seg[at..end].copy_from_slice(&garbage[..end - at]);
        } else {
            seg.splice(at..at, garbage);
        }
        same(&seg);
    }
}
