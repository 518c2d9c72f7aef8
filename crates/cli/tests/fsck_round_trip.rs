//! fsck and salvage through the real binary: a clean container fscks
//! clean (exit 0), one flipped payload byte is found (exit 3), and
//! salvage writes a container that fscks clean again, in the batch and
//! the `--stream` form; an empty input is a clean container in both
//! forms; a store whose `MANIFEST` was deleted fscks damaged and
//! salvages back to every key, byte for byte; and a segment of 1 MiB of
//! `ISBR` bytes salvages in linear time.

mod common;

use common::{code, noise, ok, Scratch, ISOBAR};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_flipped_byte_fscks_damaged_and_salvage_repairs_it_in_both_forms() {
    let dir = Scratch::new("fsck");
    let (input, packed, salvaged) = (dir.path("in.bin"), dir.path("in.isbr"), dir.path("s.isbr"));
    let (empty, empty_packed, empty_out) =
        (dir.path("e.bin"), dir.path("e.isbr"), dir.path("e.out"));
    std::fs::write(&input, noise(2_400_000, 1)).unwrap();
    std::fs::write(&empty, b"").unwrap();
    for form in [&[][..], &["--stream"][..]] {
        let batch = ["compress", "--width", "8", "--chunk", "100000"];
        ok(&[&batch[..], form, &[&input, &packed]].concat());
        ok(&["fsck", &packed]);
        // A streamed file ends in a 13-byte trailer: step over it to
        // land in the last chunk's payload.
        let mut bytes = std::fs::read(&packed).unwrap();
        let at = bytes.len() - 3 - if form.is_empty() { 0 } else { 13 };
        bytes[at] ^= 0xFF;
        std::fs::write(&packed, &bytes).unwrap();
        assert_eq!(
            code(&["fsck", &packed]),
            3,
            "fsck missed injected damage {form:?}"
        );
        ok(&["salvage", &packed, &salvaged]);
        ok(&["fsck", &salvaged]);

        ok(&[
            &["compress", "--width", "8"],
            form,
            &[&empty, &empty_packed],
        ]
        .concat());
        ok(&["fsck", &empty_packed]);
        ok(&["info", &empty_packed]);
        ok(&["decompress", &empty_packed, &empty_out]);
        assert_eq!(std::fs::read(&empty_out).unwrap(), b"", "{form:?}");
    }
}

#[test]
fn a_store_without_its_manifest_salvages_to_every_key() {
    let dir = Scratch::new("fsck-store");
    let (store, input, salvaged) = (
        dir.path("s.store"),
        dir.path("in.bin"),
        dir.path("s2.store"),
    );
    let data = noise(800_000, 2);
    std::fs::write(&input, &data).unwrap();
    for step in ["0", "1"] {
        let name = ["--name", "density", "--step", step, "--width", "8"];
        ok(&[&["store", "put", &store, &input], &name[..]].concat());
    }
    std::fs::remove_file(dir.path("s.store/MANIFEST")).unwrap();
    assert_eq!(code(&["fsck", &store]), 3, "fsck missed a missing MANIFEST");
    ok(&["salvage", &store, &salvaged]);
    ok(&["fsck", &salvaged]);
    for step in ["0", "1"] {
        let out = dir.path(&format!("step{step}.bin"));
        ok(&[
            "store", "get", &salvaged, &out, "--name", "density", "--step", step,
        ]);
        assert!(
            std::fs::read(&out).unwrap() == data,
            "step {step} read back wrong"
        );
    }
}

#[test]
fn a_segment_of_isbr_bytes_salvages_in_linear_time() {
    let dir = Scratch::new("fsck-flood");
    let flood = dir.path("flood");
    std::fs::create_dir(&flood).unwrap();
    let mut segment = b"ISSG\x03\x00\x00\x00".to_vec();
    segment.extend(b"ISBR".repeat(1 << 18));
    std::fs::write(dir.path("flood/g0000000000000000-s000.seg"), segment).unwrap();
    let mut salvage = Command::new(ISOBAR)
        .args(["salvage", &flood, &dir.path("salvaged")])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if salvage.try_wait().unwrap().is_some() {
            break;
        }
        if Instant::now() > deadline {
            let _ = salvage.kill();
            let _ = salvage.wait();
            panic!("salvage of 1 MiB of ISBR bytes ran past 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = salvage.wait_with_output().unwrap();
    let said = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {said}", out.status);
}
