//! Failure-injection tests: corrupt or truncated compressed streams must
//! never panic the decoder — they either decode (harmlessly) or return an
//! error. A storage layer that aborts the process on one bad object is not
//! production-quality.

use proptest::prelude::*;
use rand::SeedableRng;
use tripro_mesh::{encode, CompressedMesh, EncoderConfig};
use tripro_synth::{nucleus, NucleusConfig};

fn valid_blob() -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(123);
    let tm = nucleus(
        &mut rng,
        &NucleusConfig::default(),
        tripro_geom::vec3(5.0, 5.0, 5.0),
    );
    encode(&tm, &EncoderConfig::default()).unwrap().to_bytes()
}

/// Fully decode a parsed object, swallowing decode errors (but not panics).
fn try_full_decode(cm: &CompressedMesh) {
    if let Ok(mut dec) = cm.decoder() {
        let _ = dec.decode_to(cm.max_lod());
        let _ = dec.triangles();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-byte corruption anywhere in the container.
    #[test]
    fn corrupt_byte_never_panics(pos in 0usize..4096, val in any::<u8>()) {
        let mut blob = valid_blob();
        let pos = pos % blob.len();
        blob[pos] = val;
        if let Ok(cm) = CompressedMesh::from_bytes(&blob) {
            try_full_decode(&cm);
        }
    }

    /// Truncation at any point.
    #[test]
    fn truncation_never_panics(cut in 0usize..4096) {
        let blob = valid_blob();
        let cut = cut % blob.len();
        if let Ok(cm) = CompressedMesh::from_bytes(&blob[..cut]) {
            try_full_decode(&cm);
        }
    }

    /// Random garbage.
    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(cm) = CompressedMesh::from_bytes(&data) {
            try_full_decode(&cm);
        }
    }

    /// Byte-flip bursts (simulating torn writes).
    #[test]
    fn burst_corruption_never_panics(start in 0usize..4096, len in 1usize..64) {
        let mut blob = valid_blob();
        let n = blob.len();
        for i in 0..len {
            let p = (start + i) % n;
            blob[p] ^= 0xA5;
        }
        if let Ok(cm) = CompressedMesh::from_bytes(&blob) {
            try_full_decode(&cm);
        }
    }
}

/// Corrupting only the *payload* (after the header survives parsing) is the
/// interesting case: event streams with bogus ring references must be
/// rejected by the decoder's validation, not tripped over.
#[test]
fn payload_corruption_sweep() {
    let blob = valid_blob();
    // Flip one byte at a time through a prefix of the payload region.
    for pos in 60..blob.len().min(600) {
        let mut b = blob.clone();
        b[pos] ^= 0xFF;
        if let Ok(cm) = CompressedMesh::from_bytes(&b) {
            try_full_decode(&cm);
        }
    }
}

#[test]
fn store_file_corruption_is_io_error() {
    use tripro::{ObjectStore, StoreConfig};
    use tripro_mesh::testutil::sphere;
    let store = ObjectStore::build(
        &[sphere(tripro_geom::vec3(0.0, 0.0, 0.0), 1.0, 2)],
        &StoreConfig {
            build_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("tripro_robust_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.save_dir(&dir, 100.0).unwrap();
    // Corrupt the file header.
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let good = std::fs::read(&path).unwrap();
    let mut data = good.clone();
    data[0] ^= 0xFF;
    std::fs::write(&path, &data).unwrap();
    assert!(ObjectStore::load_dir(&dir, 0).is_err());

    // Byte spans of the one object's count varints: the object count after
    // the magic, the skeleton count after the blob, the group count after
    // the skeleton points (3 f64 each).
    let mut r = tripro_coder::ByteReader::new(&good);
    r.read_exact(4).unwrap();
    let span = |r: &mut tripro_coder::ByteReader| {
        let at = r.position();
        let n = r.read_usize().unwrap();
        (at, r.position(), n)
    };
    let objects = span(&mut r);
    let (_, blob_at, blob_len) = span(&mut r);
    r.read_exact(blob_len).unwrap();
    let skeleton = span(&mut r);
    r.read_exact(skeleton.2 * 24).unwrap();
    let groups = span(&mut r);
    // Replace one count varint with a count far beyond the file.
    let lie = |(at, end, _): (usize, usize, usize)| {
        let mut d = good[..at].to_vec();
        tripro_coder::write_u64(&mut d, 1 << 62);
        d.extend_from_slice(&good[end..]);
        d
    };
    let mut old_magic = good.clone();
    old_magic[..4].copy_from_slice(b"3DP2");
    // A `3DP3` file whose object is a PPVP version-2 blob (untagged
    // segments): the object itself is refused, not misparsed.
    let mut old_object = good.clone();
    assert_eq!(&old_object[blob_at..blob_at + 4], b"PPVP");
    old_object[blob_at + 4] = 2;
    for (what, data) in [
        ("object count", lie(objects)),
        ("skeleton count", lie(skeleton)),
        ("group count", lie(groups)),
        ("old magic", old_magic),
        ("PPVP version 2", old_object),
    ] {
        std::fs::write(&path, &data).unwrap();
        let err = ObjectStore::load_dir(&dir, 0)
            .err()
            .unwrap_or_else(|| panic!("{what}: must not load"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
