//! PPVP — Progressive Protruding-Vertex Pruning mesh compression (paper §3).
//!
//! The encoder runs rounds of protruding-vertex decimation over the
//! quantised mesh, recording one invertible *removal event* per vertex. The
//! compressed object stores the base (LOD0) mesh plus one byte segment per
//! LOD step; each segment holds the insertion events that refine the mesh to
//! the next LOD, range-coded only where that saves at least 1/16 of its
//! bytes. Decoding is **progressive**: reaching LOD `k` only requires the
//! first `k` segments, and a decoder can later resume to a higher LOD
//! incrementally — exactly the access pattern the
//! Filter-Progressive-Refine query engine needs.
//!
//! Because only protruding vertices are pruned, every LOD mesh covers a
//! subset of every higher LOD mesh, giving the two query properties of §3.2:
//! intersection at a low LOD implies intersection at every higher LOD, and
//! distances are monotonically non-increasing in LOD.

use crate::decimate::{decimate_round, PruneMode, RemovalEvent};
use crate::mesh::{Mesh, MeshError, VertId};
use crate::trimesh::{quantize_mesh, TriMesh};
use std::borrow::Cow;
use std::sync::Arc;
use tripro_coder::{compress, decompress, ByteReader, DecodeError, Quantizer};
use tripro_geom::{ivec3, Aabb, IVec3, Triangle};

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Quantisation bits per axis (paper uses adaptive per-object grids;
    /// 16 bits keeps sub-voxel fidelity for pathology-scale objects).
    pub bits: u32,
    /// Decimation rounds folded into one LOD step (§6.5: 2 rounds halve the
    /// face count, giving the paper's ratio r = 2).
    pub rounds_per_lod: usize,
    /// Number of LODs *above* the base, i.e. the maximum LOD index.
    /// The paper uses 6 levels total: base LOD0 + 5 steps.
    pub max_lod: usize,
    /// PPVP (`ProtrudingOnly`) or the PPMC-like unconstrained variant.
    pub mode: PruneMode,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            bits: 16,
            rounds_per_lod: 2,
            max_lod: 5,
            mode: PruneMode::ProtrudingOnly,
        }
    }
}

/// A PPVP-compressed polyhedron.
///
/// `segments[0]` holds the base mesh; `segments[k]` (k ≥ 1) holds the
/// insertion events lifting LOD `k-1` to LOD `k`. Every segment is
/// stored independently so partial (progressive) decoding never touches
/// bytes beyond the requested LOD. The segments are shared, not copied, with
/// every decoder started from this object.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedMesh {
    pub quantizer: Quantizer,
    segments: Arc<[Vec<u8>]>,
}

const MAGIC: &[u8; 4] = b"PPVP";
const VERSION: u8 = 3;

/// Segment tag: the body is the plain varint stream itself.
const PLAIN: u8 = 0;
/// Segment tag: the body is that stream range-coded ([`compress`]).
const CODED: u8 = 1;
/// A segment is range-coded only if that saves at least `1/CODE_MIN_SAVING`
/// of its bytes. Below that margin the adaptive coder's per-byte decode cost
/// (a division-bound chain, about half of PPVP decode) buys next to nothing.
const CODE_MIN_SAVING: usize = 16;

/// Whether a stream of `raw` bytes that range-codes to `coded` bytes is
/// stored coded.
const fn pays_to_code(coded: usize, raw: usize) -> bool {
    coded * CODE_MIN_SAVING <= raw * (CODE_MIN_SAVING - 1)
}

/// Store one varint stream as a segment: a tag byte, then the body.
fn pack_segment(raw: &[u8]) -> Vec<u8> {
    let coded = compress(raw);
    let (tag, body) = if pays_to_code(coded.len(), raw.len()) {
        (CODED, &coded[..])
    } else {
        (PLAIN, raw)
    };
    [&[tag], body].concat()
}

/// The varint stream a segment stores: borrowed in place when plain,
/// range-decoded when coded.
fn unpack_segment(seg: &[u8]) -> Result<Cow<'_, [u8]>, DecodeError> {
    match seg.split_first() {
        Some((&PLAIN, body)) => Ok(Cow::Borrowed(body)),
        Some((&CODED, body)) => Ok(Cow::Owned(decompress(body)?)),
        _ => Err(DecodeError),
    }
}

impl CompressedMesh {
    /// Highest decodable LOD (0 = base only).
    #[inline]
    pub fn max_lod(&self) -> usize {
        self.segments.len() - 1
    }

    /// Compressed byte size of each segment, tag included (Fig 9's per-LOD
    /// breakdown).
    pub fn segment_sizes(&self) -> Vec<usize> {
        self.segments.iter().map(Vec::len).collect()
    }

    /// Whether each segment is stored as plain varint bytes rather than
    /// range-coded.
    pub fn plain_segments(&self) -> Vec<bool> {
        self.segments
            .iter()
            .map(|s| s.first() == Some(&PLAIN))
            .collect()
    }

    /// Total compressed payload size in bytes (excluding container framing).
    pub fn payload_size(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Minimal bounding box, available without any decoding: the quantiser
    /// grid spans exactly the object's bounding box.
    pub fn aabb(&self) -> Aabb {
        let q = &self.quantizer;
        let m = q.max_index();
        let lo = q.dequantize([0, 0, 0]);
        let hi = q.dequantize([m, m, m]);
        Aabb::from_corners(
            tripro_geom::vec3(lo[0], lo[1], lo[2]),
            tripro_geom::vec3(hi[0], hi[1], hi[2]),
        )
    }

    /// Serialise to a self-describing byte container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        self.quantizer.write(&mut out);
        tripro_coder::write_u64(&mut out, self.segments.len() as u64);
        for s in self.segments.iter() {
            tripro_coder::write_u64(&mut out, s.len() as u64);
        }
        for s in self.segments.iter() {
            out.extend_from_slice(s);
        }
        out
    }

    /// Parse a container produced by [`CompressedMesh::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(buf);
        if r.read_exact(4)? != MAGIC {
            return Err(DecodeError);
        }
        if r.read_byte()? != VERSION {
            return Err(DecodeError);
        }
        let quantizer = Quantizer::read(&mut r)?;
        let n = r.read_usize()?;
        if n == 0 || n > 64 {
            return Err(DecodeError);
        }
        let mut lens = Vec::with_capacity(n);
        for _ in 0..n {
            lens.push(r.read_usize()?);
        }
        let mut segments = Vec::with_capacity(n);
        for len in lens {
            segments.push(r.read_exact(len)?.to_vec());
        }
        Ok(Self {
            quantizer,
            segments: segments.into(),
        })
    }

    /// Start a progressive decode at LOD 0.
    pub fn decoder(&self) -> Result<ProgressiveMesh, DecodeError> {
        ProgressiveMesh::new(self)
    }
}

/// Compress a triangle mesh with PPVP.
///
/// The mesh must be a closed, consistently oriented 2-manifold; violations
/// are reported as [`MeshError`].
pub fn encode(tm: &TriMesh, cfg: &EncoderConfig) -> Result<CompressedMesh, MeshError> {
    let (mut mesh, quantizer) = quantize_mesh(tm, cfg.bits)?;
    mesh.validate_closed_manifold()?;

    // Decimate.
    let total_rounds = cfg.max_lod * cfg.rounds_per_lod;
    let mut rounds: Vec<Vec<RemovalEvent>> = Vec::new();
    for _ in 0..total_rounds {
        let events = decimate_round(&mut mesh, cfg.mode);
        if events.is_empty() {
            break;
        }
        rounds.push(events);
    }

    // Map encoder vertex ids to decoder ids: base vertices first (ascending
    // id), then insertion order (rounds reversed, events reversed).
    let bound = mesh.vertex_id_bound() as usize;
    let mut map = vec![u32::MAX; bound];
    let mut next: u32 = 0;
    let mut base_ids = Vec::with_capacity(mesh.vertex_count());
    for v in mesh.vertex_ids() {
        map[v as usize] = next;
        base_ids.push(v);
        next += 1;
    }
    for round in rounds.iter().rev() {
        for ev in round.iter().rev() {
            map[ev.removed as usize] = next;
            next += 1;
        }
    }

    // Segment 0: the base mesh.
    let mut segments = Vec::new();
    segments.push(pack_segment(&serialize_base(&mesh, &base_ids, &map)));

    // LOD segments: chunk the reversed rounds, `rounds_per_lod` per step.
    // The deepest decode segments carry the coarsest refinements. Event
    // fields are laid out *columnar* (all ring sizes, then all ring-id
    // deltas, then all position deltas): each column has a homogeneous
    // value distribution, which the adaptive order-0 entropy model exploits
    // far better than an interleaved stream when the segment is coded.
    let decode_rounds: Vec<&Vec<RemovalEvent>> = rounds.iter().rev().collect();
    for chunk in decode_rounds.chunks(cfg.rounds_per_lod) {
        let mut ks = Vec::new();
        let mut rings = Vec::new();
        let mut positions = Vec::new();
        let mut n_events = 0usize;
        // Consecutive events touch nearby regions (encoder vertex ids track
        // the generator's spatial scan order), so chaining each event's fan
        // anchor to the previous one keeps the deltas small.
        let mut prev_anchor: i64 = 0;
        for round in chunk {
            for ev in round.iter().rev() {
                prev_anchor = serialize_event(
                    &mut ks,
                    &mut rings,
                    &mut positions,
                    &mesh,
                    ev,
                    &map,
                    prev_anchor,
                );
                n_events += 1;
            }
        }
        let mut raw = Vec::new();
        tripro_coder::write_u64(&mut raw, n_events as u64);
        tripro_coder::write_u64(&mut raw, ks.len() as u64);
        tripro_coder::write_u64(&mut raw, rings.len() as u64);
        raw.extend_from_slice(&ks);
        raw.extend_from_slice(&rings);
        raw.extend_from_slice(&positions);
        segments.push(pack_segment(&raw));
    }

    let cm = CompressedMesh {
        quantizer,
        segments: segments.into(),
    };
    // Under strict-invariants, prove the ladder we just wrote actually has
    // the subset property the query processor relies on (P1/P2, §3).
    #[cfg(feature = "strict-invariants")]
    crate::invariant::check_lod_ladder(&cm)?;
    Ok(cm)
}

fn serialize_base(mesh: &Mesh, base_ids: &[VertId], map: &[u32]) -> Vec<u8> {
    let mut raw = Vec::new();
    tripro_coder::write_u64(&mut raw, base_ids.len() as u64);
    let mut prev = IVec3::ZERO;
    for &v in base_ids {
        let p = mesh.position(v);
        tripro_coder::write_i64(&mut raw, p.x - prev.x);
        tripro_coder::write_i64(&mut raw, p.y - prev.y);
        tripro_coder::write_i64(&mut raw, p.z - prev.z);
        prev = p;
    }
    tripro_coder::write_u64(&mut raw, mesh.face_count() as u64);
    // Faces: first corner as a delta chain, the other two relative to it.
    let mut prev_a: i64 = 0;
    for f in mesh.face_ids() {
        let [a, b, c] = mesh.face(f);
        let (a, b, c) = (
            map[a as usize] as i64,
            map[b as usize] as i64,
            map[c as usize] as i64,
        );
        tripro_coder::write_i64(&mut raw, a - prev_a);
        tripro_coder::write_i64(&mut raw, b - a);
        tripro_coder::write_i64(&mut raw, c - a);
        prev_a = a;
    }
    raw
}

fn serialize_event(
    ks: &mut Vec<u8>,
    rings: &mut Vec<u8>,
    positions: &mut Vec<u8>,
    mesh: &Mesh,
    ev: &RemovalEvent,
    map: &[u32],
    prev_anchor: i64,
) -> i64 {
    let k = ev.ring.len();
    tripro_coder::write_u64(ks, k as u64);
    let anchor = map[ev.ring[0] as usize] as i64;
    let mut prev: i64 = prev_anchor;
    for &r in &ev.ring {
        let id = map[r as usize] as i64;
        tripro_coder::write_i64(rings, id - prev);
        prev = id;
    }
    // Position as a delta from the integer centroid of the ring. Vertex
    // positions are immutable per id, so even ring members removed by later
    // rounds still report their position via `position_any`; the decoder
    // computes the identical centroid from its live mesh at insertion time.
    let mut s = IVec3::ZERO;
    for &r in &ev.ring {
        s = s + mesh.position_any(r);
    }
    let kk = k as i64;
    let c = ivec3(s.x / kk, s.y / kk, s.z / kk);
    tripro_coder::write_i64(positions, ev.pos.x - c.x);
    tripro_coder::write_i64(positions, ev.pos.y - c.y);
    tripro_coder::write_i64(positions, ev.pos.z - c.z);
    anchor
}

/// A progressively decodable mesh: starts at LOD 0, refines on demand.
pub struct ProgressiveMesh {
    quantizer: Quantizer,
    /// The object's stored segments, shared with its [`CompressedMesh`]
    /// (index = LOD).
    segments: Arc<[Vec<u8>]>,
    state: Mesh,
    current_lod: usize,
}

impl ProgressiveMesh {
    fn new(cm: &CompressedMesh) -> Result<Self, DecodeError> {
        let state = parse_base(&unpack_segment(&cm.segments[0])?)?;
        Ok(Self {
            quantizer: cm.quantizer,
            segments: Arc::clone(&cm.segments),
            state,
            current_lod: 0,
        })
    }

    /// Highest LOD this object can reach.
    #[inline]
    pub fn max_lod(&self) -> usize {
        self.segments.len() - 1
    }

    /// LOD of the current state.
    #[inline]
    pub fn current_lod(&self) -> usize {
        self.current_lod
    }

    /// Refine the mesh up to `lod` (no-op when already there or beyond).
    pub fn decode_to(&mut self, lod: usize) -> Result<(), DecodeError> {
        let lod = lod.min(self.max_lod());
        while self.current_lod < lod {
            let next = self.current_lod + 1;
            let raw = unpack_segment(&self.segments[next])?;
            apply_segment(&mut self.state, &raw)?;
            self.current_lod = next;
        }
        Ok(())
    }

    /// Current-mesh triangles in world coordinates.
    pub fn triangles(&self) -> Vec<Triangle> {
        self.state.triangles(&self.quantizer)
    }

    /// Borrow the current editable mesh state.
    pub fn mesh(&self) -> &Mesh {
        &self.state
    }

    /// The quantiser used by this object.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }
}

fn parse_base(raw: &[u8]) -> Result<Mesh, DecodeError> {
    let mut r = ByteReader::new(raw);
    let n = r.read_usize()?;
    let mut mesh = Mesh::new();
    let mut prev = IVec3::ZERO;
    for _ in 0..n {
        let x = prev.x + r.read_i64()?;
        let y = prev.y + r.read_i64()?;
        let z = prev.z + r.read_i64()?;
        prev = ivec3(x, y, z);
        mesh.add_vertex(prev);
    }
    let nf = r.read_usize()?;
    let mut prev_a: i64 = 0;
    for _ in 0..nf {
        let a = prev_a + r.read_i64()?;
        let b = a + r.read_i64()?;
        let c = a + r.read_i64()?;
        prev_a = a;
        let bound = mesh.vertex_id_bound() as i64;
        if !(0..bound).contains(&a) || !(0..bound).contains(&b) || !(0..bound).contains(&c) {
            return Err(DecodeError);
        }
        mesh.try_add_face(a as u32, b as u32, c as u32)
            .map_err(|_| DecodeError)?;
    }
    Ok(mesh)
}

fn apply_segment(mesh: &mut Mesh, raw: &[u8]) -> Result<(), DecodeError> {
    // Columnar layout: header, then the ring-size, ring-id-delta and
    // position-delta columns (see the encoder for the rationale).
    let mut header = ByteReader::new(raw);
    let n_events = header.read_usize()?;
    let ks_len = header.read_usize()?;
    let rings_len = header.read_usize()?;
    let body = &raw[header.position()..];
    if ks_len.saturating_add(rings_len) > body.len() {
        return Err(DecodeError);
    }
    let mut ks = ByteReader::new(&body[..ks_len]);
    let mut rings = ByteReader::new(&body[ks_len..ks_len + rings_len]);
    let mut positions = ByteReader::new(&body[ks_len + rings_len..]);

    let mut prev_anchor: i64 = 0;
    for _ in 0..n_events {
        let k = ks.read_usize()?;
        if !(3..=64).contains(&k) {
            return Err(DecodeError);
        }
        let mut ring = Vec::with_capacity(k);
        let mut prev: i64 = prev_anchor;
        for _ in 0..k {
            let id = prev + rings.read_i64()?;
            if id < 0 || id as u32 >= mesh.vertex_id_bound() || !mesh.is_vertex_alive(id as u32) {
                return Err(DecodeError);
            }
            ring.push(id as u32);
            prev = id;
        }
        prev_anchor = ring[0] as i64;
        let c = centroid_of(mesh, &ring);
        let x = c.x + positions.read_i64()?;
        let y = c.y + positions.read_i64()?;
        let z = c.z + positions.read_i64()?;
        let expected = mesh.vertex_id_bound();
        crate::decimate::try_apply_insertion(mesh, &ring, ivec3(x, y, z), expected)
            .map_err(|_| DecodeError)?;
    }
    Ok(())
}

/// Integer centroid of ring positions (component-wise floor of the mean;
/// grid coordinates are non-negative so `/` is floor).
fn centroid_of(mesh: &Mesh, ring: &[VertId]) -> IVec3 {
    let mut s = IVec3::ZERO;
    for &v in ring {
        s = s + mesh.position(v);
    }
    let k = ring.len() as i64;
    ivec3(s.x / k, s.y / k, s.z / k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cube, sphere};
    use tripro_geom::{mesh_volume, vec3};

    fn sphere_mesh() -> TriMesh {
        sphere(vec3(10.0, 10.0, 10.0), 4.0, 3) // 512 faces
    }

    #[test]
    fn roundtrip_to_max_lod_is_lossless_on_grid() {
        let tm = sphere_mesh();
        let cfg = EncoderConfig::default();
        let cm = encode(&tm, &cfg).unwrap();
        assert!(cm.max_lod() >= 1, "sphere must compress to multiple LODs");

        let mut dec = cm.decoder().unwrap();
        dec.decode_to(dec.max_lod()).unwrap();
        let m = dec.mesh();
        m.validate_closed_manifold().unwrap();
        // Same topology counts as the original.
        assert_eq!(m.face_count(), tm.faces.len());
        assert_eq!(m.vertex_count(), tm.vertices.len());
        // Identical geometry up to quantisation error.
        let v_orig = tm.volume();
        let v_dec = mesh_volume(&dec.triangles());
        assert!(
            (v_orig - v_dec).abs() / v_orig < 1e-3,
            "{v_orig} vs {v_dec}"
        );
    }

    #[test]
    fn lods_shrink_face_counts_roughly_halving() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut dec = cm.decoder().unwrap();
        let mut counts = vec![dec.mesh().face_count()];
        for lod in 1..=dec.max_lod() {
            dec.decode_to(lod).unwrap();
            counts.push(dec.mesh().face_count());
        }
        for w in counts.windows(2) {
            assert!(w[0] < w[1], "face count must grow with LOD: {counts:?}");
        }
        // §6.5: two rounds of decimation roughly halve the face count, so
        // each LOD step should roughly double it (loose bounds).
        for w in counts.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(
                ratio > 1.2 && ratio < 4.0,
                "ratio {ratio} out of range: {counts:?}"
            );
        }
    }

    #[test]
    fn ppvp_volume_monotonically_grows_with_lod() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut dec = cm.decoder().unwrap();
        let mut prev = dec.mesh().signed_volume6();
        assert!(prev > 0);
        for lod in 1..=dec.max_lod() {
            dec.decode_to(lod).unwrap();
            let v = dec.mesh().signed_volume6();
            assert!(
                v >= prev,
                "PPVP subset property violated at LOD {lod}: {v} < {prev}"
            );
            prev = v;
        }
    }

    #[test]
    fn every_lod_is_valid_manifold() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut dec = cm.decoder().unwrap();
        dec.mesh().validate_closed_manifold().unwrap();
        for lod in 1..=dec.max_lod() {
            dec.decode_to(lod).unwrap();
            dec.mesh().validate_closed_manifold().unwrap();
        }
    }

    #[test]
    fn container_roundtrip() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let bytes = cm.to_bytes();
        let cm2 = CompressedMesh::from_bytes(&bytes).unwrap();
        assert_eq!(cm, cm2);
        assert!(CompressedMesh::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(CompressedMesh::from_bytes(b"nope").is_err());
    }

    #[test]
    fn compression_beats_raw_size() {
        let tm = sphere_mesh();
        // Raw size: 24 bytes per vertex + 12 per face.
        let raw = tm.vertices.len() * 24 + tm.faces.len() * 12;
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        assert!(
            cm.payload_size() * 3 < raw,
            "compressed {} vs raw {raw}",
            cm.payload_size()
        );
    }

    #[test]
    fn aabb_matches_without_decoding() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let bb = cm.aabb();
        let truth = tm.aabb();
        assert!((bb.lo - truth.lo).norm() < 1e-9);
        assert!((bb.hi - truth.hi).norm() < 1e-9);
    }

    #[test]
    fn decode_is_incremental_and_idempotent() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut a = cm.decoder().unwrap();
        let mut b = cm.decoder().unwrap();
        a.decode_to(a.max_lod()).unwrap();
        // b reaches the same state stepwise with redundant calls.
        for lod in 0..=b.max_lod() {
            b.decode_to(lod).unwrap();
            b.decode_to(lod).unwrap();
        }
        b.decode_to(99).unwrap(); // clamped
        assert_eq!(a.mesh().face_count(), b.mesh().face_count());
        assert_eq!(a.mesh().signed_volume6(), b.mesh().signed_volume6());
    }

    #[test]
    fn ppmc_like_mode_also_roundtrips() {
        let tm = sphere_mesh();
        let cfg = EncoderConfig {
            mode: PruneMode::Any,
            ..Default::default()
        };
        let cm = encode(&tm, &cfg).unwrap();
        let mut dec = cm.decoder().unwrap();
        dec.decode_to(dec.max_lod()).unwrap();
        assert_eq!(dec.mesh().face_count(), tm.faces.len());
        dec.mesh().validate_closed_manifold().unwrap();
    }

    #[test]
    fn cube_with_few_vertices_still_encodes() {
        let tm = cube(vec3(0.0, 0.0, 0.0), 2.0);
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut dec = cm.decoder().unwrap();
        dec.decode_to(dec.max_lod()).unwrap();
        assert_eq!(dec.mesh().face_count(), 12);
    }

    #[test]
    fn non_manifold_input_rejected() {
        let mut tm = cube(vec3(0.0, 0.0, 0.0), 2.0);
        tm.faces.pop(); // open the surface
        assert!(matches!(
            encode(&tm, &EncoderConfig::default()),
            Err(MeshError::NotClosedManifold(_))
        ));
    }

    /// `cm` with every segment re-stored under `tag`.
    fn retagged(cm: &CompressedMesh, tag: u8) -> CompressedMesh {
        let segments = cm
            .segments
            .iter()
            .map(|seg| {
                let raw = unpack_segment(seg).unwrap();
                let body = if tag == CODED {
                    compress(&raw)
                } else {
                    raw.to_vec()
                };
                [&[tag], &body[..]].concat()
            })
            .collect();
        CompressedMesh {
            quantizer: cm.quantizer,
            segments,
        }
    }

    #[test]
    fn plain_and_coded_segments_decode_to_the_same_mesh() {
        let cm = encode(&sphere_mesh(), &EncoderConfig::default()).unwrap();
        let (plain, coded) = (retagged(&cm, PLAIN), retagged(&cm, CODED));
        assert!(plain.plain_segments().iter().all(|&p| p));
        assert!(coded.plain_segments().iter().all(|&p| !p));
        let (mut a, mut b) = (plain.decoder().unwrap(), coded.decoder().unwrap());
        for lod in 0..=cm.max_lod() {
            a.decode_to(lod).unwrap();
            b.decode_to(lod).unwrap();
            assert_eq!(a.triangles(), b.triangles(), "LOD {lod}");
        }
    }

    #[test]
    fn a_segment_is_coded_only_when_that_saves_a_sixteenth() {
        // The line itself: 150 of 160 bytes saves exactly 1/16.
        assert!(pays_to_code(150, 160));
        assert!(!pays_to_code(151, 160));
        assert!(!pays_to_code(160, 160));
        // Through the encoder's packing: a skewed stream codes far below
        // the line, a pseudo-random one does not shrink at all.
        let skewed = vec![3u8; 4096];
        let packed = pack_segment(&skewed);
        assert_eq!(packed[0], CODED);
        assert_eq!(&*unpack_segment(&packed).unwrap(), &skewed[..]);
        let mut x: u64 = 7;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let packed = pack_segment(&noise);
        assert_eq!(packed, [&[PLAIN], &noise[..]].concat());
    }

    #[test]
    fn unknown_tag_or_empty_segment_is_a_decode_error() {
        let cm = encode(&sphere_mesh(), &EncoderConfig::default()).unwrap();
        let with = |lod: usize, seg: Vec<u8>| {
            let mut segments = cm.segments.to_vec();
            segments[lod] = seg;
            CompressedMesh {
                quantizer: cm.quantizer,
                segments: segments.into(),
            }
        };
        let mut retag = cm.segments[0].clone();
        retag[0] = 2;
        assert!(with(0, retag).decoder().is_err());
        assert!(with(0, Vec::new()).decoder().is_err());
        for seg in [vec![2], Vec::new()] {
            let bad = with(1, seg);
            let mut dec = bad.decoder().unwrap();
            assert_eq!(dec.decode_to(1), Err(DecodeError));
            // The bytes round-trip through the container and still fail.
            let back = CompressedMesh::from_bytes(&bad.to_bytes()).unwrap();
            assert!(back.decoder().unwrap().decode_to(1).is_err());
        }
    }

    #[test]
    fn segment_sizes_sum_to_payload() {
        let tm = sphere_mesh();
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let sizes = cm.segment_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), cm.payload_size());
        assert_eq!(sizes.len(), cm.max_lod() + 1);
    }
}
