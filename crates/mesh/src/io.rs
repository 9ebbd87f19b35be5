//! Mesh file I/O: Wavefront OBJ and OFF, the two formats 3D pathology
//! pipelines and mesh-processing tools commonly exchange. Only geometry is
//! handled (vertices + triangular faces); normals/texcoords in OBJ input
//! are accepted and ignored.

use crate::trimesh::TriMesh;
use std::io::{BufRead, Write};
use std::path::Path;
use tripro_geom::vec3;

/// Errors from mesh file parsing.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// Malformed content, with a line number and description.
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(line, what) => write!(f, "parse error at line {line}: {what}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse a Wavefront OBJ document. Faces with more than three corners are
/// fan-triangulated; `v`-lines must have at least 3 coordinates; indices
/// may be negative (relative) per the OBJ specification.
pub fn parse_obj(reader: impl BufRead) -> Result<TriMesh, IoError> {
    let mut vertices = Vec::new();
    let mut faces = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let mut it = line.split_whitespace();
        match it.next() {
            Some("v") => {
                let mut c = [0.0f64; 3];
                for (i, v) in c.iter_mut().enumerate() {
                    let tok = it.next().ok_or_else(|| {
                        IoError::Parse(lineno, format!("vertex needs 3 coords, got {i}"))
                    })?;
                    *v = tok
                        .parse()
                        .map_err(|_| IoError::Parse(lineno, format!("bad coordinate {tok:?}")))?;
                }
                vertices.push(vec3(c[0], c[1], c[2]));
            }
            Some("f") => {
                let mut idx = Vec::new();
                for tok in it {
                    // "v", "v/vt", "v//vn", "v/vt/vn" — take the first field.
                    let first = tok.split('/').next().unwrap_or("");
                    let i: i64 = first
                        .parse()
                        .map_err(|_| IoError::Parse(lineno, format!("bad face index {tok:?}")))?;
                    let resolved = if i > 0 {
                        (i - 1) as usize
                    } else if i < 0 {
                        let n = vertices.len() as i64 + i;
                        if n < 0 {
                            return Err(IoError::Parse(
                                lineno,
                                format!("relative index {i} out of range"),
                            ));
                        }
                        n as usize
                    } else {
                        return Err(IoError::Parse(lineno, "face index 0 is invalid".into()));
                    };
                    if resolved >= vertices.len() {
                        return Err(IoError::Parse(
                            lineno,
                            format!(
                                "face references vertex {} of {}",
                                resolved + 1,
                                vertices.len()
                            ),
                        ));
                    }
                    idx.push(resolved as u32);
                }
                if idx.len() < 3 {
                    return Err(IoError::Parse(
                        lineno,
                        "face needs at least 3 corners".into(),
                    ));
                }
                for i in 1..idx.len() - 1 {
                    faces.push([idx[0], idx[i], idx[i + 1]]);
                }
            }
            // Comments, groups, materials, normals, texcoords: ignored.
            _ => {}
        }
    }
    Ok(TriMesh::new(vertices, faces))
}

/// Load an OBJ file.
pub fn load_obj(path: impl AsRef<Path>) -> Result<TriMesh, IoError> {
    let f = std::fs::File::open(path)?;
    parse_obj(std::io::BufReader::new(f))
}

/// Write a `TriMesh` as OBJ.
pub fn save_obj(path: impl AsRef<Path>, tm: &TriMesh) -> Result<(), IoError> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# tripro export: {} vertices, {} faces",
        tm.vertices.len(),
        tm.faces.len()
    )?;
    for v in &tm.vertices {
        writeln!(w, "v {} {} {}", v.x, v.y, v.z)?;
    }
    for f in &tm.faces {
        writeln!(w, "f {} {} {}", f[0] + 1, f[1] + 1, f[2] + 1)?;
    }
    Ok(())
}

/// Parse an OFF document (the header keyword, a count line, vertex lines,
/// then polygon lines prefixed by their corner count).
pub fn parse_off(reader: impl BufRead) -> Result<TriMesh, IoError> {
    let mut tokens: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let body = line.split('#').next().unwrap_or("");
        for t in body.split_whitespace() {
            tokens.push((lineno + 1, t.to_string()));
        }
    }
    let mut pos = 0usize;
    let mut next = |what: &str| -> Result<(usize, String), IoError> {
        let t = tokens.get(pos).cloned().ok_or_else(|| {
            IoError::Parse(tokens.last().map_or(0, |t| t.0), format!("missing {what}"))
        })?;
        pos += 1;
        Ok(t)
    };
    let (l0, header) = next("OFF header")?;
    if header != "OFF" {
        return Err(IoError::Parse(
            l0,
            format!("expected OFF header, got {header:?}"),
        ));
    }
    let parse_usize = |(l, t): (usize, String)| -> Result<usize, IoError> {
        t.parse()
            .map_err(|_| IoError::Parse(l, format!("bad count {t:?}")))
    };
    let parse_f64 = |(l, t): (usize, String)| -> Result<f64, IoError> {
        t.parse()
            .map_err(|_| IoError::Parse(l, format!("bad number {t:?}")))
    };
    let nv = parse_usize(next("vertex count")?)?;
    let nf = parse_usize(next("face count")?)?;
    let _ne = parse_usize(next("edge count")?)?;
    // Reserve no more than the tokens can fill (3 per vertex, at least 4
    // per face), so a lying header cannot size an allocation.
    let left = tokens.len();
    let mut vertices = Vec::with_capacity(nv.min(left / 3));
    for _ in 0..nv {
        let x = parse_f64(next("x")?)?;
        let y = parse_f64(next("y")?)?;
        let z = parse_f64(next("z")?)?;
        vertices.push(vec3(x, y, z));
    }
    let mut faces = Vec::with_capacity(nf.min(left / 4));
    for _ in 0..nf {
        let k = parse_usize(next("face arity")?)?;
        if k < 3 {
            return Err(IoError::Parse(0, format!("face arity {k} < 3")));
        }
        let mut idx = Vec::with_capacity(k.min(left));
        for _ in 0..k {
            let (l, t) = next("face index")?;
            let i: usize = t
                .parse()
                .map_err(|_| IoError::Parse(l, format!("bad index {t:?}")))?;
            if i >= vertices.len() {
                return Err(IoError::Parse(
                    l,
                    format!("face references vertex {i} of {nv}"),
                ));
            }
            idx.push(i as u32);
        }
        for i in 1..idx.len() - 1 {
            faces.push([idx[0], idx[i], idx[i + 1]]);
        }
    }
    Ok(TriMesh::new(vertices, faces))
}

/// Load an OFF file.
pub fn load_off(path: impl AsRef<Path>) -> Result<TriMesh, IoError> {
    let f = std::fs::File::open(path)?;
    parse_off(std::io::BufReader::new(f))
}

/// Write a `TriMesh` as OFF.
pub fn save_off(path: impl AsRef<Path>, tm: &TriMesh) -> Result<(), IoError> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "OFF")?;
    writeln!(w, "{} {} 0", tm.vertices.len(), tm.faces.len())?;
    for v in &tm.vertices {
        writeln!(w, "{} {} {}", v.x, v.y, v.z)?;
    }
    for f in &tm.faces {
        writeln!(w, "3 {} {} {}", f[0], f[1], f[2])?;
    }
    Ok(())
}

/// Load by extension (`.obj` or `.off`, case-insensitive).
pub fn load_mesh(path: impl AsRef<Path>) -> Result<TriMesh, IoError> {
    let p = path.as_ref();
    match p
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("obj") => load_obj(p),
        Some("off") => load_off(p),
        other => Err(IoError::Parse(
            0,
            format!("unsupported mesh extension {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sphere;
    use std::io::Cursor;

    #[test]
    fn obj_roundtrip() {
        let tm = sphere(vec3(1.0, 2.0, 3.0), 1.5, 2);
        let path = std::env::temp_dir().join(format!("tripro_io_{}.obj", std::process::id()));
        save_obj(&path, &tm).unwrap();
        let back = load_obj(&path).unwrap();
        assert_eq!(back.vertices.len(), tm.vertices.len());
        assert_eq!(back.faces, tm.faces);
        assert!((back.volume() - tm.volume()).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn off_roundtrip() {
        let tm = sphere(vec3(0.0, 0.0, 0.0), 2.0, 1);
        let path = std::env::temp_dir().join(format!("tripro_io_{}.off", std::process::id()));
        save_off(&path, &tm).unwrap();
        let back = load_off(&path).unwrap();
        assert_eq!(back.faces, tm.faces);
        assert!((back.volume() - tm.volume()).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn obj_with_slashes_and_quads() {
        let src = "\
# comment
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
vn 0 0 1
f 1/1/1 2/2/1 3/3/1 4/4/1
";
        let tm = parse_obj(Cursor::new(src)).unwrap();
        assert_eq!(tm.vertices.len(), 4);
        // Quad fan-triangulated.
        assert_eq!(tm.faces, vec![[0, 1, 2], [0, 2, 3]]);
    }

    #[test]
    fn obj_negative_indices() {
        let src = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n";
        let tm = parse_obj(Cursor::new(src)).unwrap();
        assert_eq!(tm.faces, vec![[0, 1, 2]]);
    }

    #[test]
    fn obj_errors() {
        assert!(parse_obj(Cursor::new("v 1 2\n")).is_err(), "short vertex");
        assert!(
            parse_obj(Cursor::new("v 1 2 3\nf 1 2 9\n")).is_err(),
            "oob index"
        );
        assert!(
            parse_obj(Cursor::new("v 1 2 3\nf 0 1 1\n")).is_err(),
            "index zero"
        );
        assert!(parse_obj(Cursor::new("v a b c\n")).is_err(), "bad number");
        assert!(
            parse_obj(Cursor::new("v 1 2 3\nf 1 2\n")).is_err(),
            "short face"
        );
    }

    #[test]
    fn off_lying_header_is_a_parse_error() {
        let err = parse_off(Cursor::new("OFF\n4611686018427387904 1 0")).unwrap_err();
        assert!(matches!(err, IoError::Parse(..)), "{err}");
    }

    #[test]
    fn off_parses_polygons_and_comments() {
        let src = "\
OFF # header comment
4 1 0
0 0 0
1 0 0
1 1 0
0 1 0
4 0 1 2 3
";
        let tm = parse_off(Cursor::new(src)).unwrap();
        assert_eq!(tm.vertices.len(), 4);
        assert_eq!(tm.faces.len(), 2);
    }

    #[test]
    fn off_errors() {
        assert!(parse_off(Cursor::new("NOT_OFF\n")).is_err());
        assert!(
            parse_off(Cursor::new("OFF\n1 0 0\n0 0\n")).is_err(),
            "truncated vertex"
        );
        assert!(parse_off(Cursor::new("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")).is_err());
    }

    #[test]
    fn load_mesh_dispatches_on_extension() {
        let tm = sphere(vec3(0.0, 0.0, 0.0), 1.0, 0);
        let dir = std::env::temp_dir();
        let obj = dir.join(format!("tripro_dis_{}.obj", std::process::id()));
        let off = dir.join(format!("tripro_dis_{}.OFF", std::process::id()));
        save_obj(&obj, &tm).unwrap();
        save_off(&off, &tm).unwrap();
        assert_eq!(load_mesh(&obj).unwrap().faces.len(), 8);
        assert_eq!(load_mesh(&off).unwrap().faces.len(), 8);
        assert!(load_mesh(dir.join("x.stl")).is_err());
        let _ = std::fs::remove_file(obj);
        let _ = std::fs::remove_file(off);
    }
}
