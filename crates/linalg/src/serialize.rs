//! JSON serialization of [`Similarity`] values — the persistence format of
//! the serving layer's precomputation cache.
//!
//! A cached factor is only reusable if loading it back reproduces the
//! original *bit for bit*: the serving contract is that a warm (cache-hit)
//! request returns a matching identical to the cold run's. The
//! `graphalign-json` printer emits every `f64` in shortest-roundtrip form
//! (and integers < 2^53 exactly), so the round trip here is exact — except
//! for NaN/infinities, which JSON cannot represent; [`similarity_to_json`]
//! therefore refuses non-finite input instead of silently corrupting it.
//!
//! The format carries a `repr` discriminant mirroring
//! [`Similarity::repr_kind`] plus a `format` version tag; readers reject
//! unknown versions so stale cache files miss instead of aliasing.

use crate::dense::DenseMatrix;
use crate::lowrank::{LowRankKernel, LowRankSim};
use crate::similarity::Similarity;
use crate::sparse::CsrMatrix;
use graphalign_json::Json;

/// Version tag embedded in every serialized similarity; bump on any layout
/// change so old cache entries are ignored rather than misread.
pub const FORMAT: &str = "similarity/v1";

/// FNV-1a 64-bit hash — the content checksum of persisted cache entries.
/// Stable across runs and platforms, so a restarted server can verify
/// entries written by a previous process.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Serializes a similarity as a crash-evident two-line disk entry:
///
/// ```text
/// {"format":"similarity/v1","checksum":"<fnv1a-64 hex>","bytes":<payload len>}
/// <compact similarity/v1 JSON payload>
/// ```
///
/// The header carries the payload's exact byte length and FNV-1a checksum,
/// so [`from_checksummed_str`] detects both truncation (a torn write that
/// lost the tail) and in-place corruption (bit flips) without re-parsing a
/// possibly-garbage payload into a plausible-but-wrong similarity.
///
/// # Errors
/// Propagates [`similarity_to_json`]'s refusal of non-finite entries.
pub fn to_checksummed_string(sim: &Similarity) -> Result<String, String> {
    let payload = similarity_to_json(sim)?.to_string_compact();
    Ok(format!(
        "{{\"format\":{FORMAT:?},\"checksum\":\"{:016x}\",\"bytes\":{}}}\n{payload}\n",
        fnv1a_64(payload.as_bytes()),
        payload.len()
    ))
}

/// Deserializes an entry written by [`to_checksummed_string`], verifying the
/// envelope ([`checked_payload`]) before decoding the payload against the
/// expected `(rows, cols)` shape ([`similarity_from_json`]).
///
/// # Errors
/// Returns a human-readable message on a missing or malformed header, a
/// truncated payload, a checksum mismatch, or any payload-level decode
/// failure — callers quarantine such entries instead of serving them.
pub fn from_checksummed_str(text: &str, shape: (usize, usize)) -> Result<Similarity, String> {
    let payload = checked_payload(text)?;
    let json =
        graphalign_json::from_str(payload).map_err(|e| format!("corrupt entry payload: {e:?}"))?;
    similarity_from_json(&json, shape)
}

/// Verifies the envelope of an entry written by [`to_checksummed_string`]
/// — header, declared payload length and checksum — and returns the payload
/// without parsing it. This is what catches torn writes and bit flips.
///
/// # Errors
/// Returns a human-readable message on a missing or malformed header, a
/// truncated payload or a checksum mismatch.
pub fn checked_payload(text: &str) -> Result<&str, String> {
    let (header_line, rest) =
        text.split_once('\n').ok_or("truncated entry: no payload line after the header")?;
    let header = graphalign_json::from_str(header_line)
        .map_err(|e| format!("corrupt entry header: {e:?}"))?;
    let format = field(&header, "format")?.as_str().ok_or("header format not a string")?;
    if format != FORMAT {
        return Err(format!("unsupported entry format {format:?} (expected {FORMAT:?})"));
    }
    let declared = field_usize(&header, "bytes")?;
    let checksum = field(&header, "checksum")?.as_str().ok_or("header checksum not a string")?;
    // The final newline is the commit marker: a write that died before it
    // is treated as truncated even when the payload itself is complete.
    let payload = rest
        .strip_suffix('\n')
        .ok_or("truncated entry: payload line is missing its trailing newline")?;
    if payload.len() != declared {
        return Err(format!(
            "truncated entry: payload is {} bytes, header declares {declared}",
            payload.len()
        ));
    }
    let actual = format!("{:016x}", fnv1a_64(payload.as_bytes()));
    if actual != checksum {
        return Err(format!("checksum mismatch: header {checksum:?}, payload {actual:?}"));
    }
    Ok(payload)
}

fn num_array(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::Num).collect())
}

fn dense_to_json(m: &DenseMatrix) -> Json {
    Json::Obj(vec![
        ("rows".into(), Json::Num(m.rows() as f64)),
        ("cols".into(), Json::Num(m.cols() as f64)),
        ("data".into(), num_array(m.as_slice().iter().copied())),
    ])
}

fn dense_from_json(v: &Json) -> Result<DenseMatrix, String> {
    let rows = field_usize(v, "rows")?;
    let cols = field_usize(v, "cols")?;
    let data = field_f64_vec(v, "data")?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(format!("dense data length {} != {rows}x{cols}", data.len()));
    }
    Ok(DenseMatrix::from_vec(rows, cols, data))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn field_usize(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key)?.as_f64().map(|n| n as usize).ok_or_else(|| format!("field {key:?} not a number"))
}

fn field_f64_vec(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} not an array"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric entry in {key:?}")))
        .collect()
}

fn field_usize_vec(v: &Json, key: &str) -> Result<Vec<usize>, String> {
    Ok(field_f64_vec(v, key)?.into_iter().map(|n| n as usize).collect())
}

/// Parses a [`LowRankKernel`] from its [`LowRankKernel::as_str`] name.
pub fn kernel_from_str(s: &str) -> Option<LowRankKernel> {
    match s {
        "dot" => Some(LowRankKernel::Dot),
        "neg_sq_dist" => Some(LowRankKernel::NegSqDist),
        "exp_neg_sq_dist" => Some(LowRankKernel::ExpNegSqDist),
        _ => None,
    }
}

/// Serializes a similarity in its native representation.
///
/// # Errors
/// Returns an error when the similarity contains NaN/infinities (JSON has no
/// representation for them, and a lossy round trip would break the
/// bit-identical warm-request contract).
pub fn similarity_to_json(sim: &Similarity) -> Result<Json, String> {
    if !sim.all_finite() {
        return Err("similarity contains non-finite entries; refusing lossy serialization".into());
    }
    let mut members = vec![
        ("format".to_string(), Json::Str(FORMAT.into())),
        ("repr".to_string(), Json::Str(sim.repr_kind().into())),
    ];
    match sim {
        Similarity::Dense(m) => members.push(("matrix".into(), dense_to_json(m))),
        Similarity::LowRank(lr) => {
            members.push(("kernel".into(), Json::Str(lr.kernel().as_str().into())));
            members.push(("ya".into(), dense_to_json(lr.ya())));
            members.push(("yb".into(), dense_to_json(lr.yb())));
            members.push((
                "row_offsets".into(),
                match lr.row_offsets() {
                    Some(o) => num_array(o.iter().copied()),
                    None => Json::Null,
                },
            ));
        }
        Similarity::Sparse(s) => {
            members.push(("rows".into(), Json::Num(s.rows() as f64)));
            members.push(("cols".into(), Json::Num(s.cols() as f64)));
            // Row-major CSR walk; rebuilt via from_triplets, which restores
            // the identical sorted layout.
            let mut ridx = Vec::with_capacity(s.nnz());
            let mut cidx = Vec::with_capacity(s.nnz());
            let mut vals = Vec::with_capacity(s.nnz());
            for i in 0..s.rows() {
                for (j, v) in s.row_iter(i) {
                    ridx.push(Json::Num(i as f64));
                    cidx.push(Json::Num(j as f64));
                    vals.push(Json::Num(v));
                }
            }
            members.push(("row_indices".into(), Json::Arr(ridx)));
            members.push(("col_indices".into(), Json::Arr(cidx)));
            members.push(("values".into(), Json::Arr(vals)));
        }
    }
    Ok(Json::Obj(members))
}

/// Deserializes a similarity previously written by [`similarity_to_json`],
/// which must have the expected `(rows, cols)` shape. A declared shape is
/// checked before anything is allocated by it, so a hostile header cannot
/// size an allocation; every other allocation is bounded by the parsed
/// payload.
///
/// # Errors
/// Returns an error on unknown format versions, unknown representations or
/// kernels, and any shape/type mismatch.
pub fn similarity_from_json(v: &Json, shape: (usize, usize)) -> Result<Similarity, String> {
    let format = field(v, "format")?.as_str().ok_or("format not a string")?;
    if format != FORMAT {
        return Err(format!("unsupported similarity format {format:?} (expected {FORMAT:?})"));
    }
    let check_shape = |declared: (usize, usize)| {
        if declared == shape {
            Ok(())
        } else {
            Err(format!("similarity is {declared:?}, expected {shape:?}"))
        }
    };
    let sim = match field(v, "repr")?.as_str().ok_or("repr not a string")? {
        "dense" => {
            let matrix = dense_from_json(field(v, "matrix")?)?;
            check_shape(matrix.shape())?;
            Similarity::Dense(matrix)
        }
        "lowrank" => {
            let kernel_name = field(v, "kernel")?.as_str().ok_or("kernel not a string")?;
            let kernel = kernel_from_str(kernel_name)
                .ok_or_else(|| format!("unknown kernel {kernel_name:?}"))?;
            let ya = dense_from_json(field(v, "ya")?)?;
            let yb = dense_from_json(field(v, "yb")?)?;
            check_shape((ya.rows(), yb.rows()))?;
            if ya.cols() != yb.cols() {
                return Err(format!("factor ranks differ: {} vs {}", ya.cols(), yb.cols()));
            }
            let mut lr = LowRankSim::new(ya, yb, kernel);
            if !matches!(field(v, "row_offsets")?, Json::Null) {
                let offsets = field_f64_vec(v, "row_offsets")?;
                if offsets.len() != lr.rows() {
                    return Err(format!(
                        "row_offsets length {} != rows {}",
                        offsets.len(),
                        lr.rows()
                    ));
                }
                lr = lr.with_row_offsets(offsets);
            }
            Similarity::LowRank(lr)
        }
        "sparse" => {
            let (rows, cols) = (field_usize(v, "rows")?, field_usize(v, "cols")?);
            check_shape((rows, cols))?;
            let ridx = field_usize_vec(v, "row_indices")?;
            let cidx = field_usize_vec(v, "col_indices")?;
            let vals = field_f64_vec(v, "values")?;
            if ridx.len() != cidx.len() || ridx.len() != vals.len() {
                return Err("sparse triplet arrays have mismatched lengths".into());
            }
            if let Some(&i) = ridx.iter().find(|&&i| i >= rows) {
                return Err(format!("sparse row index {i} out of range for {rows} rows"));
            }
            if let Some(&j) = cidx.iter().find(|&&j| j >= cols) {
                return Err(format!("sparse col index {j} out of range for {cols} cols"));
            }
            let triplets: Vec<(usize, usize, f64)> =
                ridx.into_iter().zip(cidx).zip(vals).map(|((i, j), val)| (i, j, val)).collect();
            Similarity::Sparse(CsrMatrix::from_triplets(rows, cols, &triplets))
        }
        other => return Err(format!("unknown similarity repr {other:?}")),
    };
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bit_identical(a: &Similarity, b: &Similarity) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.repr_kind(), b.repr_kind());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(a.get(i, j).to_bits(), b.get(i, j).to_bits(), "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn dense_round_trips_bit_exactly() {
        // Include values with no short decimal form.
        let m = DenseMatrix::from_vec(
            2,
            3,
            vec![0.1 + 0.2, -1.0 / 3.0, f64::MIN_POSITIVE, 0.0, -0.0, 1e300],
        );
        let sim = Similarity::Dense(m);
        let text = similarity_to_json(&sim).unwrap().to_string_compact();
        let back =
            similarity_from_json(&graphalign_json::from_str(&text).unwrap(), sim.shape()).unwrap();
        assert_bit_identical(&sim, &back);
        // -0.0 must survive (its bits differ from 0.0).
        if let Similarity::Dense(back_m) = &back {
            assert_eq!(back_m.get(1, 1).to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn lowrank_round_trips_with_and_without_offsets() {
        let ya = DenseMatrix::from_rows(&[&[0.6, 0.8], &[1.0, 1.0 / 3.0]]);
        let yb = DenseMatrix::from_rows(&[&[0.0, 1.0], &[0.8, 0.6], &[0.25, 0.1]]);
        for offsets in [None, Some(vec![0.125, -2.0 / 3.0])] {
            let mut lr = LowRankSim::new(ya.clone(), yb.clone(), LowRankKernel::ExpNegSqDist);
            if let Some(o) = offsets.clone() {
                lr = lr.with_row_offsets(o);
            }
            let sim = Similarity::LowRank(lr);
            let text = similarity_to_json(&sim).unwrap().to_string_compact();
            let back =
                similarity_from_json(&graphalign_json::from_str(&text).unwrap(), sim.shape())
                    .unwrap();
            assert_bit_identical(&sim, &back);
            if let (Similarity::LowRank(a), Similarity::LowRank(b)) = (&sim, &back) {
                assert_eq!(a.kernel(), b.kernel());
                assert_eq!(a.row_offsets(), b.row_offsets());
            }
        }
    }

    #[test]
    fn sparse_round_trips_with_explicit_zeros() {
        let s = CsrMatrix::from_triplets(3, 4, &[(0, 1, -2.5), (1, 0, 0.0), (2, 3, 1.0 / 7.0)]);
        let sim = Similarity::Sparse(s);
        let text = similarity_to_json(&sim).unwrap().to_string_compact();
        let back =
            similarity_from_json(&graphalign_json::from_str(&text).unwrap(), sim.shape()).unwrap();
        assert_bit_identical(&sim, &back);
        if let (Similarity::Sparse(a), Similarity::Sparse(b)) = (&sim, &back) {
            assert_eq!(a.nnz(), b.nnz(), "explicit zeros survive the round trip");
        }
    }

    #[test]
    fn degenerate_lowrank_shapes_round_trip() {
        // k = 0: zero-rank factors (every entry is the empty dot product /
        // the kernel of distance 0). n = 1: single-row factors. Both have
        // bitten codecs that assume non-empty data arrays, so each goes
        // through the plain payload AND the checksummed envelope.
        let cases = [
            // (ya, yb, kernel)
            (DenseMatrix::zeros(3, 0), DenseMatrix::zeros(2, 0), LowRankKernel::Dot),
            (DenseMatrix::zeros(1, 0), DenseMatrix::zeros(1, 0), LowRankKernel::ExpNegSqDist),
            (
                DenseMatrix::from_rows(&[&[0.1 + 0.2, -0.0]]),
                DenseMatrix::from_rows(&[&[1e-300, -1.0 / 3.0]]),
                LowRankKernel::NegSqDist,
            ),
        ];
        for (ya, yb, kernel) in cases {
            let n = ya.rows();
            for offsets in [None, Some((0..n).map(|i| -0.5 * i as f64).collect::<Vec<_>>())] {
                let mut lr = LowRankSim::new(ya.clone(), yb.clone(), kernel);
                if let Some(o) = offsets {
                    lr = lr.with_row_offsets(o);
                }
                let sim = Similarity::LowRank(lr);
                let text = similarity_to_json(&sim).unwrap().to_string_compact();
                let back =
                    similarity_from_json(&graphalign_json::from_str(&text).unwrap(), sim.shape())
                        .unwrap();
                assert_bit_identical(&sim, &back);
                let envelope = to_checksummed_string(&sim).unwrap();
                let back = from_checksummed_str(&envelope, sim.shape()).unwrap();
                assert_bit_identical(&sim, &back);
                if let (Similarity::LowRank(a), Similarity::LowRank(b)) = (&sim, &back) {
                    assert_eq!(a.kernel(), b.kernel());
                    assert_eq!(a.row_offsets(), b.row_offsets());
                }
            }
        }
    }

    #[test]
    fn sparse_degenerate_shapes_and_negative_zero_round_trip() {
        // Mirrors the Dense -0.0 test for the sparse codec: a stored -0.0
        // must keep its sign bit (it is a *stored* entry, distinct from the
        // implicit 0.0 background), and empty / single-cell matrices must
        // survive both the plain payload and the checksummed envelope.
        let cases = [
            CsrMatrix::from_triplets(2, 3, &[(0, 1, -0.0), (1, 2, 0.1 + 0.2)]),
            CsrMatrix::from_triplets(3, 4, &[]), // no stored entries at all
            CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::MIN_POSITIVE)]),
        ];
        for s in cases {
            let nnz = s.nnz();
            let sim = Similarity::Sparse(s);
            let text = similarity_to_json(&sim).unwrap().to_string_compact();
            let back =
                similarity_from_json(&graphalign_json::from_str(&text).unwrap(), sim.shape())
                    .unwrap();
            assert_bit_identical(&sim, &back);
            let envelope = to_checksummed_string(&sim).unwrap();
            let back = from_checksummed_str(&envelope, sim.shape()).unwrap();
            assert_bit_identical(&sim, &back);
            if let Similarity::Sparse(b) = &back {
                assert_eq!(b.nnz(), nnz, "stored-entry count must survive");
            }
        }
    }

    #[test]
    fn every_truncation_of_a_checksummed_sparse_entry_is_detected() {
        let sim = Similarity::Sparse(CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.5), (1, 1, -0.0)]));
        let text = to_checksummed_string(&sim).unwrap();
        for cut in 0..text.len() {
            assert!(
                from_checksummed_str(&text[..cut], sim.shape()).is_err(),
                "truncation at byte {cut} of {} went undetected",
                text.len()
            );
        }
    }

    #[test]
    fn non_finite_values_are_refused() {
        let sim = Similarity::Dense(DenseMatrix::from_vec(1, 2, vec![1.0, f64::NAN]));
        assert!(similarity_to_json(&sim).is_err());
    }

    #[test]
    fn unknown_format_and_repr_are_rejected() {
        let sim = Similarity::Dense(DenseMatrix::zeros(1, 1));
        let mut v = similarity_to_json(&sim).unwrap();
        if let Json::Obj(members) = &mut v {
            members[0].1 = Json::Str("similarity/v999".into());
        }
        assert!(similarity_from_json(&v, sim.shape()).is_err());
        let mut v = similarity_to_json(&sim).unwrap();
        if let Json::Obj(members) = &mut v {
            members[1].1 = Json::Str("holographic".into());
        }
        assert!(similarity_from_json(&v, sim.shape()).is_err());
    }

    #[test]
    fn checksummed_entries_round_trip_bit_exactly() {
        let sims = [
            Similarity::Dense(DenseMatrix::from_vec(
                2,
                2,
                vec![0.1 + 0.2, -0.0, 1e300, -1.0 / 3.0],
            )),
            Similarity::Sparse(CsrMatrix::from_triplets(2, 3, &[(0, 2, 0.5), (1, 0, -2.0)])),
        ];
        for sim in sims {
            let text = to_checksummed_string(&sim).unwrap();
            let back = from_checksummed_str(&text, sim.shape()).unwrap();
            assert_bit_identical(&sim, &back);
        }
    }

    #[test]
    fn every_truncation_of_a_checksummed_entry_is_detected() {
        let sim = Similarity::Dense(DenseMatrix::from_vec(2, 2, vec![1.5, -2.25, 0.0, 4.0]));
        let text = to_checksummed_string(&sim).unwrap();
        for cut in 0..text.len() {
            let truncated = &text[..cut];
            assert!(
                from_checksummed_str(truncated, sim.shape()).is_err(),
                "truncation at byte {cut} of {} went undetected",
                text.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_checksummed_entry_is_detected() {
        let sim = Similarity::Dense(DenseMatrix::from_vec(1, 3, vec![0.5, -1.0, 3.25]));
        let text = to_checksummed_string(&sim).unwrap();
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.to_vec();
                corrupt[pos] ^= 1 << bit;
                // Non-UTF8 corruption cannot even reach the parser here; the
                // cache layer reads with `from_utf8` and quarantines on error.
                let Ok(corrupt) = String::from_utf8(corrupt) else { continue };
                assert!(
                    from_checksummed_str(&corrupt, sim.shape()).is_err(),
                    "bit {bit} of byte {pos} flipped without detection"
                );
            }
        }
    }

    #[test]
    fn legacy_unchecksummed_entries_are_rejected_not_misread() {
        // PR-6 cache files were the raw payload with no header line; the
        // checksummed reader must refuse them so they quarantine and
        // recompute rather than alias.
        let sim = Similarity::Dense(DenseMatrix::zeros(2, 2));
        let legacy = similarity_to_json(&sim).unwrap().to_string_compact();
        assert!(from_checksummed_str(&legacy, sim.shape()).is_err());
    }

    #[test]
    fn fnv1a_64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let sim = Similarity::Dense(DenseMatrix::zeros(2, 2));
        let text = similarity_to_json(&sim).unwrap().to_string_compact();
        let tampered = text.replace("\"rows\":2", "\"rows\":3");
        let parsed = graphalign_json::from_str(&tampered).unwrap();
        assert!(similarity_from_json(&parsed, sim.shape()).is_err());
        // A well-formed entry of another shape is refused as well.
        let parsed = graphalign_json::from_str(&text).unwrap();
        assert!(similarity_from_json(&parsed, (2, 3)).is_err());
        let lowrank = Similarity::LowRank(LowRankSim::new(
            DenseMatrix::zeros(2, 1),
            DenseMatrix::zeros(3, 1),
            LowRankKernel::Dot,
        ));
        let parsed = similarity_to_json(&lowrank).unwrap();
        assert!(similarity_from_json(&parsed, (3, 2)).is_err());
    }

    #[test]
    fn hostile_declared_shapes_are_refused_before_allocating() {
        let sparse = |rows: &str| {
            format!(
                "{{\"format\":\"similarity/v1\",\"repr\":\"sparse\",\"rows\":{rows},\
                 \"cols\":2,\"row_indices\":[],\"col_indices\":[],\"values\":[]}}"
            )
        };
        let dense = "{\"format\":\"similarity/v1\",\"repr\":\"dense\",\"matrix\":\
                     {\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}}";
        // 8·10¹⁸ bytes of row offsets; `usize::MAX` rows, whose `rows + 1`
        // wraps; 2³² × 2³² entries, whose product wraps to the empty data.
        for payload in [sparse("1e18"), sparse("1e30"), dense.to_string()] {
            let json = graphalign_json::from_str(&payload).unwrap();
            assert!(similarity_from_json(&json, (3, 2)).is_err(), "{payload}");
            let envelope = format!(
                "{{\"format\":\"similarity/v1\",\"checksum\":\"{:016x}\",\"bytes\":{}}}\n{payload}\n",
                fnv1a_64(payload.as_bytes()),
                payload.len()
            );
            assert_eq!(checked_payload(&envelope), Ok(payload.as_str()));
            assert!(from_checksummed_str(&envelope, (3, 2)).is_err(), "{payload}");
        }
        // Even at its declared shape, the dense entry's data must fill it.
        let json = graphalign_json::from_str(dense).unwrap();
        let err = similarity_from_json(&json, (1 << 32, 1 << 32)).unwrap_err();
        assert!(err.contains("dense data length 0"), "{err}");
    }
}
