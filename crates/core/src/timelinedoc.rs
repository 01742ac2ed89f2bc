//! The `timeline.json` artifact: writer and fail-closed parser.
//!
//! `repro -- timeline` serializes every cell's cycle-windowed
//! occupancy ([`FoldedCell::timeline`]) into one schema-versioned JSON
//! document so `profdiff --windows` can localize a regression in cycle
//! time weeks later, against a different build. The windowing math
//! lives in `triarch-timeline`, the diff in
//! [`triarch_profile::windowdiff`]; this module only bridges them
//! through bytes — deterministic output (BTreeMap-ordered series, no
//! timestamps) so the artifact is byte-identical across runs and
//! `--jobs` counts.

use std::fmt::Write as _;

use triarch_profile::{WindowDoc, WindowProfile, WindowSeries};

use crate::benchjson::{self, escape, parse_json, Json};
use crate::htmlreport::FoldedCell;

/// Current `timeline.json` schema version. Bump on breaking layout
/// changes; the parser rejects versions it does not know (fail closed,
/// like `BENCH.json`).
pub const TIMELINE_SCHEMA_VERSION: u64 = 1;

/// Renders the deterministic `timeline.json` document for a grid of
/// windowed cells.
#[must_use]
pub fn render_timeline_json(workload: &str, cells: &[FoldedCell]) -> String {
    let window = cells.first().map_or(triarch_timeline::DEFAULT_WINDOW, |c| c.timeline.window());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {TIMELINE_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"window\": {window},");
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(workload));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"arch\": \"{}\",", escape(&cell.arch.to_string()));
        let _ = writeln!(out, "      \"kernel\": \"{}\",", escape(&cell.kernel.to_string()));
        let _ = writeln!(out, "      \"cycles\": {},", cell.run.cycles.get());
        let _ = writeln!(out, "      \"windows\": {},", cell.timeline.windows());
        out.push_str("      \"series\": [\n");
        let counted: Vec<_> =
            cell.timeline.counted_series().map(|(t, c, s)| (t, c, s, true)).collect();
        let detail: Vec<_> =
            cell.timeline.detail_series().map(|(t, c, s)| (t, c, s, false)).collect();
        let total = counted.len() + detail.len();
        for (j, (track, category, series, is_counted)) in
            counted.into_iter().chain(detail).enumerate()
        {
            let _ = write!(
                out,
                "        {{\"track\": \"{}\", \"category\": \"{}\", \"counted\": {is_counted}, \
                 \"cycles\": [",
                escape(track),
                escape(category),
            );
            for (k, cycles) in series.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{cycles}");
            }
            out.push_str(if j + 1 < total { "]},\n" } else { "]}\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < cells.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `timeline.json` document into the plain-data shape
/// `profdiff --windows` consumes.
///
/// # Errors
///
/// Returns a one-line description for malformed JSON, missing or
/// mistyped fields, and unknown schema versions (fail closed: version
/// 0 and versions newer than [`TIMELINE_SCHEMA_VERSION`] are rejected).
pub fn parse_timeline_doc(text: &str) -> Result<WindowDoc, String> {
    let root = parse_json(text)?;
    let obj = root.as_obj().ok_or("top-level value must be an object")?;
    let schema = benchjson::get_u64(obj, "schema_version")?;
    if schema == 0 || schema > TIMELINE_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {schema} (this build understands 1..={TIMELINE_SCHEMA_VERSION})"
        ));
    }
    let window = benchjson::get_u64(obj, "window")?;
    if window == 0 {
        return Err(String::from("field 'window' must be at least 1"));
    }
    let workload = benchjson::get_str(obj, "workload")?;
    let cells_json =
        benchjson::get(obj, "cells")?.as_arr().ok_or("field 'cells' must be an array")?;
    let mut cells = Vec::with_capacity(cells_json.len());
    for cell in cells_json {
        let cell = cell.as_obj().ok_or("each cell must be an object")?;
        let arch = benchjson::get_str(cell, "arch")?;
        let kernel = benchjson::get_str(cell, "kernel")?;
        let cycles = benchjson::get_u64(cell, "cycles")?;
        let series_json =
            benchjson::get(cell, "series")?.as_arr().ok_or("field 'series' must be an array")?;
        let mut series = Vec::with_capacity(series_json.len());
        for entry in series_json {
            let entry = entry.as_obj().ok_or("each series must be an object")?;
            let counted = match benchjson::get(entry, "counted")? {
                Json::Bool(b) => *b,
                _ => return Err(String::from("field 'counted' must be a boolean")),
            };
            let per_window = benchjson::get(entry, "cycles")?
                .as_arr()
                .ok_or("series field 'cycles' must be an array")?;
            let mut windows = Vec::with_capacity(per_window.len());
            for value in per_window {
                match value {
                    Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => windows.push(*n as u64),
                    _ => return Err(String::from("series cycles must be non-negative integers")),
                }
            }
            series.push(WindowSeries {
                track: benchjson::get_str(entry, "track")?,
                category: benchjson::get_str(entry, "category")?,
                counted,
                cycles: windows,
            });
        }
        cells.push(WindowProfile { label: format!("{arch}/{kernel}"), cycles, series });
    }
    Ok(WindowDoc { window, workload, cells })
}

#[cfg(test)]
mod tests {
    use triarch_kernels::WorkloadSet;

    use super::*;
    use crate::htmlreport::collect_folds_jobs_windowed;

    #[test]
    fn roundtrips_through_bytes_losslessly() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (folds, _) = collect_folds_jobs_windowed(&workloads, 2, 512).unwrap();
        let json = render_timeline_json("small", &folds);
        let doc = parse_timeline_doc(&json).unwrap();
        assert_eq!(doc.window, 512);
        assert_eq!(doc.workload, "small");
        assert_eq!(doc.cells.len(), folds.len());
        for (parsed, cell) in doc.cells.iter().zip(&folds) {
            assert_eq!(parsed.label, format!("{}/{}", cell.arch, cell.kernel));
            assert_eq!(parsed.cycles, cell.run.cycles.get());
            // Counted window sums survive the byte trip exactly.
            let counted: u64 =
                parsed.series.iter().filter(|s| s.counted).flat_map(|s| s.cycles.iter()).sum();
            assert_eq!(counted, cell.run.cycles.get(), "{}", parsed.label);
        }
    }

    #[test]
    fn writer_is_deterministic() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (a, _) = collect_folds_jobs_windowed(&workloads, 1, 512).unwrap();
        let (b, _) = collect_folds_jobs_windowed(&workloads, 2, 512).unwrap();
        assert_eq!(render_timeline_json("small", &a), render_timeline_json("small", &b));
    }

    #[test]
    fn unknown_schema_versions_fail_closed() {
        for version in ["0", "2", "99"] {
            let text = format!(
                "{{\"schema_version\": {version}, \"window\": 1024, \
                 \"workload\": \"small\", \"cells\": []}}"
            );
            let err = parse_timeline_doc(&text).unwrap_err();
            assert!(err.contains("unsupported schema_version"), "{err}");
        }
    }

    #[test]
    fn deep_nesting_is_a_one_line_error() {
        let text = format!(
            "{{\"schema_version\": 1, \"window\": 8, \"workload\": \"x\", \"cells\": {}",
            "[".repeat(100_000)
        );
        assert!(parse_timeline_doc(&text).unwrap_err().starts_with("nesting deeper than"));
    }

    #[test]
    fn malformed_fields_are_one_line_errors() {
        assert!(parse_timeline_doc("[]").unwrap_err().contains("object"));
        assert!(parse_timeline_doc("{\"schema_version\": 1}").unwrap_err().contains("window"));
        let zero = "{\"schema_version\": 1, \"window\": 0, \"workload\": \"x\", \"cells\": []}";
        assert!(parse_timeline_doc(zero).unwrap_err().contains("at least 1"));
        let bad_counted = "{\"schema_version\": 1, \"window\": 8, \"workload\": \"x\", \
                           \"cells\": [{\"arch\": \"a\", \"kernel\": \"k\", \"cycles\": 1, \
                           \"windows\": 1, \"series\": [{\"track\": \"t\", \
                           \"category\": \"c\", \"counted\": 3, \"cycles\": [1]}]}]}";
        assert!(parse_timeline_doc(bad_counted).unwrap_err().contains("boolean"));
    }
}
