//! Benchmark report schema.
//!
//! Every `bench_all` run emits one schema-versioned JSON document: the
//! measured rows, keyed by `(suite, name)`, and the checks evaluated on
//! them.  The report is a record of one run; nothing compares it against
//! another.

use crate::dist::Dist;
use crate::json::{parse, Json};

/// Schema identifier written into every report; bump on breaking change.
pub const SCHEMA: &str = "sting-bench/1";

/// One measured benchmark row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Suite the row belongs to (`figure6`, `shape`, `fork`, `overhead`, ...).
    pub suite: String,
    /// Row name, unique within its suite.
    pub name: String,
    /// Unit of the statistics (`ns/iter`, `ns/dispatch`, `ns/run`, ...).
    pub unit: String,
    /// Number of samples behind the statistics.
    pub samples: u64,
    /// Minimum sample.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Paper-reported value in µs, when the row reproduces a Figure 6 line.
    pub paper_us: Option<f64>,
}

impl BenchRow {
    /// Builds a row from a measured distribution.
    pub fn from_dist(suite: &str, name: &str, unit: &str, d: &Dist) -> BenchRow {
        BenchRow {
            suite: suite.to_string(),
            name: name.to_string(),
            unit: unit.to_string(),
            samples: d.len() as u64,
            min: d.min(),
            mean: d.mean(),
            p50: d.p50(),
            p99: d.p99(),
            paper_us: None,
        }
    }

    /// Attaches the paper's Figure 6 µs value for side-by-side reporting.
    pub fn with_paper_us(mut self, us: f64) -> BenchRow {
        self.paper_us = Some(us);
        self
    }
}

/// Outcome of one structural sanity check (e.g. a Figure 6 ordering).
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// A complete `bench_all` run.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Free-form run configuration (mode, iteration scale, host).
    pub config: Vec<(String, String)>,
    /// Measured rows.
    pub rows: Vec<BenchRow>,
    /// Structural checks evaluated on the measurements.
    pub checks: Vec<Check>,
}

impl BenchReport {
    /// Looks up a row by suite and name.
    pub fn row(&self, suite: &str, name: &str) -> Option<&BenchRow> {
        self.rows
            .iter()
            .find(|r| r.suite == suite && r.name == name)
    }

    /// Serializes to the schema-versioned JSON document.
    pub fn to_json(&self) -> String {
        let config = Json::Obj(
            self.config
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let rows = Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    let mut pairs = vec![
                        ("suite", Json::Str(r.suite.clone())),
                        ("name", Json::Str(r.name.clone())),
                        ("unit", Json::Str(r.unit.clone())),
                        ("samples", Json::Num(r.samples as f64)),
                        ("min", Json::Num(r.min)),
                        ("mean", Json::Num(r.mean)),
                        ("p50", Json::Num(r.p50)),
                        ("p99", Json::Num(r.p99)),
                    ];
                    if let Some(us) = r.paper_us {
                        pairs.push(("paper_us", Json::Num(us)));
                    }
                    Json::obj(pairs)
                })
                .collect(),
        );
        let checks = Json::Arr(
            self.checks
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("name", Json::Str(c.name.clone())),
                        ("pass", Json::Bool(c.pass)),
                        ("detail", Json::Str(c.detail.clone())),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("config", config),
            ("rows", rows),
            ("checks", checks),
        ])
        .pretty()
    }

    /// Parses and validates a report document, checking the schema tag and
    /// that every row carries the full statistics block.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA {
            return Err(format!("schema mismatch: `{schema}` (want `{SCHEMA}`)"));
        }
        let mut report = BenchReport::default();
        if let Some(Json::Obj(cfg)) = doc.get("config") {
            for (k, v) in cfg {
                if let Some(s) = v.as_str() {
                    report.config.push((k.clone(), s.to_string()));
                }
            }
        }
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing `rows` array")?;
        for (i, row) in rows.iter().enumerate() {
            let field_str = |key: &str| {
                row.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("row {i}: missing string `{key}`"))
            };
            let field_num = |key: &str| {
                row.get(key)
                    .and_then(Json::as_num)
                    .ok_or(format!("row {i}: missing number `{key}`"))
            };
            report.rows.push(BenchRow {
                suite: field_str("suite")?,
                name: field_str("name")?,
                unit: field_str("unit")?,
                samples: field_num("samples")? as u64,
                min: field_num("min")?,
                mean: field_num("mean")?,
                p50: field_num("p50")?,
                p99: field_num("p99")?,
                paper_us: row.get("paper_us").and_then(Json::as_num),
            });
        }
        if let Some(checks) = doc.get("checks").and_then(Json::as_arr) {
            for (i, c) in checks.iter().enumerate() {
                report.checks.push(Check {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("check {i}: missing `name`"))?
                        .to_string(),
                    pass: c
                        .get("pass")
                        .and_then(Json::as_bool)
                        .ok_or(format!("check {i}: missing `pass`"))?,
                    detail: c
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                });
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(suite: &str, name: &str, p50: f64) -> BenchRow {
        BenchRow {
            suite: suite.into(),
            name: name.into(),
            unit: "ns/iter".into(),
            samples: 32,
            min: p50 * 0.9,
            mean: p50 * 1.05,
            p50,
            p99: p50 * 1.5,
            paper_us: None,
        }
    }

    #[test]
    fn json_roundtrip_preserves_rows_and_checks() {
        let mut report = BenchReport {
            config: vec![("mode".into(), "full".into())],
            rows: vec![row("figure6", "ctx-switch", 310.0).with_paper_us(8.0)],
            checks: vec![Check {
                name: "ctx<steal".into(),
                pass: true,
                detail: "310 < 340".into(),
            }],
        };
        report.rows.push(row("shape", "steal-throughput", 95.0));
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("roundtrip");
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[0].paper_us, Some(8.0));
        assert_eq!(back.rows[1].p50, 95.0);
        assert_eq!(back.checks.len(), 1);
        assert!(back.checks[0].pass);
        assert_eq!(back.config[0].1, "full");
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_fields() {
        assert!(BenchReport::from_json(r#"{"schema": "other/9", "rows": []}"#).is_err());
        let missing_p99 = r#"{"schema": "sting-bench/1", "rows": [
            {"suite": "s", "name": "n", "unit": "ns", "samples": 1,
             "min": 1, "mean": 1, "p50": 1}]}"#;
        assert!(BenchReport::from_json(missing_p99).is_err());
    }
}
