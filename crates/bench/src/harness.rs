//! Shared experiment utilities: CSV tables, bench documents, timing,
//! parallel sweeps.

use serde::{Serialize, Value};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A named CSV table produced by an experiment.
#[derive(Debug, Clone)]
pub struct CsvTable {
    /// File stem (e.g. `fig1_energy_makespan`).
    pub name: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Create an empty table.
    pub fn new(name: &str, header: &[&str]) -> Self {
        CsvTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Write to `dir/<name>.csv`.
    ///
    /// # Errors
    /// I/O errors from create/write.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.name)), self.to_csv())
    }

    /// Print to stdout with a `# name` banner.
    pub fn print(&self) {
        println!("# {}", self.name);
        print!("{}", self.to_csv());
    }
}

/// One measured point of a bench sweep: `(field, value)` pairs in
/// column order. The same row is both a CSV line and a JSON object.
pub type Row = Vec<(&'static str, Value)>;

/// The value under `key` in a header or a row, if present.
#[cfg(test)]
pub(crate) fn get<'a>(fields: &'a [(&'static str, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// One `BENCH_<name>.json` document: sweep-level header fields (setup
/// strings, gates) plus one [`Row`] per point. Both the JSON file and
/// the CSV table render from this one description.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// The document's `"bench"` id, also the CSV table name.
    pub bench: &'static str,
    /// Header fields, written in order before `"points"`.
    pub header: Row,
    /// One row per measured point.
    pub rows: Vec<Row>,
}

impl BenchFile {
    /// Assemble a document. The header starts with `parallelism`, the
    /// core count the timings were taken on.
    pub fn new(bench: &'static str, header: Row, rows: Vec<Row>) -> Self {
        let parallelism = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut full = vec![("parallelism", parallelism.to_value())];
        full.extend(header);
        BenchFile {
            bench,
            header: full,
            rows,
        }
    }

    /// Render the JSON document: `bench`, the header fields, then
    /// `points` with one compact row object per line.
    ///
    /// # Errors
    /// A non-finite number anywhere (JSON cannot represent it).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let mut out = format!(
            "{{\n  \"bench\": {},\n",
            serde_json::to_string(&self.bench)?
        );
        for (key, value) in &self.header {
            let _ = writeln!(
                out,
                "  {}: {},",
                serde_json::to_string(key)?,
                serde_json::to_string(value)?
            );
        }
        out.push_str("  \"points\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&serde_json::to_string(&object(row))?);
        }
        out.push_str("\n  ]\n}\n");
        Ok(out)
    }

    /// The rows as a CSV table named after `bench`, its header taken
    /// from the row keys. `null` is an empty cell and strings are
    /// unquoted unless they hold a comma or a quote.
    pub fn table(&self) -> CsvTable {
        let keys: Vec<&str> = self
            .rows
            .first()
            .map(|row| row.iter().map(|(k, _)| *k).collect())
            .unwrap_or_default();
        let mut table = CsvTable::new(self.bench, &keys);
        for row in &self.rows {
            table.push_row(row.iter().map(|(_, v)| csv_cell(v)).collect());
        }
        table
    }
}

fn object(fields: &[(&'static str, Value)]) -> Value {
    Value::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn csv_cell(value: &Value) -> String {
    let text = match value {
        Value::Null => String::new(),
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_else(|_| format!("{other:?}")),
    };
    if text.contains([',', '"', '\n']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text
    }
}

/// Format an f64 with enough digits for reproduction comparisons.
pub fn fmt(x: f64) -> String {
    format!("{x:.9}")
}

/// Wall-clock one closure, returning (result, seconds). Runs it
/// `repeats` times and reports the minimum (robust to scheduler noise).
pub fn time_min<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(repeats >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (out.expect("repeats >= 1"), best)
}

/// Run `tasks` across scoped threads (one per task, which is fine for
/// the handful of coarse sweep points the experiments use) and collect
/// results in input order.
pub fn parallel_sweep<T: Send, I: Send + Sync>(
    inputs: &[I],
    f: impl Fn(&I) -> T + Send + Sync,
) -> Vec<T> {
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..inputs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for (k, input) in inputs.iter().enumerate() {
            let results = &results;
            let f = &f;
            scope.spawn(move || {
                let value = f(input);
                results.lock().expect("sweep threads do not panic")[k] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .expect("sweep threads do not panic")
        .into_iter()
        .map(|v| v.expect("every task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let mut t = CsvTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    fn demo_file() -> BenchFile {
        let row = |n: usize, gap: Option<f64>, family: &str| -> Row {
            vec![
                ("n", n.to_value()),
                ("speedup", (n as f64 / 3.0).to_value()),
                ("censored", (n > 10).to_value()),
                ("reference_s", gap.map(|g| g * 2.0).to_value()),
                ("family", family.to_value()),
                ("gaps", Some(vec![gap, None, Some(0.125)]).to_value()),
            ]
        };
        BenchFile::new(
            "demo_bench",
            vec![
                ("instance_family", "say \"hi\", then\n\\tab\t".to_value()),
                ("gate", true.to_value()),
            ],
            vec![
                row(8, Some(1.5e-13), "uniform"),
                row(64, None, "a,b \"quoted\""),
            ],
        )
    }

    #[test]
    fn bench_file_json_parses_back_to_the_same_values() {
        let file = demo_file();
        let json = file.to_json().unwrap();
        let mut want = vec![("bench", file.bench.to_value())];
        want.extend(file.header.iter().cloned());
        want.push((
            "points",
            Value::Arr(file.rows.iter().map(|r| object(r)).collect()),
        ));
        assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), object(&want));
        assert!(get(&file.header, "parallelism").is_some());
        // One point per line, numbers in their shortest round-trip form.
        assert_eq!(json.lines().filter(|l| l.starts_with("    {")).count(), 2);
        assert!(
            json.contains("\"gaps\":[0.00000000000015,null,0.125]"),
            "{json}"
        );
        let nan = BenchFile::new("nan", vec![], vec![vec![("x", f64::NAN.to_value())]]);
        assert!(nan.to_json().is_err());
    }

    #[test]
    fn bench_file_table_shares_the_rows() {
        let table = demo_file().table();
        assert_eq!(table.name, "demo_bench");
        assert_eq!(
            table.header,
            ["n", "speedup", "censored", "reference_s", "family", "gaps"]
        );
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][..3], ["8", "2.6666666666666665", "false"]);
        // null is an empty cell; cells holding commas or quotes are quoted.
        assert_eq!(table.rows[1][3], "");
        assert_eq!(table.rows[1][4], "\"a,b \"\"quoted\"\"\"");
        assert_eq!(table.rows[1][5], "\"[null,null,0.125]\"");
    }

    #[test]
    fn timing_returns_value() {
        let (v, secs) = time_min(3, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn sweep_preserves_order() {
        let inputs: Vec<u64> = (0..16).collect();
        let out = parallel_sweep(&inputs, |&x| x * x);
        assert_eq!(out, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }
}
