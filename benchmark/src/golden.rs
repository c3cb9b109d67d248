//! Golden outputs: the expected rows of every sweep the workloads run,
//! one JSON object per line in `golden/<scenario>-<backend>.jsonl`.
//!
//! A row is a sweep point exactly as `tca-bench --json` prints it, minus
//! the host wall-clock columns of `topo-registry` — the only fields that
//! vary between runs. Only `--bless` rewrites these files.

use crate::Checks;
use std::path::{Path, PathBuf};
use tca_sim::JsonValue;

/// Row fields that measure the host, not the simulation.
const VOLATILE: [&str; 2] = ["host_wall_ms", "events_per_sec"];

/// The golden directory shipped with the benchmark.
pub fn dir() -> PathBuf {
    crate::bench_dir().join("golden")
}

fn path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.jsonl"))
}

/// The comparable rows of one `tca-bench --json` output: each point with
/// its volatile fields removed, serialized one per line.
pub fn rows(output: &str) -> Result<Vec<String>, String> {
    let doc = JsonValue::parse(output.trim()).map_err(|e| format!("unparsable sweep JSON: {e}"))?;
    let points = doc
        .get("points")
        .and_then(|p| p.as_array())
        .ok_or("sweep JSON has no points array")?;
    points
        .iter()
        .map(|p| {
            let fields = p.as_object().ok_or("sweep point is not an object")?;
            let kept = fields
                .iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .cloned()
                .collect();
            Ok(JsonValue::Object(kept).to_json())
        })
        .collect()
}

/// Loads the golden rows of `key` (`<scenario>-<backend>`).
pub fn load(dir: &Path, key: &str) -> Result<Vec<String>, String> {
    let p = path(dir, key);
    let text =
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// Loads the golden rows of `key` parsed as JSON objects.
pub fn load_parsed(key: &str) -> Vec<JsonValue> {
    load(&dir(), key)
        .unwrap_or_else(|e| panic!("golden {key}: {e}"))
        .iter()
        .map(|l| JsonValue::parse(l).unwrap_or_else(|e| panic!("golden {key}: {e}")))
        .collect()
}

/// Compares one sweep output against its golden: one check per golden row
/// (a missing or extra row fails too). An unreadable output or golden
/// fails every row.
pub fn check(dir: &Path, key: &str, output: &str) -> Checks {
    let mut checks = Checks::default();
    let want = match load(dir, key) {
        Ok(w) => w,
        Err(e) => {
            checks.fail_all(1, &e);
            return checks;
        }
    };
    let got = match rows(output) {
        Ok(g) => g,
        Err(e) => {
            checks.fail_all(want.len().max(1) as u64, &format!("{key}: {e}"));
            return checks;
        }
    };
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        checks.record(w == g, || {
            format!(
                "{key} row {i} differs from the golden\n  golden: {}\n  got:    {}",
                w.map_or("<missing>", String::as_str),
                g.map_or("<missing>", String::as_str)
            )
        });
    }
    checks
}

/// Rewrites the golden of `key` from a fresh output.
pub fn bless(dir: &Path, key: &str, output: &str) -> Result<PathBuf, String> {
    let mut text = rows(output)?.join("\n");
    text.push('\n');
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let p = path(dir, key);
    std::fs::write(&p, text).map_err(|e| format!("cannot write {}: {e}", p.display()))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: &str = r#"{"schema":"tca-bench-sweep/v1","scenario":"x","backend":"tca","points":[{"label":"a","nodes":64,"host_wall_ms":3.5,"events_per_sec":1e6},{"label":"b","nodes":128}]}"#;

    #[test]
    fn rows_strip_only_the_host_clock_fields() {
        let r = rows(SWEEP).expect("parses");
        assert_eq!(
            r,
            vec![
                r#"{"label":"a","nodes":64}"#,
                r#"{"label":"b","nodes":128}"#
            ]
        );
        assert!(rows("{\"points\":3}").is_err());
        assert!(rows("not json").is_err());
    }

    #[test]
    fn check_counts_every_row_and_catches_a_corrupt_one() {
        let dir = std::env::temp_dir().join(format!("tca-benchmark-golden-{}", std::process::id()));
        bless(&dir, "x-tca", SWEEP).expect("bless");
        assert_eq!(
            check(&dir, "x-tca", SWEEP),
            Checks {
                attempted: 2,
                failed: 0
            }
        );
        let corrupt = SWEEP.replace("\"nodes\":128", "\"nodes\":129");
        assert_eq!(
            check(&dir, "x-tca", &corrupt),
            Checks {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(
            check(&dir, "x-tca", "garbage"),
            Checks {
                attempted: 2,
                failed: 2
            }
        );
        assert_eq!(check(&dir, "no-such", SWEEP).failed, 1);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
