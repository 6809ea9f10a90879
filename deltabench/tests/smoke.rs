//! Smoke tests of the benchmark command, mostly at a tiny size: every
//! workload prints every metric `BENCHMARK.json` names and passes its
//! correctness gate, and one seed repeats every count exactly, also at full
//! size where the buffer pool evicts.

use std::process::Command;

/// `BENCHMARK.json` at the repository root.
fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

/// The text of the array under `"key"`.
fn section<'a>(spec: &'a str, key: &str) -> &'a str {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let rest = &spec[start..];
    let open = rest.find('[').expect("array start");
    let close = rest.find(']').expect("array end");
    &rest[open..close]
}

/// The string values of every `"field": "..."` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let tag = format!("\"{field}\": \"");
    text.match_indices(&tag)
        .map(|(i, _)| {
            let rest = &text[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// `(name, unit)` of every metric in the `key` section.
fn metrics(spec: &str, key: &str) -> Vec<(String, String)> {
    let s = section(spec, key);
    strings(s, "name")
        .into_iter()
        .zip(strings(s, "unit"))
        .collect()
}

/// Run the benchmark for one second's worth of rounds; returns (exit
/// success, stdout lines).
fn bench_sized(workload: &str, seed: u64, trace: bool, tiny: bool) -> (bool, Vec<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_deltabench"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }]);
    if tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run deltabench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(str::to_string).collect(),
    )
}

fn bench(workload: &str, seed: u64, trace: bool) -> (bool, Vec<String>) {
    bench_sized(workload, seed, trace, true)
}

fn counts(lines: &[String]) -> String {
    lines
        .iter()
        .find(|l| l.starts_with("# counts "))
        .expect("a counts line")
        .clone()
}

#[test]
fn every_workload_prints_every_named_metric_and_passes_the_gate() {
    let spec = spec();
    let workloads = strings(section(&spec, "workloads"), "name");
    assert_eq!(workloads, ["log_point", "snapshot_cold"]);
    for w in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (ok, lines) = bench(w, 1, trace);
            let last = lines.last().expect("output");
            assert!(ok, "{w} trace={trace} failed: {last}");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": ")
                    && last.contains("\"failed\": 0, \"metrics\": {"),
                "{w}: {last}"
            );
            let wanted = metrics(&spec, key);
            assert!(!wanted.is_empty());
            for (name, unit) in &wanted {
                let tag = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&tag)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: no metric {name}"));
                let entry = &last[at..at + last[at..].find('}').expect("entry end")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {entry} should have unit {unit}"
                );
            }
            assert_eq!(
                last.matches("\"value\": ").count(),
                wanted.len(),
                "{w}: {last}"
            );
        }
    }
}

#[test]
fn one_seed_repeats_every_count_and_another_seed_changes_them() {
    for w in ["log_point", "op_setwise", "snapshot_cold"] {
        let (ok_a, a) = bench(w, 9, false);
        let (ok_b, b) = bench(w, 9, false);
        let (ok_c, c) = bench(w, 10, false);
        assert!(ok_a && ok_b && ok_c, "{w} failed");
        assert_eq!(counts(&a), counts(&b), "{w}: seed 9 twice");
        assert_ne!(counts(&a), counts(&c), "{w}: seeds 9 and 10");
    }
}

#[test]
fn one_seed_repeats_every_count_when_the_pool_evicts() {
    // Full-size snapshot_cold: one round scans a table about twice the
    // 1024-page source pool.
    let (ok_a, a) = bench_sized("snapshot_cold", 9, false, false);
    let (ok_b, b) = bench_sized("snapshot_cold", 9, false, false);
    assert!(ok_a && ok_b, "snapshot_cold failed");
    assert_eq!(counts(&a), counts(&b));
    let line = counts(&a);
    let misses: u64 = line
        .split("\"src_pool_misses\": ")
        .nth(1)
        .and_then(|r| r.trim_end_matches('}').parse().ok())
        .expect("src_pool_misses");
    assert!(misses > 1024, "the pool did not evict: {line}");
}

#[test]
fn an_unknown_workload_is_refused() {
    let (ok, lines) = bench("no_such_workload", 1, false);
    assert!(!ok);
    assert!(lines.is_empty(), "{lines:?}");
}
