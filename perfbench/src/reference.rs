//! Stored reference values for the exact-repeat output checks.
//!
//! `reference.txt` holds, per seed and workload, one line per checked
//! item: `<seed> <workload> <key> <value…>`. The values are the
//! program's exact outputs for that seed (selected topologies and
//! test-MSE bits per region; `SimStats`, NPU statistics and an output
//! digest per app and variant). A run whose seed has stored lines must
//! reproduce them exactly; every run must also reproduce its own first
//! rotation in every later rotation. Regenerate with
//! `perfbench --workload <w> --seed <n> --print-reference`.

const REFERENCE: &str = include_str!("../reference.txt");

/// One exact item: a key (`fft`, `fft.npu`, …) and its canonical value.
pub type Item = (String, String);

/// The stored items for `seed` and `workload` (empty when none stored).
pub fn stored(seed: u64, workload: &str) -> Vec<Item> {
    REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(4, ' ');
            let s: u64 = parts.next()?.parse().ok()?;
            let w = parts.next()?;
            let key = parts.next()?;
            let value = parts.next()?;
            (s == seed && w == workload).then(|| (key.to_string(), value.to_string()))
        })
        .collect()
}

/// Compares `actual` with `expected` item by item, describing the
/// first few differences.
///
/// # Errors
///
/// Returns the differences when any item is missing, extra, or unequal.
pub fn compare(what: &str, expected: &[Item], actual: &[Item]) -> Result<(), String> {
    let mut diffs = Vec::new();
    for (key, value) in expected {
        match actual.iter().find(|(k, _)| k == key) {
            Some((_, got)) if got == value => {}
            Some((_, got)) => diffs.push(format!("{key}: expected {value}, got {got}")),
            None => diffs.push(format!("{key}: missing")),
        }
    }
    for (key, _) in actual {
        if !expected.iter().any(|(k, _)| k == key) {
            diffs.push(format!("{key}: not in {what}"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        diffs.truncate(4);
        Err(format!(
            "exact values differ from {what}: {}",
            diffs.join("; ")
        ))
    }
}

/// Prints `items` in the `reference.txt` line format.
pub fn print(seed: u64, workload: &str, items: &[Item]) {
    for (key, value) in items {
        println!("{seed} {workload} {key} {value}");
    }
}

/// Checks a run's first rotation against the stored lines for its seed,
/// when there are any.
///
/// # Errors
///
/// Returns the differences from the stored reference.
pub fn check_stored(seed: u64, workload: &str, first: &[Item]) -> Result<(), String> {
    let expected = stored(seed, workload);
    if expected.is_empty() {
        return Ok(());
    }
    compare("the stored reference", &expected, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_reports_each_kind_of_difference() {
        let a = vec![("x".to_string(), "1".to_string())];
        let b = vec![("x".to_string(), "2".to_string())];
        let c = vec![("y".to_string(), "1".to_string())];
        assert!(compare("r", &a, &a).is_ok());
        assert!(compare("r", &a, &b)
            .unwrap_err()
            .contains("expected 1, got 2"));
        let err = compare("r", &a, &c).unwrap_err();
        assert!(err.contains("x: missing") && err.contains("y: not in r"));
    }
}
