//! Tiny `--key value` parser for the two wall-clock gates
//! (`sampled_fleet`, `serve_bench`). A key the binary does not declare or
//! a value that does not parse is an error naming it — a typo must not
//! quietly run the default and pass a CI gate.

use std::str::FromStr;

/// Parsed command-line items: `--key value` pairs only.
#[derive(Debug)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments against the `keys` the binary
    /// accepts; on an error prints it to stderr and exits 2.
    pub fn from_env(keys: &[&str]) -> Self {
        let items: Vec<String> = std::env::args().skip(1).collect();
        let items: Vec<&str> = items.iter().map(String::as_str).collect();
        or_exit(Args::from_items(&items, keys))
    }

    /// Parses explicit items: every item must be one of `keys` followed
    /// by its value.
    pub fn from_items(items: &[&str], keys: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut items = items.iter();
        while let Some(&key) = items.next() {
            if !keys.contains(&key) {
                return Err(format!(
                    "unknown argument {key:?} (accepted: {})",
                    keys.join(" ")
                ));
            }
            let value = items.next().ok_or_else(|| format!("{key} takes a value"))?;
            pairs.push((key.to_string(), value.to_string()));
        }
        Ok(Args { pairs })
    }

    /// The raw value following `--key`, if present.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value following `--key` parsed as `T`, `default` when the key
    /// is absent, an error naming key and value when it does not parse.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")),
        }
    }
}

/// Unwraps a parse result; on an error prints it to stderr and exits 2.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&str; 2] = ["--budget", "--baseline"];

    #[test]
    fn keyed_lookup() {
        let a = Args::from_items(&["--budget", "8", "--baseline", "B.json"], &KEYS).unwrap();
        assert_eq!(a.parsed("--budget", 0u32), Ok(8));
        assert_eq!(a.parsed("--max-regress", 0.3f64), Ok(0.3));
        assert_eq!(a.value("--baseline"), Some("B.json"));
        assert_eq!(a.value("--out"), None);
    }

    #[test]
    fn unparsable_value_is_an_error_naming_it() {
        // `sampled_fleet --budget abc` used to run the default 240 cells.
        let a = Args::from_items(&["--budget", "abc"], &KEYS).unwrap();
        let message = a.parsed("--budget", 240u32).unwrap_err();
        assert!(
            message.contains("--budget") && message.contains("abc"),
            "{message}"
        );
    }

    #[test]
    fn unknown_key_is_an_error_naming_it() {
        // `--baselin BENCH_9.json` used to print "gate not applied", exit 0.
        let message = Args::from_items(&["--baselin", "BENCH_9.json"], &KEYS).unwrap_err();
        assert!(message.contains("--baselin\""), "{message}");
        // A stray positional is no better.
        assert!(Args::from_items(&["240"], &KEYS).is_err());
    }

    #[test]
    fn key_without_value_is_an_error() {
        let message = Args::from_items(&["--budget"], &KEYS).unwrap_err();
        assert!(message.contains("--budget takes a value"), "{message}");
    }
}
