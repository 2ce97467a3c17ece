//! Minimal argument parsing (no external dependencies): positional
//! arguments followed by `--key value` / `--flag` options.

use std::collections::BTreeMap;

/// Parsed command line: positionals plus options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Keys that are boolean flags (no value follows).
const FLAG_KEYS: &[&str] = &["json", "quiet", "help", "verify"];

impl Args {
    /// Parses raw arguments (without the program/subcommand names).
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = raw.iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err("stray '--'".into());
                }
                if FLAG_KEYS.contains(&key) {
                    out.flags.push(key.to_string());
                } else if let Some((k, v)) = key.split_once('=') {
                    out.options.insert(k.to_string(), v.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("option --{key} needs a value"))?;
                    out.options.insert(key.to_string(), value.clone());
                }
            } else {
                out.positionals.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Typed option with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }

    /// Required typed option.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.require(key)?
            .parse()
            .map_err(|e| format!("bad value for --{key}: {e}"))
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_and_options_mix() {
        let a = args(&["nsfnet", "--wavelengths", "8", "--out", "x.wdm", "--json"]);
        assert_eq!(a.positional(0), Some("nsfnet"));
        assert_eq!(a.positional(1), None);
        assert_eq!(a.get("wavelengths"), Some("8"));
        assert_eq!(a.get_or("wavelengths", 4usize).unwrap(), 8);
        assert_eq!(a.get_or("missing", 4usize).unwrap(), 4);
        assert!(a.flag("json"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn equals_syntax() {
        let a = args(&["--erlangs=80", "--policy=joint"]);
        assert_eq!(a.get("erlangs"), Some("80"));
        assert_eq!(a.get("policy"), Some("joint"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Args::parse(&["--out".to_string()]).unwrap_err();
        assert!(e.contains("needs a value"));
    }

    #[test]
    fn required_and_typed_errors() {
        let a = args(&["--n", "abc"]);
        assert!(a.require("missing").is_err());
        assert!(a.require_parsed::<usize>("n").is_err());
    }
}
