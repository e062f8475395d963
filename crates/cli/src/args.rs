//! Tiny flag parser shared by the subcommands: `--key value` pairs
//! plus bare `--flag` booleans. No external dependency; exhaustive —
//! unknown flags are errors, so typos fail loudly.

use std::collections::BTreeMap;

/// Parsed flags of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `argv` given the sets of value-taking and boolean flags
    /// (names without the leading `--`).
    pub fn parse(
        argv: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if name == "help" || name == "h" {
                return Err("help".to_string());
            }
            if bool_flags.contains(&name) {
                flags.switches.push(name.to_string());
            } else if value_flags.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} requires a value"))?;
                flags.values.insert(name.to_string(), value.clone());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(flags)
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Required string value.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parsed numeric value with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(_) => self.require_num(name),
        }
    }

    /// Parsed numeric value of a required flag.
    pub fn require_num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.require(name)?;
        v.parse().map_err(|_| format!("invalid value for --{name}: {v:?}"))
    }

    /// Boolean switch presence.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Comma-separated usize list (e.g. `--members 0,2,5`).
    pub fn list(&self, name: &str) -> Result<Option<Vec<usize>>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| format!("invalid index in --{name}: {p:?}")))
                .collect::<Result<Vec<usize>, String>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(
            &v(&["--tasks", "64", "--json", "--out", "x.json"]),
            &["tasks", "out"],
            &["json"],
        )
        .unwrap();
        assert_eq!(f.get("tasks"), Some("64"));
        assert_eq!(f.num("tasks", 0usize).unwrap(), 64);
        assert!(f.has("json"));
        assert_eq!(f.require("out").unwrap(), "x.json");
    }

    #[test]
    fn defaults_and_missing() {
        let f = Flags::parse(&v(&[]), &["tasks"], &[]).unwrap();
        assert_eq!(f.num("tasks", 32usize).unwrap(), 32);
        assert!(f.require("tasks").is_err());
        assert!(!f.has("json"));
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(Flags::parse(&v(&["--bogus"]), &["tasks"], &[]).is_err());
        assert!(Flags::parse(&v(&["bare"]), &["tasks"], &[]).is_err());
        assert!(Flags::parse(&v(&["--tasks"]), &["tasks"], &[]).is_err());
        let f = Flags::parse(&v(&["--tasks", "xyz"]), &["tasks"], &[]).unwrap();
        assert!(f.num("tasks", 0usize).is_err());
    }

    #[test]
    fn member_lists() {
        let f = Flags::parse(&v(&["--members", "0, 2,5"]), &["members"], &[]).unwrap();
        assert_eq!(f.list("members").unwrap(), Some(vec![0, 2, 5]));
        let g = Flags::parse(&v(&[]), &["members"], &[]).unwrap();
        assert_eq!(g.list("members").unwrap(), None);
        let bad = Flags::parse(&v(&["--members", "0,x"]), &["members"], &[]).unwrap();
        assert!(bad.list("members").is_err());
    }
}
