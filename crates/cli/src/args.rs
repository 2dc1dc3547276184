//! Hand-rolled flag parsing (keeps the CLI dependency-free).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: positional subcommand plus `--flag value` /
/// `--switch` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    subcommand: Option<String>,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Errors produced while parsing or validating flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared at an unexpected position or twice.
    Malformed(String),
    /// A required flag was missing.
    Missing(&'static str),
    /// A flag the subcommand does not read.
    Unknown(String),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Malformed(what) => write!(f, "malformed arguments: {what}"),
            Self::Missing(flag) => write!(f, "missing required flag --{flag}"),
            Self::Unknown(flag) => write!(f, "unknown flag --{flag}"),
            Self::BadValue { flag, message } => write!(f, "bad value for --{flag}: {message}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name). The first
    /// non-flag token is the subcommand; every `--name` either consumes
    /// the next token as its value or, at the end / before another flag,
    /// acts as a boolean switch.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Malformed`] for repeated flags or stray
    /// positional tokens.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let tokens: Vec<String> = raw.into_iter().collect();
        let mut args = Self::default();
        let mut i = 0usize;
        while i < tokens.len() {
            let token = &tokens[i];
            if let Some(name) = token.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgError::Malformed("empty flag name".into()));
                }
                let next_is_value = tokens
                    .get(i + 1)
                    .map(|t| !t.starts_with("--"))
                    .unwrap_or(false);
                if next_is_value {
                    if args
                        .values
                        .insert(name.to_owned(), tokens[i + 1].clone())
                        .is_some()
                    {
                        return Err(ArgError::Malformed(format!("--{name} given twice")));
                    }
                    i += 2;
                } else {
                    if args.switches.contains(&name.to_owned()) {
                        return Err(ArgError::Malformed(format!("--{name} given twice")));
                    }
                    args.switches.push(name.to_owned());
                    i += 1;
                }
            } else if args.subcommand.is_none() {
                args.subcommand = Some(token.clone());
                i += 1;
            } else {
                return Err(ArgError::Malformed(format!(
                    "unexpected positional `{token}`"
                )));
            }
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Missing`] when absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.values
            .get(flag)
            .map(String::as_str)
            .ok_or(ArgError::Missing(flag))
    }

    /// An optional string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        match self.values.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e: T::Err| ArgError::BadValue {
                flag: flag.to_owned(),
                message: e.to_string(),
            }),
        }
    }

    /// Whether a boolean switch was passed.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Checks every flag against what the subcommand reads: `values`
    /// name the flags that take a value, `switches` the boolean ones.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Unknown`] for the first flag the subcommand
    /// does not read, and [`ArgError::BadValue`] for a value flag given
    /// without its value.
    pub fn check(&self, values: &[&str], switches: &[&str]) -> Result<(), ArgError> {
        if let Some(flag) = self.values.keys().find(|f| !values.contains(&f.as_str())) {
            return Err(ArgError::Unknown(flag.clone()));
        }
        for flag in &self.switches {
            if values.contains(&flag.as_str()) {
                return Err(ArgError::BadValue {
                    flag: flag.clone(),
                    message: "missing value".into(),
                });
            }
            if !switches.contains(&flag.as_str()) {
                return Err(ArgError::Unknown(flag.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_subcommand_flags_and_switches() {
        let a = parse(&["train", "--data", "x.csv", "--dim", "512", "--fast"]).unwrap();
        assert_eq!(a.subcommand(), Some("train"));
        assert_eq!(a.require("data").unwrap(), "x.csv");
        assert_eq!(a.get_or("dim", 0usize).unwrap(), 512);
        assert!(a.switch("fast"));
        assert!(!a.switch("slow"));
        assert_eq!(a.get_or("epochs", 10usize).unwrap(), 10);
    }

    #[test]
    fn reports_missing_and_bad_values() {
        let a = parse(&["train", "--dim", "abc"]).unwrap();
        assert_eq!(a.require("data"), Err(ArgError::Missing("data")));
        assert!(matches!(
            a.get_or("dim", 0usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_duplicates_and_strays() {
        assert!(parse(&["x", "--a", "1", "--a", "2"]).is_err());
        assert!(parse(&["x", "--f", "--f"]).is_err());
        assert!(parse(&["x", "y"]).is_err());
        assert!(parse(&["x", "--"]).is_err());
    }

    #[test]
    fn optional_get_returns_none_when_absent() {
        let a = parse(&["x", "--name", "v"]).unwrap();
        assert_eq!(a.get("name"), Some("v"));
        assert_eq!(a.get("other"), None);
    }

    #[test]
    fn flag_before_flag_is_a_switch() {
        let a = parse(&["run", "--verbose", "--data", "d.csv"]).unwrap();
        assert!(a.switch("verbose"));
        assert_eq!(a.require("data").unwrap(), "d.csv");
    }

    #[test]
    fn check_rejects_unread_flags_and_valueless_value_flags() {
        let a = parse(&["train", "--data", "d.csv", "--linear"]).unwrap();
        assert_eq!(a.check(&["data"], &["linear"]), Ok(()));
        assert_eq!(
            a.check(&["data"], &[]),
            Err(ArgError::Unknown("linear".into()))
        );
        assert_eq!(
            a.check(&[], &["linear"]),
            Err(ArgError::Unknown("data".into()))
        );
        let trailing = parse(&["train", "--seed"]).unwrap();
        assert!(matches!(
            trailing.check(&["seed"], &[]),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn errors_display_cleanly() {
        assert!(ArgError::Missing("data").to_string().contains("--data"));
        assert!(ArgError::Malformed("x".into()).to_string().contains('x'));
        assert!(ArgError::Unknown("bogus".into())
            .to_string()
            .contains("--bogus"));
    }
}
