//! Numeric `LS_*` settings read from the environment.
//!
//! One policy for every numeric knob: an unset variable takes its
//! default, and a set value that does not parse is an [`EnvError`]
//! naming the variable and the value — never a silent fallback to the
//! default.

use std::fmt;
use std::str::FromStr;

/// A set environment variable whose value does not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable, e.g. `LS_MP_TIMEOUT_SECS`.
    pub name: String,
    /// Its value as set.
    pub value: String,
    /// The type the value was parsed as, e.g. `u64`.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not a valid {}", self.name, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

/// Parses `value`, the content of the variable `name` (`None` when
/// unset): `default` when unset, the parsed value when it parses, an
/// [`EnvError`] otherwise. A pure function of its arguments, so it is
/// testable without touching the process environment.
pub fn parse_var<T: FromStr>(
    name: &str,
    value: Option<&str>,
    default: T,
) -> Result<T, EnvError> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| EnvError {
            name: name.to_string(),
            value: v.to_string(),
            expected: std::any::type_name::<T>(),
        }),
    }
}

/// [`parse_var`] over the current value of the environment variable
/// `name`. A value that is not valid Unicode counts as set and
/// unparsable.
pub fn var_or<T: FromStr>(name: &str, default: T) -> Result<T, EnvError> {
    match std::env::var_os(name) {
        None => Ok(default),
        Some(v) => parse_var(name, Some(&v.to_string_lossy()), default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_takes_the_default() {
        assert_eq!(parse_var::<u64>("LS_MP_TIMEOUT_SECS", None, 180), Ok(180));
        assert_eq!(parse_var::<usize>("LS_LOCALES", None, 2), Ok(2));
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_var::<u64>("LS_MP_TIMEOUT_SECS", Some("7"), 180), Ok(7));
        assert_eq!(parse_var::<u64>("LS_MP_HEARTBEAT_MS", Some("0"), 500), Ok(0));
        assert_eq!(parse_var::<usize>("LS_LOCALES", Some("4"), 2), Ok(4));
    }

    #[test]
    fn unparsable_values_name_the_variable() {
        for bad in ["abc", "-1", "", " 4", "4.0"] {
            let err = parse_var::<u64>("LS_MP_TIMEOUT_SECS", Some(bad), 180).unwrap_err();
            assert_eq!(err.name, "LS_MP_TIMEOUT_SECS");
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains("LS_MP_TIMEOUT_SECS"), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
        let err = parse_var::<usize>("LS_LOCALES", Some("four"), 2).unwrap_err();
        assert_eq!(err.to_string(), "LS_LOCALES=\"four\" is not a valid usize");
    }
}
