//! Minimal flag parsing for the `fcma` CLI (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` pairs.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` options.
    options: HashMap<String, String>,
    /// Bare `--flag` switches.
    flags: Vec<String>,
    /// Extra positional arguments (only for commands in [`POSITIONAL_COMMANDS`]).
    positionals: Vec<String>,
}

/// Parsing errors with user-facing messages.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// An option that expected a value got none.
    MissingValue(String),
    /// A value failed to parse.
    BadValue { key: String, value: String, want: &'static str },
    /// Extra positional argument.
    UnexpectedPositional(String),
    /// An option the command does not take.
    UnknownOption { option: String, command: String },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no command given (try `fcma help`)"),
            ArgError::MissingValue(k) => write!(f, "option --{k} expects a value"),
            ArgError::BadValue { key, value, want } => {
                write!(f, "option --{key}: {value:?} is not a valid {want}")
            }
            ArgError::UnexpectedPositional(p) => {
                write!(f, "unexpected argument {p:?}")
            }
            ArgError::UnknownOption { option, command } => {
                write!(f, "`fcma {command}` has no option --{option}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Keys that are switches (take no value).
const SWITCHES: &[&str] = &["help", "resume", "check"];

/// Commands that accept bare positional arguments after the command name.
const POSITIONAL_COMMANDS: &[&str] = &["report", "top", "postmortem"];

/// The options each command takes, switches included and separated by
/// spaces; `--help` is taken by every command. An unlisted command is
/// left for `main` to reject.
const COMMAND_OPTIONS: &[(&str, &str)] = &[
    ("generate", "preset voxels subjects coupling placement seed out"),
    ("info", "data"),
    (
        "analyze",
        "data task-size top-k out threads truth workers retries task-deadline-ms checkpoint \
         resume trace-out metrics-out postmortem chaos-panic-task",
    ),
    ("report", "check slo"),
    ("top", ""),
    ("postmortem", ""),
    ("offline", "data top-k task-size threads"),
    ("clusters", "scores top-k grid"),
    ("mask", "data threshold out"),
    ("help", ""),
];

/// The options `command` takes, if it is a command.
pub(crate) fn options_of(command: &str) -> Option<Vec<&'static str>> {
    let (_, options) = COMMAND_OPTIONS.iter().find(|(c, _)| *c == command)?;
    Some(options.split_whitespace().collect())
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
        let mut it = args.into_iter().peekable();
        let command = it.next().ok_or(ArgError::NoCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::NoCommand);
        }
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let accepted = options_of(&command);
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key != "help" && accepted.as_ref().is_some_and(|o| !o.contains(&key)) {
                    return Err(ArgError::UnknownOption { option: key.into(), command });
                }
                if SWITCHES.contains(&key) {
                    flags.push(key.to_string());
                } else {
                    let v = it.next().ok_or_else(|| ArgError::MissingValue(key.into()))?;
                    options.insert(key.to_string(), v);
                }
            } else if POSITIONAL_COMMANDS.contains(&command.as_str()) {
                positionals.push(a);
            } else {
                return Err(ArgError::UnexpectedPositional(a));
            }
        }
        Ok(Args { command, options, flags, positionals })
    }

    /// Positional argument `i` (after the command name).
    pub(crate) fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(std::string::String::as_str)
    }

    /// Raw string option.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(std::string::String::as_str)
    }

    /// String option with default.
    pub(crate) fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// Parsed numeric/typed option with default.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        want: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError::BadValue { key: key.into(), value: v.into(), want })
            }
        }
    }

    /// Whether a bare switch was given.
    pub(crate) fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, ArgError> {
        Args::parse(v.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["analyze", "--task-size", "512", "--out", "s.tsv", "--resume"]).unwrap();
        assert_eq!(a.command, "analyze");
        assert_eq!(a.get("task-size"), Some("512"));
        assert_eq!(a.get_or("data", "fallback"), "fallback");
        assert!(a.has_flag("resume"));
        assert_eq!(a.get_parsed("task-size", 0usize, "integer").unwrap(), 512);
    }

    #[test]
    fn report_accepts_positionals() {
        let a = parse(&["report", "trace.json", "--check"]).unwrap();
        assert_eq!(a.positional(0), Some("trace.json"));
        assert_eq!(a.positional(1), None);
        assert!(a.has_flag("check"));
        // Other commands still reject stray positionals.
        assert!(matches!(
            parse(&["analyze", "trace.json"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::NoCommand);
        assert_eq!(
            parse(&["generate", "--out"]).unwrap_err(),
            ArgError::MissingValue("out".into())
        );
        assert!(matches!(
            parse(&["info", "stray"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
        let a = parse(&["generate", "--voxels", "abc"]).unwrap();
        assert!(matches!(
            a.get_parsed("voxels", 0usize, "integer").unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }

    #[test]
    fn unknown_and_retired_options_are_rejected() {
        // A typo used to score with the default, and `--executor`,
        // `--verbose` and `--trace` are options no command takes any more.
        for (argv, option) in [
            (&["analyze", "--data", "ds", "--task-sise", "0", "--top-k", "2"][..], "task-sise"),
            (&["info", "--data", "ds", "--bogus", "x"], "bogus"),
            (&["analyze", "--data", "ds", "--executor", "baseline"], "executor"),
            (&["offline", "--data", "ds", "--executor", "baseline"], "executor"),
            (&["generate", "--out", "ds", "--verbose"], "verbose"),
            (&["report", "--trace", "trace.json"], "trace"),
            (&["top", "--trace", "trace.json"], "trace"),
        ] {
            let command = argv[0];
            let err = parse(argv).unwrap_err();
            assert_eq!(
                err,
                ArgError::UnknownOption { option: option.into(), command: command.into() }
            );
            assert_eq!(err.to_string(), format!("`fcma {command}` has no option --{option}"));
        }
    }
}
