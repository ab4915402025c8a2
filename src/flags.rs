//! The `--flag value` command line shared by `disks-coordinator` and
//! `disks-worker`.
//!
//! Like a `DISKS_*` variable (`ClusterConfig::from_env`), a flag is read or
//! refused: a name the binary does not have, or a value that is not of the
//! flag's form, ends the process with exit code 2 naming it — never a run
//! on the default.

use std::process::exit;
use std::str::FromStr;

/// The process's arguments, checked to be `--flag value` pairs whose flags
/// are all in `flags`.
pub fn args_or_exit(binary: &str, flags: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().step_by(2).find(|a| !flags.contains(&a.as_str())) {
        eprintln!("{binary}: unknown flag '{unknown}' (expected one of {})", flags.join(" "));
        exit(2);
    }
    if let [flag] = args.chunks_exact(2).remainder() {
        eprintln!("{binary}: {flag}: expected a value");
        exit(2);
    }
    args
}

/// The value given for `flag`, or `None` when the flag is absent. `form`
/// says what the flag takes, for the refusal of a value that does not
/// parse.
pub fn value_or_exit<T: FromStr>(
    binary: &str,
    args: &[String],
    flag: &str,
    form: &str,
) -> Option<T> {
    let value = args.chunks_exact(2).find(|pair| pair[0] == flag).map(|pair| &pair[1])?;
    Some(value.parse().unwrap_or_else(|_| {
        eprintln!("{binary}: {flag} {value}: expected {form}");
        exit(2);
    }))
}
