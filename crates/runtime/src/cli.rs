//! Minimal shared `--threads`/`--seed` plumbing for examples and small
//! binaries.
//!
//! Every runnable in this workspace that fans out over a
//! [`ScenarioSweep`] accepts the same two flags;
//! this module is the single implementation so examples cannot silently
//! stay sequential. The figure binaries use the richer
//! `pan-bench::ScenarioSpec`, which recognizes the same flags.

use crate::{ScenarioSweep, ThreadPool};

/// Shared runtime options: worker threads and master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads for scenario sweeps (default: available
    /// parallelism).
    pub threads: usize,
    /// Master seed for all sweeps of the run.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: ThreadPool::with_available_parallelism().threads(),
            seed: 42,
        }
    }
}

/// The raw parse result of the shared flags: which were actually
/// present. Lets richer option layers (e.g. `pan-bench`'s
/// `ScenarioSpec`) distinguish "flag given" from "default" when merging
/// with a loaded spec file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunFlags {
    /// `--threads <N>` if present (clamped to at least 1).
    pub threads: Option<usize>,
    /// `--seed <u64>` if present.
    pub seed: Option<u64>,
}

impl RunFlags {
    /// Parses `--threads <N>` and `--seed <u64>` from an argument list
    /// (**no** leading program name). Unrecognized arguments are
    /// returned untouched, in order.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the flag when its value is
    /// missing or malformed.
    pub fn try_parse(args: impl Iterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut flags = RunFlags::default();
        let mut rest = Vec::new();
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--threads" => {
                    let value = args.next().ok_or("--threads requires a value")?;
                    let threads: usize = value
                        .parse()
                        .map_err(|_| format!("--threads expects a count, got {value:?}"))?;
                    flags.threads = Some(threads.max(1));
                }
                "--seed" => {
                    let value = args.next().ok_or("--seed requires a value")?;
                    flags.seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--seed expects a u64, got {value:?}"))?,
                    );
                }
                _ => rest.push(arg),
            }
        }
        Ok((flags, rest))
    }
}

impl RunOptions {
    /// Parses `--threads <N>` and `--seed <u64>` from an
    /// `std::env::args`-style iterator (the leading program name is
    /// skipped). `positional` names the one optional positional argument
    /// the caller accepts (e.g. a CAIDA snapshot path), or is `None` when
    /// it takes none; the argument is returned if given.
    ///
    /// # Errors
    ///
    /// The message of [`RunFlags::try_parse`] for a missing or
    /// malformed flag value, or a message naming the first unknown flag
    /// (any other argument starting with `-`) or unexpected positional
    /// argument.
    pub fn try_parse(
        args: impl Iterator<Item = String>,
        positional: Option<&str>,
    ) -> Result<(Self, Option<String>), String> {
        let (flags, rest) = RunFlags::try_parse(args.skip(1))?;
        let mut given = None;
        for arg in rest {
            if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            }
            if positional.is_none() || given.is_some() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            given = Some(arg);
        }
        let mut options = RunOptions::default();
        if let Some(threads) = flags.threads {
            options.threads = threads;
        }
        if let Some(seed) = flags.seed {
            options.seed = seed;
        }
        Ok((options, given))
    }

    /// Parses from [`std::env::args`] (see [`try_parse`](Self::try_parse)).
    /// A missing or malformed flag value, an unknown flag or an
    /// unexpected argument prints the message and the usage to stderr
    /// and exits with code 2.
    #[must_use]
    pub fn from_env(positional: Option<&str>) -> (Self, Option<String>) {
        Self::try_parse(std::env::args(), positional).unwrap_or_else(|message| {
            let program = std::env::args().next().unwrap_or_default();
            let name = std::path::Path::new(&program)
                .file_name()
                .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
            let positional = positional.map_or(String::new(), |p| format!(" [{p}]"));
            eprintln!("error: {message}\nusage: {name} [--threads <N>] [--seed <u64>]{positional}");
            std::process::exit(2);
        })
    }

    /// The thread pool configured by `--threads`.
    #[must_use]
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads)
    }

    /// A [`ScenarioSweep`] over the configured pool and seed.
    #[must_use]
    pub fn sweep(&self) -> ScenarioSweep {
        ScenarioSweep::new(self.pool(), self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> std::vec::IntoIter<String> {
        let mut all = vec!["bin".to_owned()];
        all.extend(items.iter().map(|s| (*s).to_owned()));
        all.into_iter()
    }

    #[test]
    fn defaults_and_flags() {
        let (o, given) = RunOptions::try_parse(args(&[]), None).unwrap();
        assert_eq!(o, RunOptions::default());
        assert_eq!(given, None);
        let (o, given) =
            RunOptions::try_parse(args(&["--threads", "3", "--seed", "9"]), None).unwrap();
        assert_eq!(o.threads, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.pool().threads(), 3);
        assert_eq!(o.sweep().master_seed(), 9);
        assert_eq!(given, None);
    }

    #[test]
    fn zero_threads_clamp_and_positionals_pass_through() {
        let (o, given) =
            RunOptions::try_parse(args(&["file.txt", "--threads", "0"]), Some("<snapshot>"))
                .unwrap();
        assert_eq!(o.threads, 1);
        assert_eq!(given.as_deref(), Some("file.txt"));
        let (_, given) = RunOptions::try_parse(args(&["--seed", "1"]), Some("<snapshot>")).unwrap();
        assert_eq!(given, None);
    }

    #[test]
    fn malformed_values_are_errors() {
        assert_eq!(
            RunOptions::try_parse(args(&["--seed", "abc"]), None),
            Err("--seed expects a u64, got \"abc\"".to_owned())
        );
        assert_eq!(
            RunOptions::try_parse(args(&["--threads", "many"]), None),
            Err("--threads expects a count, got \"many\"".to_owned())
        );
        assert_eq!(
            RunOptions::try_parse(args(&["--threads"]), None),
            Err("--threads requires a value".to_owned())
        );
    }

    #[test]
    fn unknown_flags_and_extra_arguments_are_errors() {
        assert_eq!(
            RunOptions::try_parse(args(&["--bogus"]), None),
            Err("unknown flag \"--bogus\"".to_owned())
        );
        assert_eq!(
            RunOptions::try_parse(args(&["file.txt", "--bogus"]), Some("<snapshot>")),
            Err("unknown flag \"--bogus\"".to_owned())
        );
        assert_eq!(
            RunOptions::try_parse(args(&["file.txt"]), None),
            Err("unexpected argument \"file.txt\"".to_owned())
        );
        assert_eq!(
            RunOptions::try_parse(args(&["a.txt", "b.txt"]), Some("<snapshot>")),
            Err("unexpected argument \"b.txt\"".to_owned())
        );
    }
}
