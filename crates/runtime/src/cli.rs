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
    /// # Panics
    ///
    /// Panics with a usage message on malformed or missing flag values;
    /// [`try_parse`](Self::try_parse) returns the message instead.
    pub fn parse(args: impl Iterator<Item = String>) -> (Self, Vec<String>) {
        Self::try_parse(args).unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`parse`](Self::parse) for callers that report a bad command line
    /// themselves.
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
    /// skipped). Unrecognized arguments are returned untouched, in
    /// order, so callers with extra positional arguments (e.g. a CAIDA
    /// file path) can consume them afterwards.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed or missing flag values.
    pub fn parse(args: impl Iterator<Item = String>) -> (Self, Vec<String>) {
        let (flags, rest) = RunFlags::parse(args.skip(1));
        let mut options = RunOptions::default();
        if let Some(threads) = flags.threads {
            options.threads = threads;
        }
        if let Some(seed) = flags.seed {
            options.seed = seed;
        }
        (options, rest)
    }

    /// Parses from [`std::env::args`].
    #[must_use]
    pub fn from_env() -> (Self, Vec<String>) {
        Self::parse(std::env::args())
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
        let (o, rest) = RunOptions::parse(args(&[]));
        assert_eq!(o, RunOptions::default());
        assert!(rest.is_empty());
        let (o, rest) = RunOptions::parse(args(&["--threads", "3", "--seed", "9"]));
        assert_eq!(o.threads, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.pool().threads(), 3);
        assert_eq!(o.sweep().master_seed(), 9);
        assert!(rest.is_empty());
    }

    #[test]
    fn zero_threads_clamp_and_positionals_pass_through() {
        let (o, rest) = RunOptions::parse(args(&["file.txt", "--threads", "0", "--flag"]));
        assert_eq!(o.threads, 1);
        assert_eq!(rest, vec!["file.txt".to_owned(), "--flag".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "--seed expects a u64")]
    fn malformed_seed_panics() {
        let _ = RunOptions::parse(args(&["--seed", "abc"]));
    }
}
