//! Declarative scenario specification shared by every binary in this
//! crate.
//!
//! A [`ScenarioSpec`] fully describes a run: mode, seed, thread budget,
//! topology size, and the discovery knobs. It is a plain serde struct,
//! so it can be
//!
//! - parsed from the shared command-line flags (the former six copies of
//!   per-binary option parsing),
//! - loaded from a JSON file via `--spec run.json` (flags after `--spec`
//!   still override its values),
//! - dumped with `--dump-spec` to produce a complete, editable spec file.
//!
//! The JSON shape is exactly the serde serialization of [`ScenarioSpec`]
//! (the vendored serde has no per-field defaults, so spec files must be
//! complete — `--dump-spec` writes one).

use serde::{Deserialize, Serialize};

use pan_datasets::{InternetConfig, MarketSource, SyntheticInternet};
use pan_runtime::{ScenarioSweep, ThreadPool};

/// Market-source selection of a [`ScenarioSpec`].
///
/// Empty strings are the "unset" sentinel (the vendored serde has no
/// per-field defaults, so `Option` round-trips poorly through spec
/// files): an empty `caida` means the synthetic generator, an empty
/// `snapshot` means "resolve the newest snapshot in the directory".
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// CAIDA snapshot directory (`--caida <dir>`); empty = synthetic.
    pub caida: String,
    /// Snapshot name under the directory (`--snapshot <name>`); empty =
    /// newest.
    pub snapshot: String,
}

/// Discovery-sweep knobs of a [`ScenarioSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiscoverySpec {
    /// Reroutable share of provider traffic (`[0, 1]`).
    pub reroute_share: f64,
    /// Attractable share of customer/end-host traffic (`[0, 1]`).
    pub attract_share: f64,
    /// Operating-point grid per axis (quick mode lowers this to 3).
    pub grid: usize,
    /// Peering-mesh candidate distance (1 = existing peers only).
    pub khop: u8,
    /// Per-source candidate cap for `khop > 1` (0 = unbounded).
    pub khop_cap: usize,
    /// Per-pair share jitter (`[0, 1]`, 0 = deterministic shares).
    pub noise: f64,
    /// Outcomes kept in the report and printed as JSON (0 = all).
    pub top: usize,
}

impl Default for DiscoverySpec {
    fn default() -> Self {
        DiscoverySpec {
            reroute_share: 0.5,
            attract_share: 0.2,
            grid: 5,
            khop: 1,
            khop_cap: 64,
            noise: 0.0,
            top: 100,
        }
    }
}

/// Market-evolution knobs of a [`ScenarioSpec`] (the `evolve` binary).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvolutionSpec {
    /// Round cap (quick mode lowers this to 4).
    pub rounds: usize,
    /// Maximum agreements adopted per round.
    pub adopt_top: usize,
    /// Minimum NBS surplus an agreement must clear to be adopted.
    pub min_surplus: f64,
    /// Market-shock magnitude between rounds (`[0, 1]`, 0 = none).
    pub shock: f64,
}

impl Default for EvolutionSpec {
    fn default() -> Self {
        EvolutionSpec {
            rounds: 12,
            adopt_top: 25,
            min_surplus: 1e-3,
            shock: 0.0,
        }
    }
}

/// Command-line/JSON specification shared by the figure binaries and
/// `discover`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Use reduced problem sizes for a fast smoke run.
    pub quick: bool,
    /// Base RNG seed (master seed of every sweep of the run).
    pub seed: u64,
    /// Emit a JSON dump after the human-readable table.
    pub json: bool,
    /// Worker threads for the scenario sweeps.
    pub threads: usize,
    /// Topology-size override (0 = per-binary default: 600 quick / 4,000
    /// full for the figures, 10,000 for `discover`).
    pub ases: usize,
    /// Sample-size override for per-AS analyses (0 = 100 quick / 500 full).
    pub sample: usize,
    /// Discovery knobs (ignored by the figure binaries).
    pub discovery: DiscoverySpec,
    /// Market-evolution knobs (used by `evolve` only).
    pub evolution: EvolutionSpec,
    /// Market-source selection (synthetic generator vs CAIDA snapshot).
    pub source: SourceSpec,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            quick: false,
            seed: 42,
            json: false,
            threads: ThreadPool::with_available_parallelism().threads(),
            ases: 0,
            sample: 0,
            discovery: DiscoverySpec::default(),
            evolution: EvolutionSpec::default(),
            source: SourceSpec::default(),
        }
    }
}

/// A command line a binary will not run: `--help` (or `-h`), or
/// arguments no parser recognized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// Usage was asked for.
    Help,
    /// These arguments matched no flag.
    Unknown(Vec<String>),
    /// A flag's value is missing or does not parse; the message names
    /// the flag.
    Malformed(String),
}

impl UsageError {
    /// Prints the usage of the running binary and exits: to stdout with
    /// code 0 for [`Help`](Self::Help), to stderr after the unknown
    /// arguments or the malformed value's message with code 2 otherwise.
    /// `own_flags` lists the flags the binary adds to the shared ones
    /// (empty when it adds none).
    pub fn exit(&self, own_flags: &str) -> ! {
        let program = std::env::args()
            .next()
            .and_then(|arg0| {
                std::path::Path::new(&arg0)
                    .file_name()
                    .map(|name| name.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "pan-bench".to_owned());
        let mut usage = format!("usage: {program} [flags]\nshared flags: {USAGE}");
        if !own_flags.is_empty() {
            usage.push_str(&format!("\n{program} adds: {own_flags}"));
        }
        match self {
            UsageError::Help => {
                println!("{usage}");
                std::process::exit(0);
            }
            UsageError::Unknown(args) => {
                eprintln!("error: unknown flags {args:?}\n{usage}");
                std::process::exit(2);
            }
            UsageError::Malformed(message) => {
                eprintln!("error: {message}\n{usage}");
                std::process::exit(2);
            }
        }
    }
}

const USAGE: &str = "--quick, --seed <u64>, --json, --threads <N>, --ases <N>, --sample <N>, \
     --reroute <f>, --attract <f>, --grid <N>, --khop <N>, --khop-cap <N>, --noise <f>, \
     --top <N>, --rounds <N>, --adopt-top <N>, --min-surplus <f>, --shock <f>, \
     --caida <dir>, --snapshot <name>, --spec <file.json>, --dump-spec, --help";

impl ScenarioSpec {
    /// Parses the shared flags from an `std::env::args`-style iterator
    /// (program name first). `--spec <file>` loads a complete JSON spec
    /// first; every flag on the command line then overrides the loaded
    /// values **regardless of position** (the spec file is the base
    /// layer, flags are the override layer). `--dump-spec` prints the
    /// final spec as JSON and exits. The shared `--threads`/`--seed`
    /// parsing is delegated to [`pan_runtime::RunFlags`], so examples
    /// and figure binaries cannot drift apart. Unrecognized arguments
    /// are returned for binary-specific handling (use
    /// [`expect_no_extras`](Self::expect_no_extras) when there are none).
    /// A missing or malformed flag value, or an unreadable spec file,
    /// exits through [`UsageError::exit`] with code 2.
    #[must_use]
    pub fn from_args(args: impl Iterator<Item = String>) -> (Self, Vec<String>) {
        Self::try_from_args(args).unwrap_or_else(|error| error.exit(""))
    }

    /// [`from_args`](Self::from_args), returning a bad value as
    /// [`UsageError::Malformed`] instead of exiting.
    fn try_from_args(
        args: impl Iterator<Item = String>,
    ) -> Result<(Self, Vec<String>), UsageError> {
        fn value(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<String, UsageError> {
            args.next()
                .ok_or_else(|| UsageError::Malformed(format!("{flag} requires a value")))
        }
        fn parsed<T: std::str::FromStr>(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
            kind: &str,
        ) -> Result<T, UsageError> {
            let raw = value(args, flag)?;
            raw.parse()
                .map_err(|_| UsageError::Malformed(format!("{flag} expects {kind}, got {raw:?}")))
        }

        // Pass 1: extract `--spec <file>` (the base layer) so that flag
        // position relative to it cannot matter.
        let raw: Vec<String> = args.skip(1).collect();
        let mut spec = ScenarioSpec::default();
        let mut remaining = Vec::with_capacity(raw.len());
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            if arg == "--spec" {
                let path = value(&mut raw, "--spec")?;
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    UsageError::Malformed(format!("cannot read spec file {path:?}: {e}"))
                })?;
                spec = serde_json::from_str(&text).map_err(|e| {
                    UsageError::Malformed(format!("malformed spec file {path:?}: {e}"))
                })?;
            } else {
                remaining.push(arg);
            }
        }

        // Pass 2: the shared runtime flags, via the one implementation.
        let (run_flags, remaining) = pan_runtime::RunFlags::try_parse(remaining.into_iter())
            .map_err(UsageError::Malformed)?;
        if let Some(threads) = run_flags.threads {
            spec.threads = threads;
        }
        if let Some(seed) = run_flags.seed {
            spec.seed = seed;
        }

        // Pass 3: spec-specific flags.
        let mut rest = Vec::new();
        let mut dump = false;
        let mut args = remaining.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => spec.quick = true,
                "--json" => spec.json = true,
                "--dump-spec" => dump = true,
                "--ases" => spec.ases = parsed(&mut args, "--ases", "a count")?,
                "--sample" => spec.sample = parsed(&mut args, "--sample", "a count")?,
                "--reroute" => {
                    spec.discovery.reroute_share = parsed(&mut args, "--reroute", "a fraction")?
                }
                "--attract" => {
                    spec.discovery.attract_share = parsed(&mut args, "--attract", "a fraction")?
                }
                "--grid" => spec.discovery.grid = parsed(&mut args, "--grid", "a count")?,
                "--khop" => spec.discovery.khop = parsed(&mut args, "--khop", "a hop count")?,
                "--khop-cap" => {
                    spec.discovery.khop_cap = parsed(&mut args, "--khop-cap", "a count")?
                }
                "--noise" => spec.discovery.noise = parsed(&mut args, "--noise", "a fraction")?,
                "--top" => spec.discovery.top = parsed(&mut args, "--top", "a count")?,
                "--rounds" => spec.evolution.rounds = parsed(&mut args, "--rounds", "a count")?,
                "--adopt-top" => {
                    spec.evolution.adopt_top = parsed(&mut args, "--adopt-top", "a count")?
                }
                "--min-surplus" => {
                    spec.evolution.min_surplus = parsed(&mut args, "--min-surplus", "a utility")?
                }
                "--shock" => spec.evolution.shock = parsed(&mut args, "--shock", "a fraction")?,
                "--caida" => spec.source.caida = value(&mut args, "--caida")?,
                "--snapshot" => spec.source.snapshot = value(&mut args, "--snapshot")?,
                _ => rest.push(arg),
            }
        }
        if dump {
            println!("{}", serde_json::to_string(&spec).expect("specs serialize"));
            std::process::exit(0);
        }
        Ok((spec, rest))
    }

    /// Parses [`std::env::args`], rejecting any argument the shared
    /// parser does not recognize — the one-liner for binaries with no
    /// flags of their own. `--help` prints usage and exits 0; an
    /// unknown flag or a malformed value prints usage to stderr and
    /// exits 2.
    #[must_use]
    pub fn from_env_strict() -> Self {
        let (spec, rest) = Self::from_args(std::env::args());
        Self::expect_no_extras(&rest);
        spec
    }

    /// Classifies what every parser left behind: nothing is fine,
    /// `--help`/`-h` anywhere asks for usage, anything else is unknown.
    ///
    /// # Errors
    ///
    /// [`UsageError::Help`] or [`UsageError::Unknown`], as above.
    pub fn check_extras(rest: &[String]) -> Result<(), UsageError> {
        if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
            Err(UsageError::Help)
        } else if rest.is_empty() {
            Ok(())
        } else {
            Err(UsageError::Unknown(rest.to_vec()))
        }
    }

    /// Exits through [`UsageError::exit`] if parsing left arguments
    /// behind, for binaries without flags of their own.
    pub fn expect_no_extras(rest: &[String]) {
        Self::expect_no_extras_for(rest, "");
    }

    /// [`expect_no_extras`](Self::expect_no_extras) for a binary that
    /// adds `own_flags` to the shared ones (listed in its usage).
    pub fn expect_no_extras_for(rest: &[String], own_flags: &str) {
        if let Err(error) = Self::check_extras(rest) {
            error.exit(own_flags);
        }
    }

    /// The thread pool configured by `--threads`.
    #[must_use]
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads)
    }

    /// A [`ScenarioSweep`] over the configured pool and `--seed`.
    #[must_use]
    pub fn sweep(&self) -> ScenarioSweep {
        ScenarioSweep::new(self.pool(), self.seed)
    }

    /// Number of ASes for the standard figure topologies, honoring the
    /// `--ases` override.
    #[must_use]
    pub fn figure_ases(&self) -> usize {
        if self.ases > 0 {
            self.ases
        } else if self.quick {
            600
        } else {
            4_000
        }
    }

    /// The [`InternetConfig`] of the run's synthetic topology.
    #[must_use]
    pub fn internet_config(&self) -> InternetConfig {
        let num_ases = self.figure_ases();
        InternetConfig {
            num_ases,
            tier1_count: if num_ases <= 1_000 { 8 } else { 12 },
            ..InternetConfig::default()
        }
    }

    /// The run's [`MarketSource`]: the CAIDA snapshot named by
    /// `--caida`/`--snapshot` when given, the spec-derived synthetic
    /// generator otherwise.
    #[must_use]
    pub fn market_source(&self) -> MarketSource {
        if self.source.caida.is_empty() {
            MarketSource::Synthetic(self.internet_config())
        } else {
            MarketSource::Caida {
                dir: self.source.caida.clone().into(),
                snapshot: if self.source.snapshot.is_empty() {
                    None
                } else {
                    Some(self.source.snapshot.clone())
                },
            }
        }
    }

    /// Builds the run's market input data from its [`market_source`](Self::market_source).
    ///
    /// # Panics
    ///
    /// Panics with the source error when the market cannot be built
    /// (e.g. a missing snapshot directory) — the behavior every binary
    /// wants for a bad command line. Fallible callers use
    /// [`MarketSource::build`] directly.
    #[must_use]
    pub fn internet(&self) -> SyntheticInternet {
        self.market_source()
            .build(self.seed)
            .unwrap_or_else(|e| panic!("cannot build market source: {e}"))
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
    fn parse_defaults() {
        let (spec, rest) = ScenarioSpec::from_args(args(&[]));
        assert_eq!(spec, ScenarioSpec::default());
        assert!(rest.is_empty());
    }

    #[test]
    fn parse_flags() {
        let (spec, rest) = ScenarioSpec::from_args(args(&[
            "--quick",
            "--seed",
            "7",
            "--json",
            "--threads",
            "4",
            "--ases",
            "12000",
            "--grid",
            "3",
            "--khop",
            "2",
            "--noise",
            "0.1",
            "--top",
            "5",
        ]));
        assert!(spec.quick && spec.json);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.ases, 12_000);
        assert_eq!(spec.discovery.grid, 3);
        assert_eq!(spec.discovery.khop, 2);
        assert_eq!(spec.discovery.noise, 0.1);
        assert_eq!(spec.discovery.top, 5);
        assert!(rest.is_empty());
        assert_eq!(spec.pool().threads(), 4);
        assert_eq!(spec.sweep().master_seed(), 7);
    }

    #[test]
    fn parse_evolution_flags() {
        let (spec, rest) = ScenarioSpec::from_args(args(&[
            "--rounds",
            "6",
            "--adopt-top",
            "40",
            "--min-surplus",
            "0.5",
            "--shock",
            "0.25",
        ]));
        assert!(rest.is_empty());
        assert_eq!(spec.evolution.rounds, 6);
        assert_eq!(spec.evolution.adopt_top, 40);
        assert_eq!(spec.evolution.min_surplus, 0.5);
        assert_eq!(spec.evolution.shock, 0.25);
    }

    #[test]
    fn unknown_flags_are_returned_and_rejected_on_demand() {
        let (_, rest) = ScenarioSpec::from_args(args(&["--engine", "dense"]));
        assert_eq!(rest, vec!["--engine".to_owned(), "dense".to_owned()]);
        ScenarioSpec::expect_no_extras(&[]);
    }

    #[test]
    fn extras_are_usage_errors() {
        let owned = |items: &[&str]| items.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(ScenarioSpec::check_extras(&[]), Ok(()));
        assert_eq!(
            ScenarioSpec::check_extras(&owned(&["--wat", "3"])),
            Err(UsageError::Unknown(owned(&["--wat", "3"])))
        );
        for help in ["--help", "-h"] {
            assert_eq!(
                ScenarioSpec::check_extras(&owned(&["--wat", help])),
                Err(UsageError::Help)
            );
        }
    }

    #[test]
    fn spec_file_round_trips_through_json() {
        let spec = ScenarioSpec {
            quick: true,
            seed: 9,
            ases: 321,
            ..ScenarioSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let path = std::env::temp_dir().join("pan-bench-spec-test.json");
        std::fs::write(&path, &json).unwrap();
        let (loaded, rest) = ScenarioSpec::from_args(args(&[
            "--seed",
            "11", // flags override the file regardless of position …
            "--spec",
            path.to_str().unwrap(),
            "--threads",
            "3", // … before or after --spec
        ]));
        std::fs::remove_file(&path).ok();
        assert!(rest.is_empty());
        assert_eq!(loaded.quick, spec.quick);
        assert_eq!(loaded.ases, spec.ases);
        assert_eq!(loaded.seed, 11);
        assert_eq!(loaded.threads, 3);
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn source_flags_select_the_market_source() {
        let (spec, rest) = ScenarioSpec::from_args(args(&[]));
        assert!(rest.is_empty());
        assert_eq!(
            spec.market_source(),
            MarketSource::Synthetic(spec.internet_config())
        );

        let (spec, rest) =
            ScenarioSpec::from_args(args(&["--caida", "/data/caida", "--snapshot", "2024"]));
        assert!(rest.is_empty());
        assert_eq!(
            spec.market_source(),
            MarketSource::Caida {
                dir: "/data/caida".into(),
                snapshot: Some("2024".to_owned()),
            }
        );

        let (spec, _) = ScenarioSpec::from_args(args(&["--caida", "/data/caida"]));
        assert_eq!(
            spec.market_source(),
            MarketSource::Caida {
                dir: "/data/caida".into(),
                snapshot: None,
            }
        );
    }

    #[test]
    fn figure_sizes() {
        let quick = ScenarioSpec {
            quick: true,
            ..ScenarioSpec::default()
        };
        assert_eq!(quick.figure_ases(), 600);
        assert_eq!(quick.internet_config().tier1_count, 8);
        let full = ScenarioSpec::default();
        assert_eq!(full.figure_ases(), 4_000);
        let sized = ScenarioSpec {
            ases: 2_000,
            ..ScenarioSpec::default()
        };
        assert_eq!(sized.figure_ases(), 2_000);
    }
}
