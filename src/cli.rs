//! Command-line interface logic (the `pdm` binary is a thin wrapper).
//!
//! ```text
//! pdm build  --dict words.txt --out index.snap
//! pdm match  --dict words.txt --text corpus.bin [--threads N] [--all]
//! pdm match  --index index.snap --text corpus.bin
//! pdm prefix --dict words.txt --text corpus.bin
//! pdm stats  --dict words.txt
//! pdm gen    --out corpus.bin --bytes 1048576 [--seed 7] [--markov]
//! pdm serve  --dict words.txt --port 7700 [--workers N] [--queue-cap Q]
//! pdm serve  --dict-log dict.pdml --port 7700          # live updates on
//! pdm match  --dict words.txt --text corpus.bin --stream [--chunk-bytes K]
//! pdm dict   add|remove|commit|info|compact (--log F | --addr H:P) [...]
//! ```
//!
//! Dictionary files hold one pattern per line (UTF-8 lines, matched as raw
//! bytes); text files are matched as raw bytes. Everything here is plain
//! `std` — no CLI dependencies.

use crate::prelude::*;
use std::io::Write;
use std::sync::Arc;

/// Where the dictionary comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictSource {
    Patterns(String),
    Index(String),
    /// A versioned dictionary log (`match --dict-log`): the committed
    /// epoch is served, cold-loaded from its `.snap` sidecar when fresh.
    Log(String),
}

/// Where a `pdm dict` subcommand applies: a local log file, or a running
/// `pdm serve --dict-log` server over the admin frames in
/// `pdm_stream::proto`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictTarget {
    Log(String),
    Addr(String),
}

/// A `pdm dict` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictOp {
    Add {
        pattern: String,
    },
    Remove {
        pattern: String,
    },
    Commit,
    Info,
    /// Local-only: rewrite the log to live patterns + staged tail and emit
    /// a `<log>.snap` snapshot.
    Compact,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Match {
        /// A dictionary file (`--dict`) or a prebuilt index (`--index`).
        dict: DictSource,
        text: String,
        threads: Option<usize>,
        all: bool,
        /// `--stream`: run through [`pdm_stream::StreamMatcher`] in
        /// `chunk_bytes`-sized chunks instead of one whole-text call.
        stream: bool,
        chunk_bytes: usize,
    },
    Serve {
        /// Static dictionary (`--dict`/`--index`), or with `--dict-log`
        /// the optional `--dict` seed for an empty log.
        dict: Option<DictSource>,
        /// `--dict-log`: serve from a versioned dictionary log and accept
        /// live `DICT_*` updates (see [`pdm_stream::admin`]).
        dict_log: Option<String>,
        port: u16,
        workers: Option<usize>,
        queue_cap: usize,
        /// Per-connection idle read timeout in ms; 0 disables it.
        read_timeout_ms: u64,
        /// Live-connection cap (arrivals beyond it are load-shed); 0 = unlimited.
        max_conns: usize,
        /// How long shutdown waits for in-flight sessions before force-closing.
        drain_deadline_ms: u64,
        /// `--reactors N`: reactor threads; 0 = auto (one per core, ≤ 8).
        reactors: usize,
    },
    Build {
        dict: String,
        out: String,
    },
    Prefix {
        dict: String,
        text: String,
        threads: Option<usize>,
    },
    Stats {
        /// Local: a dictionary file (`--dict`) or a prebuilt index
        /// (`--index`) — build/load it and print table statistics.
        dict: Option<DictSource>,
        /// Remote: `--addr host:port` — ask a running `pdm serve` for its
        /// global counters over a `TAG_STATS` frame.
        addr: Option<String>,
    },
    Dict {
        op: DictOp,
        target: DictTarget,
    },
    Gen {
        out: String,
        bytes: usize,
        seed: u64,
        markov: bool,
        /// `--corpus genome|log`: indexing-workload corpus shapes from
        /// `pdm_textgen::corpus` instead of the matching-workload texts.
        corpus: Option<String>,
        /// `--patterns-out F [--pattern-count K]`: also sample a query
        /// batch from the generated corpus, one pattern per line.
        patterns_out: Option<String>,
        pattern_count: usize,
    },
    /// Build a suffix-array sidecar for a corpus (`pdm-index`).
    Index {
        text: String,
        out: String,
        threads: Option<usize>,
    },
    /// Inspect any sidecar file: magic, version, CRC status, sections.
    SnapInspect {
        file: String,
    },
    /// Deep-validate (and optionally repair) on-disk stores: a dictionary
    /// log + its `.snap` sidecar (`--log`) and/or a `PDMX` corpus-index
    /// sidecar (`--index`).
    Fsck {
        log: Option<String>,
        index: Option<String>,
        repair: bool,
    },
    /// Answer a pattern batch from a prebuilt sidecar.
    Query {
        index: String,
        patterns: String,
        threads: Option<usize>,
        /// `--locate`: print every occurrence, not just per-pattern counts.
        locate: bool,
        /// `--no-merge`: disable interval merging (for measurement).
        no_merge: bool,
        /// `--verify`: cross-check counts against the Aho–Corasick baseline.
        verify: bool,
    },
    Help,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

pub const USAGE: &str = "\
pdm — parallel dictionary matching (Muthukrishnan & Palem, SPAA'93)

USAGE:
  pdm build  --dict <file> --out <index>
  pdm match  --dict <file> --text <file> [--threads N] [--all]
  pdm match  --index <file> --text <file> [--threads N] [--all]
  pdm match  --dict <file> --text <file> --stream [--chunk-bytes K]
  pdm match  --dict-log <file> --text <file> [--threads N]
  pdm prefix --dict <file> --text <file> [--threads N]
  pdm serve  --dict <file> --port <n> [--workers N] [--queue-cap Q]
             [--read-timeout-ms T] [--max-conns C] [--drain-deadline-ms D]
             [--reactors N]
  pdm serve  --dict-log <file> --port <n> [--dict <seed>] [...]
  pdm stats  --dict <file> | --index <file> | --addr <host:port>
  pdm dict   add    --pattern <text> (--log <file> | --addr <host:port>)
  pdm dict   remove --pattern <text> (--log <file> | --addr <host:port>)
  pdm dict   commit (--log <file> | --addr <host:port>)
  pdm dict   info   (--log <file> | --addr <host:port>)
  pdm dict   compact --log <file>
  pdm gen    --out <file> --bytes <n> [--seed S] [--markov | --corpus genome|log]
             [--patterns-out <file> [--pattern-count K]]
  pdm snap   inspect --file <sidecar>
  pdm fsck   (--log <file> | --index <file.pdmx>) [--repair]
  pdm index  --text <corpus> --out <file.pdmx> [--threads N]
  pdm query  --index <file.pdmx> --patterns <file> [--threads N]
             [--locate] [--no-merge] [--verify]
  pdm help

Dictionary files: one pattern per line. Texts are matched byte-wise.
`match` prints one line per occurrence: <offset>\\t<pattern-index>\\t<pattern>.
`--all` lists every pattern per position, not just the longest.
`--stream` feeds the text chunk-at-a-time through the streaming matcher
(implies `--all`; default chunk 65536 bytes), matching what `serve` does
per connection.
`build` writes the preprocessed dictionary as a `.snap` sidecar (PDMS v2,
CRC-checked, the form `dict compact` writes) for repeated `--index` runs;
`match --index` prints what `match --dict` prints.
`serve` answers the length-prefixed TCP protocol in pdm_stream::proto;
one connection = one stream session over a shared dictionary.
`--read-timeout-ms` closes idle connections (0 = never, the default);
`--max-conns` load-sheds arrivals beyond the cap with a busy error frame
(0 = unlimited); `--drain-deadline-ms` bounds the graceful drain on
shutdown (default 5000).
A fixed pool of epoll event loops owns all connections — tens of
thousands of concurrent sessions on a handful of threads; `--reactors N`
sizes the pool (0 = one per core, capped at 8).
`pdm stats --addr host:port` asks a running server for its live global
counters (sessions, frames decoded, reactor wakeups, partial writes,
timer expirations, …) over the same frame protocol.
`index` builds the offline suffix-array sidecar (pdm-index, PDMX format;
on load the CRC is verified and the suffix array checked against the
corpus). The suffix array is built sequentially in linear time (SA-IS);
`--threads` parallelizes only the LCP pass and the queries. `query`
answers a batch of patterns (one per line) against it without touching
the corpus again — per-pattern counts by default, `--locate` for every
occurrence as <offset>\\t<pattern>\\t<text>.
`gen --corpus genome|log` emits the indexing-workload corpus shapes;
`--patterns-out` samples a prefix-sharing query batch from the corpus.
`serve --dict-log` enables live dictionary updates: the dictionary lives
in an append-only log, `dict add/remove` stage changes, and `dict commit`
publishes them as a new epoch that running sessions adopt at their next
chunk boundary without dropping connections. With an empty log, `--dict`
seeds it from a pattern file. `dict ... --addr` administers a running
server; `--log` edits the log file directly (server stopped). `compact`
rewrites the log to its live patterns and emits a `<log>.snap` snapshot
holding the *built* matcher; `serve --dict-log` and `match --dict-log`
boot from a fresh snapshot in O(file size) with no rebuild, and fall back
to rebuilding when it is missing, legacy, corrupt, or stale.
`snap inspect` prints any sidecar's magic, version, CRC status, and
sections (`.snap` snapshots, `.pdmx` corpus indexes, `.pdml` dict logs).
`fsck` deep-validates a store — log header and every record CRC, a replay
simulation catching CRC-valid-but-inconsistent op streams, sidecar
freshness against the log, stray temp files — and reports which boot path
the store would take. `--repair` performs the safe repairs: truncate a
torn log tail, quarantine a corrupt sidecar to `*.corrupt`, sweep `*.tmp`
leftovers. Exit 0 = healthy/bootable, 1 = findings (or unbootable), 2 =
fatal. Stale sidecars are informational: boot falls back to a rebuild.
";

/// Parse argv (excluding the program name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    // `dict` takes an action word before its flags: `pdm dict add --…`.
    let mut dict_action = None;
    if sub == "dict" {
        dict_action = Some(it.next().cloned().ok_or_else(|| {
            UsageError("dict requires an action: add|remove|commit|info|compact".into())
        })?);
    }
    // `snap` likewise: `pdm snap inspect --file …`.
    if sub == "snap" {
        let action = it
            .next()
            .cloned()
            .ok_or_else(|| UsageError("snap requires an action: inspect".into()))?;
        if action != "inspect" {
            return Err(UsageError(format!(
                "unknown snap action: {action} (expected inspect)"
            )));
        }
    }
    let mut dict = None;
    let mut index = None;
    let mut text = None;
    let mut out = None;
    let mut bytes = None;
    let mut seed = 0u64;
    let mut threads = None;
    let mut all = false;
    let mut markov = false;
    let mut stream = false;
    let mut chunk_bytes = 64 * 1024;
    let mut port = None;
    let mut workers = None;
    let mut queue_cap = 16usize;
    let mut read_timeout_ms = 0u64;
    let mut max_conns = 0usize;
    let mut drain_deadline_ms = 5000u64;
    let mut reactors = 0usize;
    let mut dict_log = None;
    let mut log = None;
    let mut addr = None;
    let mut pattern = None;
    let mut patterns = None;
    let mut corpus = None;
    let mut patterns_out = None;
    let mut pattern_count = 1000usize;
    let mut locate = false;
    let mut no_merge = false;
    let mut verify = false;
    let mut file = None;
    let mut repair = false;
    while let Some(a) = it.next() {
        let mut need = |name: &str| -> Result<String, UsageError> {
            it.next()
                .cloned()
                .ok_or_else(|| UsageError(format!("{name} requires a value")))
        };
        match a.as_str() {
            "--dict" => dict = Some(need("--dict")?),
            "--index" => index = Some(need("--index")?),
            "--text" => text = Some(need("--text")?),
            "--out" => out = Some(need("--out")?),
            "--bytes" => {
                bytes = Some(
                    need("--bytes")?
                        .parse()
                        .map_err(|_| UsageError("--bytes wants an integer".into()))?,
                )
            }
            "--seed" => {
                seed = need("--seed")?
                    .parse()
                    .map_err(|_| UsageError("--seed wants an integer".into()))?
            }
            "--threads" => {
                threads = Some(
                    need("--threads")?
                        .parse()
                        .map_err(|_| UsageError("--threads wants an integer".into()))?,
                )
            }
            "--all" => all = true,
            "--markov" => markov = true,
            "--stream" => stream = true,
            "--chunk-bytes" => {
                chunk_bytes = need("--chunk-bytes")?
                    .parse()
                    .map_err(|_| UsageError("--chunk-bytes wants an integer".into()))?;
                if chunk_bytes == 0 {
                    return Err(UsageError("--chunk-bytes must be positive".into()));
                }
            }
            "--port" => {
                port = Some(
                    need("--port")?
                        .parse()
                        .map_err(|_| UsageError("--port wants a port number".into()))?,
                )
            }
            "--workers" => {
                workers = Some(
                    need("--workers")?
                        .parse()
                        .map_err(|_| UsageError("--workers wants an integer".into()))?,
                )
            }
            "--queue-cap" => {
                queue_cap = need("--queue-cap")?
                    .parse()
                    .map_err(|_| UsageError("--queue-cap wants an integer".into()))?;
                if queue_cap == 0 {
                    return Err(UsageError("--queue-cap must be positive".into()));
                }
            }
            "--read-timeout-ms" => {
                read_timeout_ms = need("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| UsageError("--read-timeout-ms wants an integer".into()))?
            }
            "--max-conns" => {
                max_conns = need("--max-conns")?
                    .parse()
                    .map_err(|_| UsageError("--max-conns wants an integer".into()))?
            }
            "--drain-deadline-ms" => {
                drain_deadline_ms = need("--drain-deadline-ms")?
                    .parse()
                    .map_err(|_| UsageError("--drain-deadline-ms wants an integer".into()))?
            }
            "--reactors" => {
                reactors = need("--reactors")?
                    .parse()
                    .map_err(|_| UsageError("--reactors wants an integer".into()))?
            }
            "--dict-log" => dict_log = Some(need("--dict-log")?),
            "--log" => log = Some(need("--log")?),
            "--addr" => addr = Some(need("--addr")?),
            "--pattern" => pattern = Some(need("--pattern")?),
            "--patterns" => patterns = Some(need("--patterns")?),
            "--corpus" => corpus = Some(need("--corpus")?),
            "--patterns-out" => patterns_out = Some(need("--patterns-out")?),
            "--pattern-count" => {
                pattern_count = need("--pattern-count")?
                    .parse()
                    .map_err(|_| UsageError("--pattern-count wants an integer".into()))?;
                if pattern_count == 0 {
                    return Err(UsageError("--pattern-count must be positive".into()));
                }
            }
            "--locate" => locate = true,
            "--no-merge" => no_merge = true,
            "--verify" => verify = true,
            "--file" => file = Some(need("--file")?),
            "--repair" => repair = true,
            other => return Err(UsageError(format!("unknown flag: {other}"))),
        }
    }
    let want = |o: Option<String>, name: &str| -> Result<String, UsageError> {
        o.ok_or_else(|| UsageError(format!("{sub} requires {name}")))
    };
    let source = |dict: Option<String>, index: Option<String>| match (dict, index) {
        (Some(d), None) => Ok(DictSource::Patterns(d)),
        (None, Some(i)) => Ok(DictSource::Index(i)),
        (Some(_), Some(_)) => Err(UsageError("--dict and --index are exclusive".into())),
        (None, None) => Err(UsageError(format!("{sub} requires --dict or --index"))),
    };
    match sub {
        "match" => {
            let src = if let Some(log) = dict_log {
                if dict.is_some() || index.is_some() {
                    return Err(UsageError(
                        "--dict-log is exclusive with --dict/--index".into(),
                    ));
                }
                if stream {
                    return Err(UsageError(
                        "--stream needs a static dictionary (--dict or --index)".into(),
                    ));
                }
                DictSource::Log(log)
            } else {
                source(dict, index)?
            };
            Ok(Command::Match {
                dict: src,
                text: want(text, "--text")?,
                threads,
                all,
                stream,
                chunk_bytes,
            })
        }
        "serve" => {
            let dict = if dict.is_some() || index.is_some() {
                Some(source(dict, index)?)
            } else {
                None
            };
            if dict.is_none() && dict_log.is_none() {
                return Err(UsageError(
                    "serve requires --dict, --index, or --dict-log".into(),
                ));
            }
            if dict_log.is_some() && matches!(dict, Some(DictSource::Index(_))) {
                return Err(UsageError(
                    "--dict-log seeds from --dict patterns; --index cannot seed a log".into(),
                ));
            }
            Ok(Command::Serve {
                dict,
                dict_log,
                port: port.ok_or_else(|| UsageError("serve requires --port".into()))?,
                workers,
                queue_cap,
                read_timeout_ms,
                max_conns,
                drain_deadline_ms,
                reactors,
            })
        }
        "build" => Ok(Command::Build {
            dict: want(dict, "--dict")?,
            out: want(out, "--out")?,
        }),
        "prefix" => Ok(Command::Prefix {
            dict: want(dict, "--dict")?,
            text: want(text, "--text")?,
            threads,
        }),
        "stats" => {
            if let Some(a) = addr {
                if dict.is_some() || index.is_some() {
                    return Err(UsageError("--addr is exclusive with --dict/--index".into()));
                }
                Ok(Command::Stats {
                    dict: None,
                    addr: Some(a),
                })
            } else {
                Ok(Command::Stats {
                    dict: Some(source(dict, index)?),
                    addr: None,
                })
            }
        }
        "dict" => {
            let target = match (log, addr) {
                (Some(l), None) => DictTarget::Log(l),
                (None, Some(a)) => DictTarget::Addr(a),
                (Some(_), Some(_)) => {
                    return Err(UsageError("--log and --addr are exclusive".into()))
                }
                (None, None) => return Err(UsageError("dict requires --log or --addr".into())),
            };
            let action = dict_action.expect("set for the dict subcommand");
            let op = match action.as_str() {
                "add" => DictOp::Add {
                    pattern: want(pattern, "--pattern")?,
                },
                "remove" => DictOp::Remove {
                    pattern: want(pattern, "--pattern")?,
                },
                "commit" => DictOp::Commit,
                "info" => DictOp::Info,
                "compact" => {
                    if matches!(target, DictTarget::Addr(_)) {
                        return Err(UsageError(
                            "dict compact is local-only: use --log, not --addr".into(),
                        ));
                    }
                    DictOp::Compact
                }
                other => {
                    return Err(UsageError(format!(
                        "unknown dict action: {other} (expected add|remove|commit|info|compact)"
                    )))
                }
            };
            Ok(Command::Dict { op, target })
        }
        "gen" => {
            if let Some(c) = &corpus {
                if c != "genome" && c != "log" {
                    return Err(UsageError(format!(
                        "--corpus must be genome or log, not {c}"
                    )));
                }
                if markov {
                    return Err(UsageError("--markov and --corpus are exclusive".into()));
                }
            }
            if patterns_out.is_some() && corpus.is_none() {
                return Err(UsageError(
                    "--patterns-out requires --corpus genome|log".into(),
                ));
            }
            Ok(Command::Gen {
                out: want(out, "--out")?,
                bytes: bytes.ok_or_else(|| UsageError("gen requires --bytes".into()))?,
                seed,
                markov,
                corpus,
                patterns_out,
                pattern_count,
            })
        }
        "index" => Ok(Command::Index {
            text: want(text, "--text")?,
            out: want(out, "--out")?,
            threads,
        }),
        "snap" => Ok(Command::SnapInspect {
            file: want(file, "--file")?,
        }),
        "fsck" => {
            if log.is_none() && index.is_none() {
                return Err(UsageError("fsck requires --log and/or --index".into()));
            }
            Ok(Command::Fsck { log, index, repair })
        }
        "query" => Ok(Command::Query {
            index: want(index, "--index")?,
            patterns: want(patterns, "--patterns")?,
            threads,
            locate,
            no_merge,
            verify,
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(UsageError(format!("unknown command: {other}"))),
    }
}

fn ctx_for(threads: Option<usize>) -> Ctx {
    match threads {
        Some(t) => Ctx::with_threads(t),
        None => Ctx::par(),
    }
}

/// Typed CLI-boundary error: every failure a subcommand can hit keeps its
/// underlying error (I/O, build, corrupt sidecar, store) instead of being
/// flattened to a `String` at the call site. `run` renders it once, as
/// `error: {e}`, exit code 2.
#[derive(Debug)]
pub enum CliError {
    /// File I/O against a user-supplied path.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// A dictionary file with no usable patterns.
    NoPatterns(String),
    /// Matcher construction failed.
    Build(BuildError),
    /// Dictionary log/store failure.
    Store {
        path: String,
        source: pdm_dict::StoreError,
    },
    /// A `.snap` snapshot sidecar failed to load or validate.
    Snap(pdm_dict::SnapError),
    /// Any sidecar failed the shared codec framing (magic/version/CRC).
    Corrupt(pdm_primitives::codec::CodecError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{path}: {source}"),
            Self::NoPatterns(path) => write!(f, "{path}: no patterns"),
            Self::Build(e) => write!(f, "{e}"),
            Self::Store { path, source } => write!(f, "{path}: {source}"),
            Self::Snap(e) => write!(f, "{e}"),
            Self::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::NoPatterns(_) => None,
            Self::Build(e) => Some(e),
            Self::Store { source, .. } => Some(source),
            Self::Snap(e) => Some(e),
            Self::Corrupt(e) => Some(e),
        }
    }
}

impl From<BuildError> for CliError {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<pdm_dict::SnapError> for CliError {
    fn from(e: pdm_dict::SnapError) -> Self {
        Self::Snap(e)
    }
}

impl From<pdm_primitives::codec::CodecError> for CliError {
    fn from(e: pdm_primitives::codec::CodecError) -> Self {
        Self::Corrupt(e)
    }
}

fn io_err(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |source| CliError::Io {
        path: path.to_string(),
        source,
    }
}

fn store_err(path: &str) -> impl Fn(pdm_dict::StoreError) -> CliError + '_ {
    move |source| CliError::Store {
        path: path.to_string(),
        source,
    }
}

/// Load a dictionary file: one pattern per line, empty lines skipped.
pub fn load_dictionary(path: &str) -> Result<Vec<Vec<Sym>>, CliError> {
    let data = std::fs::read_to_string(path).map_err(io_err(path))?;
    let pats: Vec<Vec<Sym>> = data
        .lines()
        .filter(|l| !l.is_empty())
        .map(to_symbols)
        .collect();
    if pats.is_empty() {
        return Err(CliError::NoPatterns(path.to_string()));
    }
    Ok(pats)
}

/// Load a text file as raw bytes.
pub fn load_text(path: &str) -> Result<Vec<Sym>, CliError> {
    let data = std::fs::read(path).map_err(io_err(path))?;
    Ok(data.into_iter().map(Sym::from).collect())
}

/// A matcher plus its pattern texts, for display.
type ResolvedMatcher = (Arc<StaticMatcher>, Vec<Vec<Sym>>);

fn resolve_matcher(dict: &DictSource, ctx: &Ctx) -> Result<ResolvedMatcher, CliError> {
    match dict {
        DictSource::Patterns(path) => {
            let pats = load_dictionary(path)?;
            let m = StaticMatcher::build(ctx, &pats)?;
            Ok((Arc::new(m), pats))
        }
        DictSource::Index(path) => {
            let data = std::fs::read(path).map_err(io_err(path))?;
            match pdm_dict::Snapshot::from_bytes(ctx, &data)?.into_parts() {
                (Some(m), Some(pats)) => Ok((m, pats)),
                _ => Err(CliError::NoPatterns(path.clone())),
            }
        }
        DictSource::Log(path) => Err(CliError::Store {
            path: path.clone(),
            source: pdm_dict::StoreError::Replay(
                "--dict-log is only valid for match and serve".into(),
            ),
        }),
    }
}

/// Execute a command, writing human output to `w`. Returns the exit code.
pub fn run(cmd: Command, w: &mut impl Write) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            write!(w, "{USAGE}")?;
            Ok(0)
        }
        Command::Stats {
            dict: None,
            addr: Some(addr),
        } => run_stats_addr(&addr, w),
        Command::Stats { dict, addr: _ } => {
            let dict = dict.expect("parse guarantees a source without --addr");
            let ctx = Ctx::par();
            let t0 = std::time::Instant::now();
            let (m, _) = match resolve_matcher(&dict, &ctx) {
                Ok(mp) => mp,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let s = m.stats();
            writeln!(w, "patterns:        {}", s.n_patterns)?;
            writeln!(w, "dictionary size: {} symbols (M)", s.dictionary_size)?;
            writeln!(w, "longest pattern: {} (m)", s.max_pattern_len)?;
            writeln!(w, "levels:          {} (⌈log₂ m⌉)", s.levels)?;
            writeln!(w, "names allocated: {}", s.names_allocated)?;
            writeln!(
                w,
                "table entries:   {} (sym {}, pair {}, fold {}, ext {})",
                s.table_entry_count(),
                s.sym_entries,
                s.pair_entries,
                s.fold_entries,
                s.ext_entries
            )?;
            writeln!(
                w,
                "match telemetry: {} calls, {} alloc events, {} table lookups",
                s.match_calls, s.alloc_events, s.table_lookups
            )?;
            writeln!(w, "prefilter:       {}", s.prefilter.describe())?;
            let pc = s.prefilter_counters;
            writeln!(
                w,
                "prefilter work:  {} scans, {} candidates, {} windows, {} syms verified, {} dense skips",
                pc.scans, pc.candidates, pc.windows, pc.verified_syms, pc.bailouts
            )?;
            let c = ctx.cost.snapshot();
            let verb = match dict {
                DictSource::Patterns(_) => "build",
                DictSource::Index(_) | DictSource::Log(_) => "load",
            };
            writeln!(
                w,
                "{verb}: {:.1} ms wall, {} PRAM rounds, {} ops",
                t0.elapsed().as_secs_f64() * 1e3,
                c.rounds,
                c.work
            )?;
            Ok(0)
        }
        Command::Build { dict, out } => {
            let pats = match load_dictionary(&dict) {
                Ok(p) => p,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let ctx = Ctx::par();
            let symbols: usize = pats.iter().map(Vec::len).sum();
            let snap = match pdm_dict::Snapshot::build_static(&ctx, 0, pats) {
                Ok(s) => s,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let bytes = snap
                .to_sidecar_bytes()
                .expect("a built snapshot knows its pattern texts");
            // Atomic + durable: a crash mid-write must not tear a
            // previously good index at the same path.
            match pdm_primitives::vfs::atomic_write(std::path::Path::new(&out), &bytes) {
                Ok(()) => {
                    writeln!(
                        w,
                        "indexed {} patterns ({symbols} symbols) into {out}: {} bytes",
                        snap.pattern_count(),
                        bytes.len()
                    )?;
                    Ok(0)
                }
                Err(e) => {
                    writeln!(w, "error: {out}: {e}")?;
                    Ok(2)
                }
            }
        }
        Command::Match {
            dict,
            text,
            threads,
            all,
            stream,
            chunk_bytes,
        } => {
            let txt = match load_text(&text) {
                Ok(t) => t,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let ctx = ctx_for(threads);
            if let DictSource::Log(log) = &dict {
                return run_match_log(log, &txt, &ctx, w);
            }
            let (m, pats) = match resolve_matcher(&dict, &ctx) {
                Ok(mp) => mp,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let show = |w: &mut dyn Write, i: usize, p: PatId| -> std::io::Result<()> {
                writeln!(w, "{i}\t{p}\t{}", printable(&pats[p as usize]))
            };
            let mut count = 0usize;
            if stream {
                // Same chunk-at-a-time path a `serve` session runs;
                // reports all occurrences with absolute offsets.
                let mut sm = pdm_stream::StreamMatcher::new(m);
                for c in txt.chunks(chunk_bytes) {
                    for occ in sm.push(&ctx, c) {
                        show(w, occ.start as usize, occ.pat)?;
                        count += 1;
                    }
                }
                writeln!(
                    w,
                    "# {count} occurrences in {} bytes ({} chunks of ≤{} bytes)",
                    txt.len(),
                    txt.len().div_ceil(chunk_bytes).max(1),
                    chunk_bytes
                )?;
                return Ok(0);
            }
            if all {
                for (i, p) in m.find_all(&ctx, &txt) {
                    show(w, i, p)?;
                    count += 1;
                }
            } else {
                let out = m.match_text(&ctx, &txt);
                for (i, p) in out.occurrences() {
                    show(w, i, p)?;
                    count += 1;
                }
            }
            writeln!(w, "# {count} occurrences in {} bytes", txt.len())?;
            Ok(0)
        }
        Command::Prefix {
            dict,
            text,
            threads,
        } => {
            let (pats, txt) = match (load_dictionary(&dict), load_text(&text)) {
                (Ok(p), Ok(t)) => (p, t),
                (Err(e), _) | (_, Err(e)) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let ctx = ctx_for(threads);
            let m = match StaticMatcher::build(&ctx, &pats) {
                Ok(m) => m,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let pm = m.prefix_match(&ctx, &txt);
            // Histogram of longest-prefix lengths: the useful summary.
            let maxl = pm.len.iter().copied().max().unwrap_or(0) as usize;
            let mut hist = vec![0usize; maxl + 1];
            for &l in &pm.len {
                hist[l as usize] += 1;
            }
            writeln!(
                w,
                "longest-prefix-length histogram ({} positions):",
                txt.len()
            )?;
            for (l, &c) in hist.iter().enumerate() {
                if c > 0 {
                    writeln!(w, "{l}\t{c}")?;
                }
            }
            Ok(0)
        }
        Command::Gen {
            out,
            bytes,
            seed,
            markov,
            corpus,
            patterns_out,
            pattern_count,
        } => {
            use pdm_textgen::{corpus as cg, markov as mk, strings, Alphabet};
            let mut r = strings::rng(seed);
            let syms: Vec<u8> = match corpus.as_deref() {
                // Genome symbols 0..4 are written as ACGT so the corpus
                // file is readable and the byte values are the symbols.
                Some("genome") => cg::genome_default(&mut r, bytes)
                    .into_iter()
                    .map(|c| b"ACGT"[c as usize])
                    .collect(),
                Some(_) => cg::log_lines(&mut r, bytes, 8)
                    .into_iter()
                    .map(|c| c as u8)
                    .collect(),
                None if markov => mk::english_like(&mut r, bytes)
                    .into_iter()
                    .map(|c| c as u8 + b'a')
                    .collect(),
                None => strings::random_text(&mut r, Alphabet::Bytes, bytes)
                    .into_iter()
                    .map(|c| c as u8)
                    .collect(),
            };
            if let Err(e) = std::fs::write(&out, &syms) {
                writeln!(w, "error: {out}: {e}")?;
                return Ok(2);
            }
            writeln!(w, "wrote {} bytes to {out}", syms.len())?;
            if let Some(ppath) = patterns_out {
                // Sample a prefix-sharing query batch from the corpus we
                // just wrote. Pattern files are line-based, so patterns
                // containing a newline byte are dropped and resampled.
                let corpus_syms: Vec<u32> = syms.iter().map(|&b| u32::from(b)).collect();
                let max_len = 24.min(corpus_syms.len());
                let min_len = 4.min(max_len);
                let mut pats: Vec<Vec<u32>> = Vec::with_capacity(pattern_count);
                while pats.len() < pattern_count {
                    let want = pattern_count - pats.len();
                    let batch =
                        cg::query_patterns(&mut r, &corpus_syms, want, min_len, max_len, 4, 50);
                    pats.extend(batch.into_iter().filter(|p| !p.contains(&u32::from(b'\n'))));
                }
                let mut text = String::new();
                for p in &pats {
                    for &c in p {
                        text.push(char::from(c as u8));
                    }
                    text.push('\n');
                }
                if let Err(e) = std::fs::write(&ppath, text.as_bytes()) {
                    writeln!(w, "error: {ppath}: {e}")?;
                    return Ok(2);
                }
                writeln!(w, "wrote {} patterns to {ppath}", pats.len())?;
            }
            Ok(0)
        }
        Command::Index { text, out, threads } => {
            let txt = match load_text(&text) {
                Ok(t) => t,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let ctx = ctx_for(threads);
            let t0 = std::time::Instant::now();
            let idx = pdm_index::CorpusIndex::build(&ctx, txt);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let bytes = idx.to_bytes();
            if let Err(e) = pdm_primitives::vfs::atomic_write(std::path::Path::new(&out), &bytes) {
                writeln!(w, "error: {out}: {e}")?;
                return Ok(2);
            }
            let c = ctx.cost.snapshot();
            writeln!(
                w,
                "indexed {} symbols into {out}: {} bytes, {build_ms:.1} ms build, {} PRAM rounds, {} ops",
                idx.len(),
                bytes.len(),
                c.rounds,
                c.work
            )?;
            Ok(0)
        }
        Command::Query {
            index,
            patterns,
            threads,
            locate,
            no_merge,
            verify,
        } => {
            let idx = match pdm_index::CorpusIndex::read_from(std::path::Path::new(&index)) {
                Ok(i) => i,
                Err(e) => {
                    writeln!(w, "error: {index}: {e}")?;
                    return Ok(2);
                }
            };
            let pats = match load_dictionary(&patterns) {
                Ok(p) => p,
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    return Ok(2);
                }
            };
            let ctx = ctx_for(threads);
            let opts = pdm_index::BatchOptions {
                merge: !no_merge,
                mode: if locate {
                    pdm_index::QueryMode::Locate
                } else {
                    pdm_index::QueryMode::Count
                },
            };
            let t0 = std::time::Instant::now();
            let hits = idx.query_batch(&ctx, &pats, &opts);
            let query_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut total = 0usize;
            for (i, h) in hits.iter().enumerate() {
                total += h.count;
                if locate {
                    for &pos in &h.positions {
                        writeln!(w, "{pos}\t{i}\t{}", printable(&pats[i]))?;
                    }
                } else {
                    writeln!(w, "{i}\t{}\t{}", h.count, printable(&pats[i]))?;
                }
            }
            writeln!(
                w,
                "# {total} occurrences for {} patterns in {} symbols, {query_ms:.2} ms",
                pats.len(),
                idx.len()
            )?;
            if verify {
                // Cross-check every count against the streaming baseline:
                // an Aho–Corasick pass over the full corpus.
                let mut uniq: Vec<Vec<u32>> = pats.clone();
                uniq.sort_unstable();
                uniq.dedup();
                let ac = pdm_baselines::AhoCorasick::new(&uniq);
                let maxlen = uniq.iter().map(Vec::len).max().unwrap_or(1);
                let occs =
                    pdm_baselines::chunked_ac::find_all_chunked(&ac, &idx.text, maxlen, 1 << 16);
                let mut ac_counts = vec![0usize; uniq.len()];
                for o in &occs {
                    ac_counts[o.pat] += 1;
                }
                let mut bad = 0usize;
                for (i, p) in pats.iter().enumerate() {
                    let u = uniq.binary_search(p).expect("uniq contains every pattern");
                    if hits[i].count != ac_counts[u] {
                        bad += 1;
                        writeln!(
                            w,
                            "verify MISMATCH pattern {i} ({}): index {} vs AC {}",
                            printable(p),
                            hits[i].count,
                            ac_counts[u]
                        )?;
                    }
                }
                if bad > 0 {
                    writeln!(w, "verify: {bad}/{} patterns disagree", pats.len())?;
                    return Ok(1);
                }
                writeln!(
                    w,
                    "verify: OK ({} patterns agree with Aho–Corasick)",
                    pats.len()
                )?;
            }
            Ok(0)
        }
        Command::Serve {
            dict,
            dict_log,
            port,
            workers,
            queue_cap,
            read_timeout_ms,
            max_conns,
            drain_deadline_ms,
            reactors,
        } => {
            let ctx = Ctx::par();
            let mut service = pdm_stream::ServiceConfig::default();
            if let Some(n) = workers {
                service.workers = n.max(1);
            }
            service.queue_cap = queue_cap;
            let cfg = pdm_stream::ServerConfig {
                service,
                read_timeout: (read_timeout_ms > 0)
                    .then(|| std::time::Duration::from_millis(read_timeout_ms)),
                max_conns,
                drain_deadline: std::time::Duration::from_millis(drain_deadline_ms),
                reactors,
                ..Default::default()
            };
            let (server, banner) = if let Some(log) = dict_log {
                let store = match open_seeded_store(&log, dict.as_ref(), &ctx, w)? {
                    Ok(s) => s,
                    Err(e) => {
                        writeln!(w, "error: {e}")?;
                        return Ok(2);
                    }
                };
                let banner = format!(
                    "serving {} patterns (epoch {}, live updates via {log}) on",
                    store.pattern_count(),
                    store.epoch()
                );
                match pdm_stream::Server::bind_versioned(("0.0.0.0", port), store, cfg) {
                    Ok(s) => {
                        // Boot happened inside bind: say whether the first
                        // epoch came from the `.snap` sidecar or a rebuild.
                        if let Some(admin) = s.dict_admin() {
                            match admin.boot_fallback() {
                                None => writeln!(
                                    w,
                                    "dictionary boot: cold-loaded from snapshot (no rebuild)"
                                )?,
                                Some(reason) => writeln!(w, "dictionary boot: rebuilt ({reason})")?,
                            }
                        }
                        (s, banner)
                    }
                    Err(e) => {
                        writeln!(w, "error: bind port {port}: {e}")?;
                        return Ok(2);
                    }
                }
            } else {
                let src = dict.expect("parse guarantees a source without --dict-log");
                let (m, _) = match resolve_matcher(&src, &ctx) {
                    Ok(mp) => mp,
                    Err(e) => {
                        writeln!(w, "error: {e}")?;
                        return Ok(2);
                    }
                };
                let banner = format!("serving {} patterns on", m.pattern_count());
                match pdm_stream::Server::bind(("0.0.0.0", port), m, cfg) {
                    Ok(s) => (s, banner),
                    Err(e) => {
                        writeln!(w, "error: bind port {port}: {e}")?;
                        return Ok(2);
                    }
                }
            };
            writeln!(
                w,
                "{banner} {} (protocol: pdm_stream::proto; ^C to stop)",
                server.local_addr()
            )?;
            w.flush()?;
            server.join();
            Ok(0)
        }
        Command::Dict { op, target } => run_dict(op, target, w),
        Command::SnapInspect { file } => run_snap_inspect(&file, w),
        Command::Fsck { log, index, repair } => run_fsck(log, index, repair, w),
    }
}

/// `pdm fsck`: deep validation and repair (see USAGE for semantics).
fn run_fsck(
    log: Option<String>,
    index: Option<String>,
    repair: bool,
    w: &mut impl Write,
) -> std::io::Result<i32> {
    let mut exit = 0i32;
    if let Some(path) = log {
        let report = match pdm_dict::fsck_store(std::path::Path::new(&path), repair) {
            Ok(r) => r,
            Err(e) => {
                writeln!(w, "error: {path}: {e}")?;
                return Ok(2);
            }
        };
        for f in &report.findings {
            writeln!(w, "{f}")?;
        }
        writeln!(
            w,
            "{path}: {}, boot path: {}",
            if report.bootable {
                "bootable"
            } else {
                "NOT bootable"
            },
            report.boot_path
        )?;
        if report.unrepaired() > 0 || !report.bootable {
            exit = 1;
        }
    }
    if let Some(path) = index {
        match run_fsck_index(&path, repair, w)? {
            0 => {}
            code => exit = exit.max(code),
        }
    }
    Ok(exit)
}

/// The `--index` half of fsck: verify a `PDMX` sidecar end to end (full
/// decode, whole-file CRC), quarantine it on `--repair` if it fails, and
/// sweep a stray `.tmp` from an interrupted atomic write.
fn run_fsck_index(path: &str, repair: bool, w: &mut impl Write) -> std::io::Result<i32> {
    use pdm_primitives::vfs;
    let p = std::path::Path::new(path);
    let mut exit = 0i32;
    match vfs::read(p) {
        Err(e) => {
            writeln!(w, "error: {path}: {e}")?;
            return Ok(2);
        }
        Ok(bytes) => match pdm_index::CorpusIndex::from_bytes(&bytes) {
            Ok(idx) => {
                writeln!(
                    w,
                    "{path}: ok ({} symbols, {} bytes, crc OK)",
                    idx.len(),
                    bytes.len()
                )?;
            }
            Err(e) => {
                if repair {
                    let mut os = p.as_os_str().to_owned();
                    os.push(".corrupt");
                    let dest = std::path::PathBuf::from(os);
                    vfs::rename(p, &dest)?;
                    vfs::sync_parent_dir(p)?;
                    writeln!(
                        w,
                        "error: {path}: sidecar unreadable ({e}) [repaired: quarantined to {}]",
                        dest.display()
                    )?;
                } else {
                    writeln!(
                        w,
                        "error: {path}: sidecar unreadable ({e}) [repairable: quarantine to *.corrupt]"
                    )?;
                    exit = 1;
                }
            }
        },
    }
    let tmp = vfs::tmp_path(p);
    if tmp.exists() {
        if repair {
            vfs::remove_file(&tmp)?;
            writeln!(
                w,
                "warn: {}: stray temp file [repaired: removed]",
                tmp.display()
            )?;
        } else {
            writeln!(
                w,
                "warn: {}: stray temp file from an interrupted atomic write [repairable: remove]",
                tmp.display()
            )?;
            exit = 1;
        }
    }
    Ok(exit)
}

/// `pdm match --dict-log`: serve the committed epoch of a versioned log,
/// cold-loading its `.snap` sidecar when fresh (one `#` line reports which
/// path ran). Reports *all* occurrences per position, like `--all`.
fn run_match_log(log: &str, txt: &[Sym], ctx: &Ctx, w: &mut impl Write) -> std::io::Result<i32> {
    let boot = match pdm_dict::DictStore::open(std::path::Path::new(log))
        .and_then(|store| store.boot_snapshot(ctx))
        .map_err(store_err(log))
    {
        Ok(b) => b,
        Err(e) => {
            writeln!(w, "error: {e}")?;
            return Ok(2);
        }
    };
    match &boot.fallback {
        None => writeln!(
            w,
            "# dictionary epoch {}: cold-loaded from {}",
            boot.snapshot.epoch(),
            pdm_dict::store::snap_path(std::path::Path::new(log)).display()
        )?,
        Some(reason) => writeln!(
            w,
            "# dictionary epoch {}: rebuilt ({reason})",
            boot.snapshot.epoch()
        )?,
    }
    let pats = boot
        .snapshot
        .patterns()
        .expect("a store snapshot knows its pattern texts");
    let mut count = 0usize;
    for (i, p) in boot.snapshot.find_all(ctx, txt) {
        writeln!(w, "{i}\t{p}\t{}", printable(&pats[p as usize]))?;
        count += 1;
    }
    writeln!(w, "# {count} occurrences in {} bytes", txt.len())?;
    Ok(0)
}

/// A pattern as `match` prints it: bytes as characters, anything but ASCII
/// graphics and space as `.`.
fn printable(pat: &[Sym]) -> String {
    pat.iter()
        .map(|&c| char::from(c as u8))
        .map(|c| {
            if c.is_ascii_graphic() || c == ' ' {
                c
            } else {
                '.'
            }
        })
        .collect()
}

/// `pdm snap inspect`: report magic, version, CRC status, and sections of
/// any sidecar file, without building a matcher or replaying a log.
fn run_snap_inspect(file: &str, w: &mut impl Write) -> std::io::Result<i32> {
    use pdm_primitives::codec;
    let bytes = match std::fs::read(file).map_err(io_err(file)) {
        Ok(b) => b,
        Err(e) => {
            writeln!(w, "error: {e}")?;
            return Ok(2);
        }
    };
    writeln!(w, "file: {file} ({} bytes)", bytes.len())?;
    if bytes.len() < codec::HEADER_LEN {
        writeln!(w, "error: too short for any sidecar header")?;
        return Ok(2);
    }
    match &bytes[..4] {
        b"PDMS" => match pdm_dict::inspect(&bytes) {
            Ok(info) => {
                writeln!(w, "format: PDMS v{} — built-matcher snapshot", info.version)?;
                writeln!(w, "epoch: {}", info.epoch)?;
                writeln!(w, "patterns: {}", info.patterns)?;
                for &(id, len) in &info.sections {
                    let name = match id {
                        pdm_dict::snapshot::SEC_META => "META",
                        pdm_dict::snapshot::SEC_PATTERNS => "PATTERNS",
                        pdm_dict::snapshot::SEC_TABLES => "TABLES",
                        pdm_dict::snapshot::SEC_CHAINS => "CHAINS",
                        pdm_dict::snapshot::SEC_PREFILTER => "PREFILTER",
                        _ => "?",
                    };
                    writeln!(w, "section {name} (id {id}): {len} bytes")?;
                }
                writeln!(w, "crc: OK")?;
                Ok(0)
            }
            Err(e) => {
                writeln!(w, "error: {e}")?;
                Ok(2)
            }
        },
        b"PDMX" => {
            let version = codec::read_header(&bytes, *b"PDMX").expect("magic just checked");
            writeln!(w, "format: PDMX v{version} — corpus index")?;
            match codec::verify_crc(&bytes) {
                Ok(_) => {
                    writeln!(w, "crc: OK")?;
                    Ok(0)
                }
                Err(e) => {
                    writeln!(w, "crc: FAILED ({e})")?;
                    Ok(2)
                }
            }
        }
        b"PDML" => {
            let version =
                codec::read_header(&bytes, pdm_dict::log::LOG_MAGIC).expect("magic just checked");
            writeln!(w, "format: PDML v{version} — dictionary log")?;
            // Per-record CRCs: walk the framing the same way replay does.
            let mut at = codec::HEADER_LEN;
            let mut records = 0usize;
            let mut tail = "clean";
            while at < bytes.len() {
                match codec::read_record(&bytes[at..], 64 << 20) {
                    codec::RecordRead::Ok(rec) => {
                        at += rec.consumed;
                        records += 1;
                    }
                    codec::RecordRead::Torn => {
                        tail = "torn (incomplete final record)";
                        break;
                    }
                    codec::RecordRead::Bad(_) => {
                        tail = "corrupt (record checksum failed)";
                        break;
                    }
                }
            }
            writeln!(w, "records: {records}")?;
            writeln!(w, "tail: {tail}")?;
            Ok(if tail == "clean" { 0 } else { 2 })
        }
        other => {
            writeln!(
                w,
                "error: unknown magic {:?} (expected PDMS, PDMX, or PDML)",
                String::from_utf8_lossy(other)
            )?;
            Ok(2)
        }
    }
}

/// Open (or create) a dictionary log; with an empty log and a `--dict`
/// pattern file, seed it with those patterns as epoch 1.
///
/// The outer `io::Result` is writer failures; the inner is the typed
/// CLI-boundary error rendered by the caller.
fn open_seeded_store(
    log: &str,
    seed: Option<&DictSource>,
    ctx: &Ctx,
    w: &mut impl Write,
) -> std::io::Result<Result<pdm_dict::DictStore, CliError>> {
    use pdm_dict::DictStore;
    let mut store = match DictStore::open(std::path::Path::new(log)).map_err(store_err(log)) {
        Ok(s) => s,
        Err(e) => return Ok(Err(e)),
    };
    if let Some(DictSource::Patterns(path)) = seed {
        if store.pattern_count() == 0 && store.staged_len() == 0 {
            let pats = match load_dictionary(path) {
                Ok(p) => p,
                Err(e) => return Ok(Err(e)),
            };
            for p in &pats {
                if let Err(e) = store.stage_add(p).map_err(store_err(path)) {
                    return Ok(Err(e));
                }
            }
            if let Err(e) = store.commit(ctx).map_err(store_err(path)) {
                return Ok(Err(e));
            }
            writeln!(w, "seeded {log} with {} patterns from {path}", pats.len())?;
        } else {
            writeln!(w, "{log} already has patterns; ignoring --dict seed {path}")?;
        }
    }
    Ok(Ok(store))
}

/// One admin exchange with a running `pdm serve`: connect, send one
/// `tag` frame, and return the first reply whose tag is in `replies`,
/// skipping the session frames (hello-ack, acks) the server interleaves.
fn admin_round_trip(
    addr: &str,
    tag: u8,
    payload: &[u8],
    replies: &[u8],
) -> std::io::Result<(u8, Vec<u8>)> {
    use pdm_stream::proto::{read_frame, write_frame};
    let mut sock = std::net::TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    write_frame(&mut sock, tag, payload)?;
    loop {
        match read_frame(&mut sock)? {
            Some((t, p)) if replies.contains(&t) => return Ok((t, p)),
            Some(_) => continue,
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed before replying",
                ))
            }
        }
    }
}

/// `pdm stats --addr`: fetch a running server's global counters over a
/// `TAG_STATS` frame and print them, one per line, with the reactor-tier
/// efficiency ratio (ready events per `epoll_wait` wakeup) derived.
fn run_stats_addr(addr: &str, w: &mut impl Write) -> std::io::Result<i32> {
    use pdm_stream::proto::{decode_stats, TAG_STATS, TAG_STATS_RESP};
    let reply = admin_round_trip(addr, TAG_STATS, &[], &[TAG_STATS_RESP]).and_then(|(_, p)| {
        decode_stats(&p).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed stats reply")
        })
    });
    match reply {
        Ok(snap) => {
            for (name, value) in snap.named_fields() {
                writeln!(w, "{name:<24} {value}")?;
            }
            if snap.reactor_wakeups > 0 {
                writeln!(
                    w,
                    "{:<24} {:.2}",
                    "ready_events_per_wakeup",
                    snap.reactor_events as f64 / snap.reactor_wakeups as f64
                )?;
            }
            Ok(0)
        }
        Err(e) => {
            writeln!(w, "error: {addr}: {e}")?;
            Ok(2)
        }
    }
}

/// Execute a `pdm dict` operation against a local log or a live server.
fn run_dict(op: DictOp, target: DictTarget, w: &mut impl Write) -> std::io::Result<i32> {
    use pdm_core::dynamic::FreezeRoute;
    use pdm_dict::DictStore;
    use pdm_stream::proto::{
        decode_dict_info, TAG_DICT_ADD, TAG_DICT_COMMIT, TAG_DICT_ERR, TAG_DICT_INFO,
        TAG_DICT_INFO_RESP, TAG_DICT_OK, TAG_DICT_REMOVE,
    };
    match target {
        DictTarget::Log(path) => {
            let mut store = match DictStore::open(std::path::Path::new(&path)) {
                Ok(s) => s,
                Err(e) => {
                    writeln!(w, "error: {path}: {e}")?;
                    return Ok(2);
                }
            };
            let result = match &op {
                DictOp::Add { pattern } => store
                    .stage_add(&to_symbols(pattern))
                    .map(|()| format!("staged add \"{pattern}\"")),
                DictOp::Remove { pattern } => store
                    .stage_remove(&to_symbols(pattern))
                    .map(|()| format!("staged remove \"{pattern}\"")),
                DictOp::Commit => store.commit(&Ctx::seq()).map(|out| {
                    format!(
                        "committed epoch {} ({} patterns, tables {})",
                        out.epoch,
                        out.snapshot.pattern_count(),
                        match out.tables {
                            Some(FreezeRoute::InPlace) => "in place",
                            Some(FreezeRoute::Copied) => "copied",
                            Some(FreezeRoute::Refrozen) => "refrozen",
                            None => "empty",
                        }
                    )
                }),
                DictOp::Info => Ok(format!(
                    "epoch {}: {} patterns ({} symbols), {} staged ops",
                    store.epoch(),
                    store.pattern_count(),
                    store.symbol_count(),
                    store.staged_len()
                )),
                DictOp::Compact => store.compact(&Ctx::par()).map(|r| {
                    format!(
                        "compacted {path}: {} live patterns, {} staged ops{}",
                        r.live,
                        r.staged,
                        r.snapshot_file
                            .map(|p| format!(", snapshot {}", p.display()))
                            .unwrap_or_default()
                    )
                }),
            };
            match result {
                Ok(msg) => {
                    writeln!(w, "{msg}")?;
                    Ok(0)
                }
                Err(e) => {
                    writeln!(w, "error: {e}")?;
                    Ok(2)
                }
            }
        }
        DictTarget::Addr(addr) => {
            let (tag, payload) = match &op {
                DictOp::Add { pattern } => (TAG_DICT_ADD, pattern.clone().into_bytes()),
                DictOp::Remove { pattern } => (TAG_DICT_REMOVE, pattern.clone().into_bytes()),
                DictOp::Commit => (TAG_DICT_COMMIT, Vec::new()),
                DictOp::Info => (TAG_DICT_INFO, Vec::new()),
                DictOp::Compact => unreachable!("parse rejects compact --addr"),
            };
            let replies = [TAG_DICT_OK, TAG_DICT_ERR, TAG_DICT_INFO_RESP];
            match admin_round_trip(&addr, tag, &payload, &replies) {
                Ok((TAG_DICT_OK, p)) => {
                    let epoch = u64::from_le_bytes(p.try_into().unwrap_or_default());
                    writeln!(w, "ok (epoch {epoch})")?;
                    Ok(0)
                }
                Ok((TAG_DICT_INFO_RESP, p)) => match decode_dict_info(&p) {
                    Some(i) => {
                        writeln!(
                            w,
                            "epoch {}: {} patterns, {} staged ops, longest pattern {}",
                            i.epoch, i.patterns, i.staged, i.max_pattern_len
                        )?;
                        Ok(0)
                    }
                    None => {
                        writeln!(w, "error: malformed dict-info reply")?;
                        Ok(2)
                    }
                },
                Ok((_, p)) => {
                    writeln!(w, "error: {}", String::from_utf8_lossy(&p))?;
                    Ok(2)
                }
                Err(e) => {
                    writeln!(w, "error: {addr}: {e}")?;
                    Ok(2)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_match() {
        let c = parse(&args(&["match", "--dict", "d", "--text", "t", "--all"])).unwrap();
        assert_eq!(
            c,
            Command::Match {
                dict: DictSource::Patterns("d".into()),
                text: "t".into(),
                threads: None,
                all: true,
                stream: false,
                chunk_bytes: 64 * 1024,
            }
        );
    }

    #[test]
    fn parses_gen_with_defaults() {
        let c = parse(&args(&["gen", "--out", "f", "--bytes", "100"])).unwrap();
        assert_eq!(
            c,
            Command::Gen {
                out: "f".into(),
                bytes: 100,
                seed: 0,
                markov: false,
                corpus: None,
                patterns_out: None,
                pattern_count: 1000,
            }
        );
    }

    #[test]
    fn parses_gen_corpus_and_pattern_flags() {
        let c = parse(&args(&[
            "gen",
            "--out",
            "c.bin",
            "--bytes",
            "4096",
            "--corpus",
            "genome",
            "--patterns-out",
            "p.txt",
            "--pattern-count",
            "50",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Gen {
                out: "c.bin".into(),
                bytes: 4096,
                seed: 0,
                markov: false,
                corpus: Some("genome".into()),
                patterns_out: Some("p.txt".into()),
                pattern_count: 50,
            }
        );
        assert!(parse(&args(&[
            "gen", "--out", "c", "--bytes", "1", "--corpus", "bogus"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "gen", "--out", "c", "--bytes", "1", "--corpus", "log", "--markov"
        ]))
        .is_err());
        assert!(
            parse(&args(&[
                "gen",
                "--out",
                "c",
                "--bytes",
                "1",
                "--patterns-out",
                "p"
            ]))
            .is_err(),
            "--patterns-out needs --corpus"
        );
    }

    #[test]
    fn parses_index_and_query() {
        let c = parse(&args(&["index", "--text", "c.bin", "--out", "c.pdmx"])).unwrap();
        assert_eq!(
            c,
            Command::Index {
                text: "c.bin".into(),
                out: "c.pdmx".into(),
                threads: None,
            }
        );
        let c = parse(&args(&[
            "query",
            "--index",
            "c.pdmx",
            "--patterns",
            "p.txt",
            "--threads",
            "2",
            "--locate",
            "--no-merge",
            "--verify",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Query {
                index: "c.pdmx".into(),
                patterns: "p.txt".into(),
                threads: Some(2),
                locate: true,
                no_merge: true,
                verify: true,
            }
        );
        assert!(parse(&args(&["index", "--text", "c"])).is_err());
        assert!(parse(&args(&["query", "--index", "i"])).is_err());
        assert!(parse(&args(&["query", "--patterns", "p"])).is_err());
    }

    #[test]
    fn end_to_end_gen_index_query_verify() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-pdmx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cpath: String = dir.join("corpus.bin").to_string_lossy().into();
        let ppath: String = dir.join("patterns.txt").to_string_lossy().into();
        let ipath: String = dir.join("corpus.pdmx").to_string_lossy().into();
        let mut out = Vec::new();
        assert_eq!(
            run(
                Command::Gen {
                    out: cpath.clone(),
                    bytes: 20_000,
                    seed: 42,
                    markov: false,
                    corpus: Some("log".into()),
                    patterns_out: Some(ppath.clone()),
                    pattern_count: 60,
                },
                &mut out,
            )
            .unwrap(),
            0
        );
        let mut out = Vec::new();
        assert_eq!(
            run(
                Command::Index {
                    text: cpath.clone(),
                    out: ipath.clone(),
                    threads: Some(2),
                },
                &mut out,
            )
            .unwrap(),
            0
        );
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("indexed 20000 symbols"), "{s}");

        // Counts must survive the disk round trip and agree with AC.
        let mut out = Vec::new();
        let code = run(
            Command::Query {
                index: ipath.clone(),
                patterns: ppath.clone(),
                threads: Some(2),
                locate: false,
                no_merge: false,
                verify: true,
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("verify: OK"), "{s}");

        // Locate output lines are <offset>\t<pattern-index>\t<text>.
        let mut out = Vec::new();
        assert_eq!(
            run(
                Command::Query {
                    index: ipath.clone(),
                    patterns: ppath,
                    threads: Some(1),
                    locate: true,
                    no_merge: true,
                    verify: false,
                },
                &mut out,
            )
            .unwrap(),
            0
        );
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.lines().any(|l| {
                let mut f = l.split('\t');
                matches!(
                    (f.next(), f.next(), f.next()),
                    (Some(a), Some(b), Some(_))
                        if a.parse::<usize>().is_ok() && b.parse::<usize>().is_ok()
                )
            }),
            "{s}"
        );

        // A corrupted sidecar must be rejected, not silently mis-answered.
        let mut bytes = std::fs::read(&ipath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ipath, &bytes).unwrap();
        let mut out = Vec::new();
        let code = run(
            Command::Query {
                index: ipath,
                patterns: dir.join("patterns.txt").to_string_lossy().into(),
                threads: Some(1),
                locate: false,
                no_merge: false,
                verify: false,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 2);
        assert!(String::from_utf8(out).unwrap().contains("checksum"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_fsck() {
        let c = parse(&args(&["fsck", "--log", "d.pdml", "--repair"])).unwrap();
        assert_eq!(
            c,
            Command::Fsck {
                log: Some("d.pdml".into()),
                index: None,
                repair: true,
            }
        );
        let c = parse(&args(&["fsck", "--index", "c.pdmx"])).unwrap();
        assert_eq!(
            c,
            Command::Fsck {
                log: None,
                index: Some("c.pdmx".into()),
                repair: false,
            }
        );
        assert!(parse(&args(&["fsck"])).is_err(), "needs a target");
    }

    #[test]
    fn end_to_end_fsck_detects_and_repairs() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lpath = dir.join("dict.pdml");
        let log_s: String = lpath.to_string_lossy().into();

        // Seed a committed, compacted store through the dict subcommands.
        for op in [
            DictOp::Add {
                pattern: "he".into(),
            },
            DictOp::Add {
                pattern: "she".into(),
            },
            DictOp::Commit,
            DictOp::Compact,
        ] {
            let mut out = Vec::new();
            assert_eq!(
                run_dict(op, DictTarget::Log(log_s.clone()), &mut out).unwrap(),
                0
            );
        }

        // Healthy: exit 0, cold-load boot path reported.
        let mut out = Vec::new();
        let code = run_fsck(Some(log_s.clone()), None, false, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("bootable"), "{s}");
        assert!(s.contains("cold-load"), "{s}");

        // Tear the tail: fsck flags it (exit 1), --repair truncates it.
        let mut bytes = std::fs::read(&lpath).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&lpath, &bytes).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            run_fsck(Some(log_s.clone()), None, false, &mut out).unwrap(),
            1
        );
        let mut out = Vec::new();
        assert_eq!(
            run_fsck(Some(log_s.clone()), None, true, &mut out).unwrap(),
            0
        );
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("repaired"), "{s}");
        // And the repaired store still serves matches.
        let mut out = Vec::new();
        assert_eq!(
            run_dict(DictOp::Info, DictTarget::Log(log_s.clone()), &mut out).unwrap(),
            0
        );
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("2 patterns"), "{s}");

        // PDMX half: a bit-flipped sidecar is exit 1, repair quarantines.
        let ipath = dir.join("c.pdmx");
        let idx = pdm_index::CorpusIndex::build_from_bytes(&Ctx::seq(), b"abracadabra");
        idx.write_to(&ipath).unwrap();
        let ipath_s: String = ipath.to_string_lossy().into();
        let mut out = Vec::new();
        assert_eq!(
            run_fsck(None, Some(ipath_s.clone()), false, &mut out).unwrap(),
            0
        );
        let mut bytes = std::fs::read(&ipath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ipath, &bytes).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            run_fsck(None, Some(ipath_s.clone()), false, &mut out).unwrap(),
            1
        );
        let mut out = Vec::new();
        assert_eq!(run_fsck(None, Some(ipath_s), true, &mut out).unwrap(), 0);
        assert!(!ipath.exists(), "quarantined away");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// CRC-valid sidecars whose suffix array is not the corpus's: `query`
    /// refuses them (exit 2) and `fsck` flags (exit 1) and quarantines them,
    /// with no panic.
    #[test]
    fn query_and_fsck_refuse_malformed_suffix_arrays() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-badsa-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ppath = dir.join("patterns.txt");
        std::fs::write(&ppath, "abr\nra\n").unwrap();
        let ppath: String = ppath.to_string_lossy().into();
        let good = pdm_index::CorpusIndex::build_from_bytes(&Ctx::seq(), b"abracadabra");
        let mut out_of_range = good.clone();
        out_of_range.sa[3] = good.len() as u32 + 7;
        let mut duplicated = good.clone();
        duplicated.sa[5] = duplicated.sa[4];
        let mut swapped = good;
        swapped.sa.swap(6, 7);
        for (name, bad) in [
            ("out-of-range", out_of_range),
            ("duplicated", duplicated),
            ("swapped", swapped),
        ] {
            let ipath = dir.join(format!("{name}.pdmx"));
            bad.write_to(&ipath).unwrap();
            let ipath: String = ipath.to_string_lossy().into();

            let mut out = Vec::new();
            let code = run(
                Command::Query {
                    index: ipath.clone(),
                    patterns: ppath.clone(),
                    threads: Some(2),
                    locate: false,
                    no_merge: false,
                    verify: false,
                },
                &mut out,
            )
            .unwrap();
            let s = String::from_utf8(out).unwrap();
            assert_eq!(code, 2, "{name}: {s}");
            assert!(s.contains("suffix array"), "{name}: {s}");

            let mut out = Vec::new();
            assert_eq!(
                run_fsck(None, Some(ipath.clone()), false, &mut out).unwrap(),
                1,
                "{name}"
            );
            let mut out = Vec::new();
            assert_eq!(
                run_fsck(None, Some(ipath.clone()), true, &mut out).unwrap(),
                0
            );
            let s = String::from_utf8(out).unwrap();
            assert!(s.contains("quarantined"), "{name}: {s}");
            assert!(!std::path::Path::new(&ipath).exists(), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_required_flag_errors() {
        assert!(parse(&args(&["match", "--dict", "d"])).is_err());
        assert!(parse(&args(&["gen", "--out", "f"])).is_err());
        assert!(parse(&args(&["bogus"])).is_err());
        assert!(parse(&args(&["match", "--nope"])).is_err());
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_match_through_tempfiles() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dpath = dir.join("dict.txt");
        let tpath = dir.join("text.bin");
        std::fs::write(&dpath, "he\nshe\nhers\n").unwrap();
        std::fs::write(&tpath, "ushers").unwrap();
        let mut out = Vec::new();
        let code = run(
            Command::Match {
                dict: DictSource::Patterns(dpath.to_string_lossy().into()),
                text: tpath.to_string_lossy().into(),
                threads: Some(1),
                all: true,
                stream: false,
                chunk_bytes: 64 * 1024,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 0);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("1\t1\tshe"), "{s}");
        assert!(s.contains("2\t0\the"), "{s}");
        assert!(s.contains("2\t2\thers"), "{s}");
        assert!(s.contains("# 3 occurrences"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_gen_and_stats() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("gen.bin");
        let mut out = Vec::new();
        let code = run(
            Command::Gen {
                out: gpath.to_string_lossy().into(),
                bytes: 1000,
                seed: 3,
                markov: true,
                corpus: None,
                patterns_out: None,
                pattern_count: 1000,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 0);
        assert_eq!(std::fs::metadata(&gpath).unwrap().len(), 1000);

        let dpath = dir.join("dict.txt");
        std::fs::write(&dpath, "abc\nde\n").unwrap();
        let mut out = Vec::new();
        let code = run(
            Command::Stats {
                dict: Some(DictSource::Patterns(dpath.to_string_lossy().into())),
                addr: None,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 0);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("patterns:        2"), "{s}");
        assert!(s.contains("dictionary size: 5"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_then_match_from_index() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dpath = dir.join("dict.txt");
        let tpath = dir.join("text.bin");
        let ipath = dir.join("index.pdm");
        std::fs::write(&dpath, "he\nshe\nhers\n").unwrap();
        std::fs::write(&tpath, "ushers").unwrap();
        let mut out = Vec::new();
        assert_eq!(
            run(
                Command::Build {
                    dict: dpath.to_string_lossy().into(),
                    out: ipath.to_string_lossy().into(),
                },
                &mut out,
            )
            .unwrap(),
            0
        );
        assert_eq!(&std::fs::read(&ipath).unwrap()[..4], b"PDMS");
        let matched = |dict: DictSource, all: bool, stream: bool| -> String {
            let mut out = Vec::new();
            let code = run(
                Command::Match {
                    dict,
                    text: tpath.to_string_lossy().into(),
                    threads: Some(1),
                    all,
                    stream,
                    chunk_bytes: 4,
                },
                &mut out,
            )
            .unwrap();
            let s = String::from_utf8(out).unwrap();
            assert_eq!(code, 0, "{s}");
            s
        };
        let index = || DictSource::Index(ipath.to_string_lossy().into());
        let patterns = || DictSource::Patterns(dpath.to_string_lossy().into());
        // The index prints what the dictionary prints, byte for byte.
        for (all, stream) in [(false, false), (true, false), (false, true)] {
            assert_eq!(
                matched(index(), all, stream),
                matched(patterns(), all, stream),
                "all {all}, stream {stream}"
            );
        }
        let s = matched(index(), true, false);
        assert!(s.contains("# 3 occurrences"), "{s}");
        assert!(s.contains("2\t2\thers"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An empty compacted store boots from its v2 sidecar, and fsck says
    /// so; a version-1 sidecar makes both report the legacy rebuild.
    #[test]
    fn empty_and_legacy_sidecars_boot_as_fsck_reports() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-emptylog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log: String = dir.join("dict.pdml").to_string_lossy().into();
        let tpath = dir.join("text.bin");
        std::fs::write(&tpath, "ushers").unwrap();
        for op in [
            DictOp::Add {
                pattern: "he".into(),
            },
            DictOp::Commit,
            DictOp::Remove {
                pattern: "he".into(),
            },
            DictOp::Commit,
            DictOp::Compact,
        ] {
            let mut out = Vec::new();
            let target = DictTarget::Log(log.clone());
            assert_eq!(run(Command::Dict { op, target }, &mut out).unwrap(), 0);
        }
        let match_log = || -> String {
            let mut out = Vec::new();
            let code = run(
                Command::Match {
                    dict: DictSource::Log(log.clone()),
                    text: tpath.to_string_lossy().into(),
                    threads: Some(1),
                    all: false,
                    stream: false,
                    chunk_bytes: 64 * 1024,
                },
                &mut out,
            )
            .unwrap();
            let s = String::from_utf8(out).unwrap();
            assert_eq!(code, 0, "{s}");
            s
        };
        let fsck = || -> String {
            let mut out = Vec::new();
            let code = run(
                Command::Fsck {
                    log: Some(log.clone()),
                    index: None,
                    repair: false,
                },
                &mut out,
            )
            .unwrap();
            let s = String::from_utf8(out).unwrap();
            assert_eq!(code, 0, "{s}");
            s
        };
        let s = match_log();
        assert!(s.contains("epoch 2: cold-loaded from"), "{s}");
        assert!(s.contains("# 0 occurrences"), "{s}");
        let s = fsck();
        assert!(s.contains("boot path: cold-load from sidecar"), "{s}");

        // A version-1 sidecar for the same epoch: header, epoch 2, no
        // patterns.
        let mut v1 = Vec::new();
        pdm_primitives::codec::write_header(&mut v1, pdm_dict::snapshot::SNAP_MAGIC, 1);
        v1.extend_from_slice(&2u64.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(format!("{log}.snap"), &v1).unwrap();
        let s = match_log();
        assert!(s.contains("rebuilt (snapshot is legacy format v1)"), "{s}");
        let s = fsck();
        assert!(
            s.contains("boot path: rebuild (legacy sidecar format v1)"),
            "{s}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_serve_and_stream_flags() {
        let c = parse(&args(&[
            "serve",
            "--dict",
            "d",
            "--port",
            "7700",
            "--workers",
            "3",
            "--queue-cap",
            "8",
            "--read-timeout-ms",
            "250",
            "--max-conns",
            "32",
            "--drain-deadline-ms",
            "1500",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                dict: Some(DictSource::Patterns("d".into())),
                dict_log: None,
                port: 7700,
                workers: Some(3),
                queue_cap: 8,
                read_timeout_ms: 250,
                max_conns: 32,
                drain_deadline_ms: 1500,
                reactors: 0,
            }
        );
        // Lifecycle flags default off / to 5 s drain.
        let c = parse(&args(&["serve", "--dict", "d", "--port", "1"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                read_timeout_ms: 0,
                max_conns: 0,
                drain_deadline_ms: 5000,
                ..
            }
        ));
        assert!(parse(&args(&["serve", "--dict", "d"])).is_err());
        assert!(parse(&args(&["serve", "--port", "1"])).is_err());

        let c = parse(&args(&[
            "match",
            "--dict",
            "d",
            "--text",
            "t",
            "--stream",
            "--chunk-bytes",
            "7",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Match {
                stream: true,
                chunk_bytes: 7,
                ..
            }
        ));
        assert!(parse(&args(&[
            "match",
            "--dict",
            "d",
            "--text",
            "t",
            "--stream",
            "--chunk-bytes",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn end_to_end_stream_match_equals_batch() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dpath = dir.join("dict.txt");
        let tpath = dir.join("text.bin");
        std::fs::write(&dpath, "he\nshe\nhers\n").unwrap();
        std::fs::write(&tpath, "ushers and pushers").unwrap();
        // Chunk of 4 bytes splits "she" (positions 1..4 and 12..15)
        // across boundaries; output occurrences must match batch --all.
        let mut streamed = Vec::new();
        let code = run(
            Command::Match {
                dict: DictSource::Patterns(dpath.to_string_lossy().into()),
                text: tpath.to_string_lossy().into(),
                threads: Some(1),
                all: false,
                stream: true,
                chunk_bytes: 4,
            },
            &mut streamed,
        )
        .unwrap();
        assert_eq!(code, 0);
        let mut batch = Vec::new();
        run(
            Command::Match {
                dict: DictSource::Patterns(dpath.to_string_lossy().into()),
                text: tpath.to_string_lossy().into(),
                threads: Some(1),
                all: true,
                stream: false,
                chunk_bytes: 64 * 1024,
            },
            &mut batch,
        )
        .unwrap();
        let body = |v: &[u8]| -> Vec<String> {
            String::from_utf8(v.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.to_string())
                .collect()
        };
        let mut s_lines = body(&streamed);
        let mut b_lines = body(&batch);
        s_lines.sort();
        b_lines.sort();
        assert_eq!(s_lines, b_lines);
        assert!(String::from_utf8(streamed)
            .unwrap()
            .contains("# 6 occurrences"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_index_and_dict_exclusive() {
        assert!(parse(&args(&[
            "match", "--dict", "d", "--index", "i", "--text", "t"
        ]))
        .is_err());
        assert!(parse(&args(&["match", "--text", "t"])).is_err());
        let c = parse(&args(&["match", "--index", "i", "--text", "t"])).unwrap();
        assert!(matches!(
            c,
            Command::Match {
                dict: DictSource::Index(_),
                ..
            }
        ));
        let b = parse(&args(&["build", "--dict", "d", "--out", "o"])).unwrap();
        assert_eq!(
            b,
            Command::Build {
                dict: "d".into(),
                out: "o".into()
            }
        );
    }

    #[test]
    fn parses_dict_subcommand() {
        let c = parse(&args(&[
            "dict",
            "add",
            "--pattern",
            "hers",
            "--log",
            "d.pdml",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Dict {
                op: DictOp::Add {
                    pattern: "hers".into()
                },
                target: DictTarget::Log("d.pdml".into()),
            }
        );
        let c = parse(&args(&["dict", "commit", "--addr", "127.0.0.1:7700"])).unwrap();
        assert_eq!(
            c,
            Command::Dict {
                op: DictOp::Commit,
                target: DictTarget::Addr("127.0.0.1:7700".into()),
            }
        );
        assert!(parse(&args(&["dict"])).is_err(), "action required");
        assert!(
            parse(&args(&["dict", "add", "--log", "l"])).is_err(),
            "pattern required"
        );
        assert!(parse(&args(&["dict", "info"])).is_err(), "target required");
        assert!(parse(&args(&["dict", "info", "--log", "l", "--addr", "a"])).is_err());
        assert!(
            parse(&args(&["dict", "compact", "--addr", "a"])).is_err(),
            "compact is local"
        );
        assert!(parse(&args(&["dict", "frobnicate", "--log", "l"])).is_err());
    }

    #[test]
    fn parses_serve_dict_log_and_stats_index() {
        let c = parse(&args(&["serve", "--dict-log", "d.pdml", "--port", "1"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                dict: None,
                dict_log: Some(_),
                ..
            }
        ));
        let c = parse(&args(&[
            "serve",
            "--dict-log",
            "d.pdml",
            "--dict",
            "seed.txt",
            "--port",
            "1",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                dict: Some(DictSource::Patterns(_)),
                dict_log: Some(_),
                ..
            }
        ));
        assert!(
            parse(&args(&[
                "serve",
                "--dict-log",
                "d",
                "--index",
                "i",
                "--port",
                "1"
            ]))
            .is_err(),
            "an index cannot seed a log"
        );
        let c = parse(&args(&["stats", "--index", "i"])).unwrap();
        assert_eq!(
            c,
            Command::Stats {
                dict: Some(DictSource::Index("i".into())),
                addr: None,
            }
        );
        assert!(parse(&args(&["stats"])).is_err());
    }

    #[test]
    fn parses_reactors_and_stats_addr() {
        let c = parse(&args(&[
            "serve",
            "--dict",
            "d",
            "--port",
            "7700",
            "--reactors",
            "4",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Serve { reactors: 4, .. }));

        let c = parse(&args(&["stats", "--addr", "127.0.0.1:7700"])).unwrap();
        assert_eq!(
            c,
            Command::Stats {
                dict: None,
                addr: Some("127.0.0.1:7700".into()),
            }
        );
        assert!(
            parse(&args(&["stats", "--dict", "d", "--addr", "a"])).is_err(),
            "--addr and --dict are exclusive"
        );
    }

    /// `pdm stats --addr` against a live in-process server: the counters
    /// come back over the wire and include the reactor-tier efficiency
    /// ratio.
    #[test]
    fn stats_addr_queries_live_server() {
        use pdm_core::dict::symbolize;
        let ctx = Ctx::seq();
        let m = pdm_core::static1d::StaticMatcher::build(&ctx, &symbolize(&["he", "she"])).unwrap();
        let server = pdm_stream::Server::bind(
            ("127.0.0.1", 0),
            std::sync::Arc::new(m),
            pdm_stream::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut out = Vec::new();
        assert_eq!(run_stats_addr(&addr, &mut out).unwrap(), 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("sessions_opened"), "{text}");
        assert!(text.contains("reactor_wakeups"), "{text}");
        assert!(text.contains("frames_decoded"), "{text}");
        server.shutdown();

        // Dead address: a readable error and exit code 2, not a panic.
        let mut out = Vec::new();
        assert_eq!(run_stats_addr(&addr, &mut out).unwrap(), 2);
        assert!(String::from_utf8(out).unwrap().starts_with("error:"));
    }

    #[test]
    fn stats_from_prebuilt_index() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-sidx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dpath = dir.join("dict.txt");
        let ipath = dir.join("index.pdm");
        std::fs::write(&dpath, "he\nshe\nhers\n").unwrap();
        let mut out = Vec::new();
        assert_eq!(
            run(
                Command::Build {
                    dict: dpath.to_string_lossy().into(),
                    out: ipath.to_string_lossy().into(),
                },
                &mut out,
            )
            .unwrap(),
            0
        );
        let mut out = Vec::new();
        let code = run(
            Command::Stats {
                dict: Some(DictSource::Index(ipath.to_string_lossy().into())),
                addr: None,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 0);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("patterns:        3"), "{s}");
        assert!(s.contains("load:"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dict_log_lifecycle_end_to_end() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-dict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log: String = dir.join("dict.pdml").to_string_lossy().into();
        let run_op = |op: DictOp| -> (i32, String) {
            let mut out = Vec::new();
            let code = run(
                Command::Dict {
                    op,
                    target: DictTarget::Log(log.clone()),
                },
                &mut out,
            )
            .unwrap();
            (code, String::from_utf8(out).unwrap())
        };
        for p in ["he", "she"] {
            let (code, s) = run_op(DictOp::Add { pattern: p.into() });
            assert_eq!(code, 0, "{s}");
        }
        // Each run opens the log afresh, so its commit is a first freeze.
        let (code, s) = run_op(DictOp::Commit);
        assert_eq!(code, 0, "{s}");
        assert!(
            s.contains("committed epoch 1 (2 patterns, tables refrozen)"),
            "{s}"
        );
        let (code, s) = run_op(DictOp::Remove {
            pattern: "he".into(),
        });
        assert_eq!(code, 0, "{s}");
        let (code, s) = run_op(DictOp::Info);
        assert_eq!(code, 0);
        assert!(s.contains("epoch 1: 2 patterns"), "{s}");
        assert!(s.contains("1 staged ops"), "{s}");
        let (code, s) = run_op(DictOp::Commit);
        assert_eq!(code, 0, "{s}");
        assert!(
            s.contains("committed epoch 2 (1 patterns, tables refrozen)"),
            "{s}"
        );
        // Double-remove is a user error, surfaced as exit 2.
        let (code, s) = run_op(DictOp::Remove {
            pattern: "he".into(),
        });
        assert_eq!(code, 2);
        assert!(s.starts_with("error:"), "{s}");
        let (code, s) = run_op(DictOp::Compact);
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("1 live patterns"), "{s}");
        assert!(
            std::path::Path::new(&format!("{log}.snap")).exists() || s.contains("snapshot"),
            "compact emits a snapshot: {s}"
        );
        let (code, s) = run_op(DictOp::Remove {
            pattern: "she".into(),
        });
        assert_eq!(code, 0, "{s}");
        let (code, s) = run_op(DictOp::Commit);
        assert_eq!(code, 0, "{s}");
        assert!(
            s.contains("committed epoch 3 (0 patterns, tables empty)"),
            "{s}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_match_dict_log_and_snap_inspect() {
        let c = parse(&args(&["match", "--dict-log", "d.pdml", "--text", "t"])).unwrap();
        assert_eq!(
            c,
            Command::Match {
                dict: DictSource::Log("d.pdml".into()),
                text: "t".into(),
                threads: None,
                all: false,
                stream: false,
                chunk_bytes: 64 * 1024,
            }
        );
        assert!(
            parse(&args(&[
                "match",
                "--dict-log",
                "l",
                "--dict",
                "d",
                "--text",
                "t"
            ]))
            .is_err(),
            "--dict-log excludes --dict"
        );
        assert!(
            parse(&args(&[
                "match",
                "--dict-log",
                "l",
                "--text",
                "t",
                "--stream"
            ]))
            .is_err(),
            "--stream needs a static dictionary"
        );
        let c = parse(&args(&["snap", "inspect", "--file", "d.pdml.snap"])).unwrap();
        assert_eq!(
            c,
            Command::SnapInspect {
                file: "d.pdml.snap".into()
            }
        );
        assert!(parse(&args(&["snap"])).is_err(), "action required");
        assert!(parse(&args(&["snap", "bogus", "--file", "f"])).is_err());
        assert!(parse(&args(&["snap", "inspect"])).is_err(), "file required");
    }

    #[test]
    fn match_dict_log_cold_loads_and_snap_inspect_reports() {
        let dir = std::env::temp_dir().join(format!("pdm-cli-coldboot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log: String = dir.join("dict.pdml").to_string_lossy().into();
        let tpath = dir.join("text.bin");
        std::fs::write(&tpath, "ushers").unwrap();
        let run_op = |op: DictOp| -> (i32, String) {
            let mut out = Vec::new();
            let code = run(
                Command::Dict {
                    op,
                    target: DictTarget::Log(log.clone()),
                },
                &mut out,
            )
            .unwrap();
            (code, String::from_utf8(out).unwrap())
        };
        for p in ["he", "she", "hers"] {
            let (code, s) = run_op(DictOp::Add { pattern: p.into() });
            assert_eq!(code, 0, "{s}");
        }
        let (code, s) = run_op(DictOp::Commit);
        assert_eq!(code, 0, "{s}");

        // Before compaction there is no sidecar: match rebuilds, says why.
        let mut out = Vec::new();
        let code = run(
            Command::Match {
                dict: DictSource::Log(log.clone()),
                text: tpath.to_string_lossy().into(),
                threads: Some(1),
                all: false,
                stream: false,
                chunk_bytes: 64 * 1024,
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("rebuilt (no snapshot sidecar)"), "{s}");
        assert!(s.contains("# 3 occurrences"), "{s}");

        // Compact emits the v2 sidecar; match now cold-loads it.
        let (code, s) = run_op(DictOp::Compact);
        assert_eq!(code, 0, "{s}");
        let mut out = Vec::new();
        let code = run(
            Command::Match {
                dict: DictSource::Log(log.clone()),
                text: tpath.to_string_lossy().into(),
                threads: Some(1),
                all: false,
                stream: false,
                chunk_bytes: 64 * 1024,
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("cold-loaded from"), "{s}");
        assert!(s.contains("# 3 occurrences"), "{s}");
        assert!(s.contains("2\t2\thers"), "{s}");

        // snap inspect on the emitted v2 sidecar.
        let snap_file = format!("{log}.snap");
        let mut out = Vec::new();
        let code = run(
            Command::SnapInspect {
                file: snap_file.clone(),
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("PDMS v2"), "{s}");
        assert!(s.contains("patterns: 3"), "{s}");
        for (name, id) in [
            ("META", 1),
            ("PATTERNS", 2),
            ("TABLES", 3),
            ("CHAINS", 4),
            ("PREFILTER", 5),
        ] {
            assert!(s.contains(&format!("section {name} (id {id})")), "{s}");
        }
        assert!(!s.contains("section ?"), "{s}");
        assert!(s.contains("crc: OK"), "{s}");

        // snap inspect on the log itself (PDML).
        let mut out = Vec::new();
        let code = run(Command::SnapInspect { file: log.clone() }, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("PDML v1"), "{s}");
        assert!(s.contains("tail: clean"), "{s}");

        // A corrupted sidecar fails inspection and makes match fall back.
        let mut bytes = std::fs::read(&snap_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&snap_file, &bytes).unwrap();
        let mut out = Vec::new();
        let code = run(
            Command::SnapInspect {
                file: snap_file.clone(),
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 2, "{s}");
        let mut out = Vec::new();
        let code = run(
            Command::Match {
                dict: DictSource::Log(log.clone()),
                text: tpath.to_string_lossy().into(),
                threads: Some(1),
                all: false,
                stream: false,
                chunk_bytes: 64 * 1024,
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{s}");
        assert!(s.contains("rebuilt ("), "{s}");
        assert!(s.contains("# 3 occurrences"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_paths_exit_2() {
        let mut out = Vec::new();
        let code = run(
            Command::Stats {
                dict: Some(DictSource::Patterns("/nonexistent/x".into())),
                addr: None,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 2);
    }
}
