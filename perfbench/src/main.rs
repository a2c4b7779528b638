//! End-to-end and per-layer benchmark for `pdm serve` and `pdm-index`.
//!
//! ```text
//! pdm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pdm-perfbench --smoke
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run repeats the
//! workload with the same seed and then replays its inputs through each
//! layer, printing the per-layer metrics. Human-readable lines start with
//! `# `; the last line is one JSON object. See `perfbench/README.md`.
//!
//! The same executable is also the process under test: `pdm <args>` runs
//! `pdm::cli::parse`/`run` (the `pdm serve` code path), and `index-sut`
//! hosts the `pdm-index` workload.

mod client;
mod host;
mod index;
mod inputs;
mod procfs;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::{ChunkOracle, Size, StreamInputs};
use report::Report;
use serve::{ChurnScript, ServeRun, ServeSpec};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Chunks each serve replay pushes through each layer (enough for a p99
/// with ten samples beyond it).
const REPLAY_CHUNKS: usize = 1024;
/// Alert dictionary and log period of `serve_log_sparse`.
const ALERT_PATTERNS: usize = 20_000;
const LOG_TEXT: usize = 8 << 20;
/// The churn stream's period is short enough that each measured phase
/// streams it several times over, so what a phase measures does not
/// depend on where in the text it happens to start.
const CHURN_TEXT: usize = 1 << 20;
/// The churn store's dictionary is smaller: matching through an
/// incremental (dynamic) snapshot slows with dictionary size, to about
/// 0.25 MB/s at 20,000 patterns against 1.6 MB/s at 2,000 (README.md).
const CHURN_PATTERNS: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LogSparse,
    GenomeDense,
    LogChurn,
    IndexGenome,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::LogSparse,
        Workload::GenomeDense,
        Workload::LogChurn,
        Workload::IndexGenome,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::LogSparse => "serve_log_sparse",
            Workload::GenomeDense => "serve_genome_dense",
            Workload::LogChurn => "serve_log_churn",
            Workload::IndexGenome => "index_genome",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Load shape of the serve workloads. Paced rates are a quarter to a
    /// third of each workload's saturated throughput when this benchmark
    /// was written (2-CPU host; see README.md).
    fn serve_spec(self) -> Option<ServeSpec> {
        let base = ServeSpec {
            chunk: 64 << 10,
            conns: 2,
            window: 8,
            paced_mib_s: 70.0,
            churn: false,
            sat_share: 0.45,
            paced_share: 0.35,
        };
        match self {
            Workload::LogSparse => Some(base),
            Workload::GenomeDense => Some(ServeSpec {
                chunk: 4 << 10,
                window: 16,
                paced_mib_s: 0.55,
                ..base
            }),
            Workload::LogChurn => Some(ServeSpec {
                chunk: 4 << 10,
                conns: 1,
                window: 8,
                paced_mib_s: 0.47,
                churn: true,
                ..base
            }),
            Workload::IndexGenome => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => traced = Some(val()? == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

/// Scratch directory for one run, inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(label: &str) -> std::io::Result<WorkDir> {
        let d = Path::new(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d)?;
        Ok(WorkDir(d))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// CPUs of the host this process may use (counted at start, before any
/// pinning).
fn workers() -> usize {
    ALL_CPUS.get().map_or(1, |c| c.len().max(1))
}

/// CPUs for the generator and the server of a serve workload: on a host
/// with two or more, each gets its own, so the generator's threads never
/// preempt the server's and every wakeup inside the server stays on one
/// CPU. `None` on a one-CPU host.
fn cpu_split() -> Option<(usize, usize)> {
    match ALL_CPUS.get().map_or(&[][..], Vec::as_slice) {
        [a, b, ..] => Some((*a, *b)),
        _ => None,
    }
}

/// Revision of the checkout when it is a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git work tree)".into())
}

fn record_host(r: &mut Report, a: &Args, work: &Path) {
    r.record("workload", a.workload.name());
    r.record("seed", a.seed);
    r.record("seconds", a.seconds);
    r.record("traced", a.traced);
    r.record("host cpus", workers());
    r.record("cpu MHz", host::cpu_mhz());
    r.record(
        "smt siblings",
        host::smt_siblings(ALL_CPUS.get().map_or(&[][..], Vec::as_slice)),
    );
    r.record("git rev", git_rev());
    r.record("inputs filesystem", procfs::filesystem_of(work));
    r.record("scrubbed env", client::SCRUBBED_ENV.join(","));
}

fn serve_workload(a: &Args, size: Size, r: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    let w = a.workload;
    let mut spec = w.serve_spec().expect("serve workload");
    if size == Size::Smoke {
        spec.paced_mib_s = spec.paced_mib_s.min(2.0);
    }
    let work = WorkDir::new(w.name())?;
    record_host(r, a, &work.0);
    let inp: StreamInputs = match w {
        Workload::GenomeDense => inputs::genome_inputs(a.seed, size),
        Workload::LogChurn => inputs::log_inputs(a.seed, size, CHURN_TEXT, CHURN_PATTERNS),
        _ => inputs::log_inputs(a.seed, size, LOG_TEXT, ALERT_PATTERNS),
    };
    let split = cpu_split();
    // One CPU for the server: one shard worker and one reactor.
    let n = if split.is_some() {
        "1".to_string()
    } else {
        workers().to_string()
    };
    r.record("server workers", &n);
    r.record("server reactors", &n);
    record_split(r, split);
    if let Some((g, _)) = split {
        procfs::pin_to(&[g]);
    }
    r.record(
        "stream",
        format!(
            "{} B period, {} B chunks, {} connection(s), window {}, paced {} MiB/s",
            inp.text.len(),
            spec.chunk,
            spec.conns,
            spec.window,
            spec.paced_mib_s
        ),
    );
    let reps = if size == Size::Smoke { 1 } else { SETUP_REPS };
    let probe_cpu = split.map(|(_, s)| s);
    r.record("host probe before, ms", host::probe_ms(probe_cpu));
    let (run, oracle, master) = if spec.churn {
        let master = serve::prepare_store(&work.0, &inp.patterns)?;
        let boot = work.0.join("boot.pdml");
        let mut args = pin_args(split);
        args.extend([
            "--dict-log".into(),
            boot.to_string_lossy().into_owned(),
            "--workers".into(),
            n.clone(),
            "--reactors".into(),
            n.clone(),
        ]);
        let prepare = || {
            std::fs::copy(&master, &boot).expect("copy store log");
            std::fs::copy(serve::snap_of(&master), serve::snap_of(&boot))
                .expect("copy store sidecar");
        };
        let script = ChurnScript {
            pool: &inp.pool,
            bulk: &inp.bulk,
        };
        let oracle = ChunkOracle::new(&inp.text, &script.union(&inp.patterns), spec.chunk);
        let run = serve::run(&spec, &inp, &args, &prepare, reps, a.seconds)?;
        (run, oracle, Some(master))
    } else {
        let dict = work.0.join("dict.txt");
        inputs::write_dict(&dict, &inp.patterns)?;
        let mut args = pin_args(split);
        args.extend([
            "--dict".into(),
            dict.to_string_lossy().into_owned(),
            "--workers".into(),
            n.clone(),
            "--reactors".into(),
            n.clone(),
        ]);
        let oracle = ChunkOracle::new(&inp.text, &inp.patterns, spec.chunk);
        let run = serve::run(&spec, &inp, &args, &|| {}, reps, a.seconds)?;
        (run, oracle, None)
    };
    r.record("matches per period", oracle.per_period_total());
    r.record("host probe after, ms", host::probe_ms(probe_cpu));
    r.record("prefilter decision", prefilter_decision(&inp.patterns));
    // A churn boot must load the store's sidecar; one that rebuilt means
    // the inputs were not fresh, and counts as a failed op.
    let (boots, warm_boots) = if spec.churn {
        r.record(
            "dictionary boot",
            format!("{} of {reps} boots cold-loaded the sidecar", run.cold_boots),
        );
        (reps, reps - run.cold_boots)
    } else {
        r.record("dictionary boot", "built from --dict at every boot");
        (0, 0)
    };

    let script = ChurnScript {
        pool: &inp.pool,
        bulk: &inp.bulk,
    };
    let base = inp.patterns.len();
    let live = |pat: u32, epoch: u64| script.live(base, pat as usize, epoch);
    let (checked, bad) = serve::check(
        &run,
        &oracle,
        spec.churn.then_some(&live as &dyn Fn(u32, u64) -> bool),
    );
    let failed_commits = run.commits.iter().filter(|c| !c.ok).count() as u64;
    let unclosed = run.recv.iter().filter(|l| !l.summary).count() as u64;
    let stage_ops: u64 = (0..run.commits.len())
        .map(|i| {
            let (a, d) = script.ops(run.commits[i].index);
            (a.len() + d.len()) as u64
        })
        .sum();
    r.attempted =
        checked.chunks + run.commits.len() as u64 + stage_ops + (spec.conns + boots) as u64;
    r.failed = checked.wrong
        + checked.missing
        + failed_commits
        + run.stage_errors
        + unclosed
        + warm_boots as u64;
    for (c, l) in run.recv.iter().enumerate() {
        if let Some(e) = &l.error {
            r.record(&format!("connection {c} error"), e);
        }
    }

    let (acks_sat, mib_sat) = serve::saturated(&run, spec.chunk);
    let sat_s = (run.bounds[1] - run.bounds[0]) as f64 / 1e9;
    let (lat, late) = serve::paced_latency(&run, &bad);
    let q = stats::highest_supported(lat.len()).map_or("none".into(), |q| format!("p{q}"));
    let setup = stats::median(&run.setup_s);
    let pct = |q: f64| {
        if lat.is_empty() {
            f64::INFINITY
        } else {
            stats::percentile(&lat, q)
        }
    };
    let (p50, p90, p99) = (pct(50.0), pct(90.0), pct(99.0));
    let lq = stats::highest_supported(late.len())
        .unwrap_or(50.0)
        .min(99.0);
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        stats::percentile(&late, lq)
    };
    let commit_ms = commit_latencies(&run);
    if !a.traced {
        r.metric(
            "setup_s",
            setup,
            run.setup_s.len(),
            "spawn -> first HELLO_ACK, median",
        );
        r.metric(
            "throughput_mbps",
            mib_sat / sat_s,
            acks_sat,
            format!("acked MiB / {sat_s:.1} s saturation phase"),
        );
        r.metric(
            "cpu_ms_per_mb",
            run.cpu_sat_s * 1e3 / mib_sat.max(1e-9),
            1,
            format!("server utime+stime over {mib_sat:.1} MiB"),
        );
        r.metric("latency_p50_ms", p50, lat.len(), "paced chunk, due -> ACK");
        r.metric("peak_rss_mb", run.server_pid_mem.hwm_mb, 1, "server VmHWM");
        r.detail("chunk_p50_ms", p50, "ms", lat.len(), "");
        r.detail("chunk_p90_ms", p90, "ms", lat.len(), "");
        r.detail("chunk_p99_ms", p99, "ms", lat.len(), q.clone());
        r.detail(
            "gen.late_p99_ms",
            late_p99,
            "ms",
            late.len(),
            "paced sender behind schedule",
        );
        if spec.churn {
            let (c50, c90, cq) = tail(&commit_ms, 90.0);
            r.detail(
                "commit_p50_ms",
                c50,
                "ms",
                commit_ms.len(),
                "DICT_COMMIT -> DICT_OK",
            );
            r.detail("commit_p90_ms", c90, "ms", commit_ms.len(), cq);
        }
        return Ok(());
    }

    // Traced: server counters, generator timings, then the replay.
    let [s0, s1, s2] = run.stats;
    let per_mb = |d: u64| d as f64 / mib_sat.max(1e-9);
    r.metric(
        "reactor.wakeups_per_mb",
        per_mb(s1.reactor_wakeups - s0.reactor_wakeups),
        1,
        "saturation phase",
    );
    r.metric(
        "reactor.events_per_wakeup",
        (s1.reactor_events - s0.reactor_events) as f64
            / (s1.reactor_wakeups - s0.reactor_wakeups).max(1) as f64,
        1,
        "",
    );
    r.metric(
        "reactor.partial_writes_per_mb",
        per_mb(s1.partial_writes - s0.partial_writes),
        1,
        "",
    );
    r.metric(
        "service.queue_depth_max",
        s2.queue_depth_max as f64,
        1,
        "server high-water mark",
    );
    r.metric(
        "service.stalls",
        (s2.stalls - s0.stalls) as f64,
        1,
        "measured phases",
    );
    let kchunks = (s2.chunks - s0.chunks) as f64 / 1e3;
    r.metric(
        "stream.rss_growth_kb_per_kchunk",
        (run.server_pid_mem.rss_mb - run.rss_warm_mb) * 1024.0 / kchunks.max(1e-9),
        (s2.chunks - s0.chunks) as usize,
        "server VmRSS, end of warm-up -> end",
    );
    r.metric("gen.late_p99_ms", late_p99, late.len(), format!("p{lq}"));
    if spec.churn {
        r.metric(
            "dict.boot_cold",
            f64::from(u8::from(run.cold_boots == reps)),
            reps,
            "every served boot cold-loaded the sidecar",
        );
        let (_, c90, cq) = tail(&commit_ms, 90.0);
        r.metric("gen.commit_p90_ms", c90, commit_ms.len(), cq);
        r.metric(
            "dict.adopt_lag_ms",
            adopt_lag(&run),
            run.commits.len(),
            "DICT_OK -> TAG_EPOCH, median",
        );
    }
    let first = tr.spans().len();
    match (w, &master) {
        (Workload::LogChurn, Some(master)) => {
            replay::replay_churn(tr, r, &inp, &spec, master, &work.0, REPLAY_CHUNKS)?;
        }
        _ => replay::replay_static(tr, r, &inp, &spec, REPLAY_CHUNKS, n.parse().unwrap_or(1)),
    }
    trace_metrics(tr, r, first);
    record_generator_spans(tr, &run);
    Ok(())
}

/// `trace.overhead_pct` and `trace.unattributed_pct` of the replay whose
/// spans start at index `first`. The process under test carries no spans
/// (the served run is the same code traced or not), so the only tracing
/// cost is the tracer's own work around each replayed call.
fn trace_metrics(tr: &Tracer, r: &mut Report, first: usize) {
    let spans = &tr.spans()[first..];
    let start = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end).max().unwrap_or(0);
    let per_span = trace::empty_span_ns();
    r.metric(
        "trace.overhead_pct",
        100.0 * spans.len() as f64 * per_span / end.saturating_sub(start).max(1) as f64,
        spans.len(),
        format!("{per_span:.1} ns per span x spans / replay wall time"),
    );
    r.metric(
        "trace.unattributed_pct",
        replay::unattributed(tr, first),
        spans.len(),
        "replay wall time outside layer spans",
    );
}

/// The prefilter decision the server's build of `patterns` makes (the same
/// deterministic build, repeated here off the clock).
fn prefilter_decision(patterns: &[Vec<u8>]) -> String {
    let pats: Vec<Vec<u32>> = patterns.iter().map(|p| inputs::to_syms(p)).collect();
    pdm_core::StaticMatcher::build(&pdm_pram::Ctx::seq(), &pats).map_or_else(
        |e| format!("build failed: {e}"),
        |m| m.prefilter_decision().describe(),
    )
}

fn record_split(r: &mut Report, split: Option<(usize, usize)>) {
    r.record(
        "cpu split",
        split.map_or("none (one CPU)".into(), |(g, s)| {
            format!("generator on CPU {g}, process under test on CPU {s}")
        }),
    );
}

/// Leading arguments that pin the server to its CPU.
fn pin_args(split: Option<(usize, usize)>) -> Vec<String> {
    split.map_or_else(Vec::new, |(_, s)| vec!["pin".into(), s.to_string()])
}

/// Commit latencies (ms) of commits sent in the measured phases.
fn commit_latencies(run: &ServeRun) -> Vec<f64> {
    let (t1, t4) = (run.bounds[0], run.bounds[4]);
    let mut v: Vec<f64> = run
        .commits
        .iter()
        .filter(|c| c.sent >= t1 && c.sent < t4)
        .map(|c| {
            if c.ok {
                (c.done - c.sent) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    stats::sort(&mut v);
    v
}

/// Median and the `q` percentile of a sorted sample, with a note naming
/// the highest percentile it supports.
fn tail(sorted: &[f64], q: f64) -> (f64, f64, String) {
    if sorted.is_empty() {
        return (0.0, 0.0, "no samples".into());
    }
    let sup = stats::highest_supported(sorted.len()).map_or("none".into(), |s| format!("p{s}"));
    (
        stats::percentile(sorted, 50.0),
        stats::percentile(sorted, q),
        format!("highest supported: {sup}"),
    )
}

/// Median lag from a commit's `DICT_OK` to the stream's `TAG_EPOCH` for it.
fn adopt_lag(run: &ServeRun) -> f64 {
    let ev = &run.recv[0].epoch_events;
    let lags: Vec<f64> = run
        .commits
        .iter()
        .filter(|c| c.ok && c.sent >= run.bounds[0])
        .filter_map(|c| {
            ev.iter()
                .find(|&&(e, _)| e >= c.epoch)
                .map(|&(_, t)| (t as f64 - c.done as f64) / 1e6)
        })
        .collect();
    if lags.is_empty() {
        0.0
    } else {
        stats::median(&lags)
    }
}

/// The generator's spans (chunk send -> ACK, commit send -> OK), shifted
/// onto the tracer's clock.
fn record_generator_spans(tr: &mut Tracer, run: &ServeRun) {
    let shift = run
        .origin
        .checked_duration_since(tr.origin())
        .map_or(0, |d| d.as_nanos() as u64);
    for (c, sends) in run.sends.iter().enumerate() {
        for (k, s) in sends.iter().enumerate() {
            if let Some(&a) = run.recv[c].acks.get(k) {
                tr.record("gen.chunk", k as u64, s.sent + shift, a + shift);
            }
        }
    }
    for c in &run.commits {
        tr.record("gen.commit", c.index as u64, c.sent + shift, c.done + shift);
    }
}

fn index_workload(a: &Args, size: Size, r: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    let work = WorkDir::new(a.workload.name())?;
    record_host(r, a, &work.0);
    // As with the server: the index process gets a CPU of its own, where
    // `Ctx::par` (`pdm index`'s default width) sizes its pool to that CPU.
    let split = cpu_split();
    record_split(r, split);
    match split {
        Some((g, _)) => procfs::pin_to(&[g]),
        None => procfs::pin_to(ALL_CPUS.get().expect("set in main")),
    };
    let inp = inputs::index_inputs(a.seed, size);
    std::fs::write(work.0.join("corpus.bin"), &inp.corpus)?;
    index::write_batches(&work.0.join("batches.bin"), &inp.batches)?;
    r.record(
        "corpus",
        format!(
            "{} B genome, {} batches of {} patterns",
            inp.corpus.len(),
            inp.batches.len(),
            inp.batches[0].len()
        ),
    );
    let reps = if size == Size::Smoke { 1 } else { SETUP_REPS };
    let probe_cpu = split.map(|(_, s)| s);
    r.record("host probe before, ms", host::probe_ms(probe_cpu));
    let mut sut = index::IndexSut::spawn(&work.0, reps, probe_cpu)?;
    let pid = sut.pid();
    let warm = (a.seconds * 0.1).max(0.3);
    let measured = a.seconds * 0.8;
    sut.run(warm)?;
    let warm_calls = sut.dump()?;
    let cpu0 = procfs::cpu_seconds(pid).unwrap_or(0.0);
    sut.run(measured)?;
    let calls = sut.dump()?;
    let cpu1 = procfs::cpu_seconds(pid).unwrap_or(0.0);
    let mem = procfs::memory(pid).unwrap_or(procfs::Memory {
        rss_mb: 0.0,
        hwm_mb: 0.0,
    });
    let counts = sut.counts()?;
    let setup_s = sut.setup_s.clone();
    sut.quit()?;
    r.record("host probe after, ms", host::probe_ms(probe_cpu));

    let mut all = warm_calls.clone();
    all.extend(calls.iter().copied());
    r.attempted = all.len() as u64;
    r.failed = index::check(&inp, &counts, &all);

    let bytes = index::batch_bytes(&inp);
    let total: usize = calls.iter().map(|c| bytes[c.batch]).sum();
    let t_first = calls.first().map_or(0.0, |c| c.start_ns as f64 / 1e9);
    let t_last = calls.last().map_or(0.0, |c| c.end_ns as f64 / 1e9);
    let mut lat: Vec<f64> = calls
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .collect();
    stats::sort(&mut lat);
    if lat.is_empty() {
        return Err(std::io::Error::other("no query batch completed"));
    }
    let mib = total as f64 / (1 << 20) as f64;
    let wall = (t_last - t_first).max(1e-9);
    let q = stats::highest_supported(lat.len()).map_or("none".into(), |q| format!("p{q}"));
    let patterns: usize = calls.iter().map(|c| inp.batches[c.batch].len()).sum();
    if !a.traced {
        r.metric(
            "setup_s",
            stats::median(&setup_s),
            setup_s.len(),
            "CorpusIndex::build (SA+LCP), median",
        );
        r.metric(
            "throughput_mbps",
            mib / wall,
            calls.len(),
            format!("query-pattern MiB / {wall:.1} s of back-to-back batches"),
        );
        r.metric(
            "cpu_ms_per_mb",
            (cpu1 - cpu0) * 1e3 / mib.max(1e-9),
            1,
            "index process utime+stime per query MiB",
        );
        r.metric(
            "latency_p50_ms",
            stats::percentile(&lat, 50.0),
            lat.len(),
            "query_batch wall time",
        );
        r.detail(
            "batch_p90_ms",
            stats::percentile(&lat, 90.0),
            "ms",
            lat.len(),
            "",
        );
        r.detail(
            "batch_p99_ms",
            stats::percentile(&lat, 99.0),
            "ms",
            lat.len(),
            format!("highest supported: {q}"),
        );
        r.metric("peak_rss_mb", mem.hwm_mb, 1, "index process VmHWM");
        r.detail(
            "query_kpps",
            patterns as f64 / wall / 1e3,
            "kpat/s",
            calls.len(),
            "patterns answered / query wall time",
        );
        r.detail(
            "batch_p50_ms",
            stats::percentile(&lat, 50.0),
            "ms",
            lat.len(),
            "",
        );
        return Ok(());
    }
    let first = tr.spans().len();
    replay::replay_index(tr, r, &inp);
    trace_metrics(tr, r, first);
    for c in &calls {
        tr.record("gen.batch", c.batch as u64, c.start_ns, c.end_ns);
    }
    Ok(())
}

fn run_one(a: &Args, size: Size) -> std::io::Result<(Report, Tracer)> {
    let mut r = Report::default();
    let mut tr = Tracer::new();
    match a.workload {
        Workload::IndexGenome => index_workload(a, size, &mut r, &mut tr)?,
        _ => serve_workload(a, size, &mut r, &mut tr)?,
    }
    Ok((r, tr))
}

fn write_trace(a: &Args, tr: &Tracer) -> std::io::Result<PathBuf> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let p = dir.join(format!("trace-{}-seed{}.tsv", a.workload.name(), a.seed));
    std::fs::write(&p, tr.to_tsv())?;
    Ok(p)
}

/// Every workload at tiny size, twice, traced: zero failed ops, and the
/// count metrics must repeat exactly.
fn smoke() -> Result<(), String> {
    const EXACT: [&str; 12] = [
        "dict.incremental_commits",
        "dict.full_rebuilds",
        "dict.epoch_adoptions",
        "dict.boot_cold",
        "prefilter.active",
        "prefilter.candidates_per_mb",
        "prefilter.windows_per_mb",
        "prefilter.verified_frac",
        "prefilter.bailouts",
        "pram.text_rounds_per_call",
        "pram.text_work_per_sym",
        "static1d.lookups_per_sym",
    ];
    for w in Workload::ALL {
        let a = Args {
            workload: w,
            seed: 7,
            seconds: 2.0,
            traced: true,
        };
        let mut seen: Option<Vec<(&str, f64)>> = None;
        let mut ops = 0;
        for _ in 0..2 {
            let (r, _) = run_one(&a, Size::Smoke).map_err(|e| format!("{}: {e}", w.name()))?;
            if r.failed != 0 {
                return Err(format!(
                    "{}: {} of {} ops failed\n{}",
                    w.name(),
                    r.failed,
                    r.attempted,
                    r.human()
                ));
            }
            let counts: Vec<(&str, f64)> = EXACT
                .iter()
                .map(|&n| {
                    (
                        n,
                        r.metrics
                            .iter()
                            .find(|m| m.name == n)
                            .map_or(0.0, |m| m.value),
                    )
                })
                .collect();
            if let Some(prev) = &seen {
                if prev != &counts {
                    return Err(format!(
                        "{}: counts differ between runs: {prev:?} vs {counts:?}",
                        w.name()
                    ));
                }
            }
            seen = Some(counts);
            ops += r.attempted;
        }
        println!(
            "# smoke {}: ok ({ops} ops checked, counts repeat)",
            w.name()
        );
    }
    Ok(())
}

/// The CPUs this process could use when it started.
static ALL_CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();

fn main() -> ExitCode {
    ALL_CPUS.get_or_init(procfs::allowed_cpus);
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `pin <cpu> ...`: the process under test runs on one CPU (set before
    // any thread starts, so every server thread inherits it).
    if args.first().map(String::as_str) == Some("pin") && args.len() > 2 {
        if let Ok(cpu) = args[1].parse() {
            procfs::pin_to(&[cpu]);
        }
        args.drain(..2);
    }
    match args.first().map(String::as_str) {
        // The process under test: exactly what the `pdm` binary runs.
        Some("pdm") => {
            let cmd = match pdm::cli::parse(&args[1..]) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut out = std::io::stdout().lock();
            return match pdm::cli::run(cmd, &mut out) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
                Err(e) => {
                    eprintln!("io error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("index-sut") if args.len() == 3 => {
            let reps = args[2].parse().unwrap_or(1);
            return match index::sut_main(Path::new(&args[1]), reps) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("index process: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--smoke") => {
            return match smoke() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("smoke failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (r, tr) = match run_one(&a, Size::Full) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", r.human());
    if a.traced {
        // Generator spans overlap each other; self time is a replay notion.
        let replay: Vec<trace::Span> = tr
            .spans()
            .iter()
            .filter(|s| !s.name.starts_with("gen."))
            .cloned()
            .collect();
        for (name, ns) in trace::self_time_by_name(&replay) {
            println!("# self time {name:<32} {:>12.3} ms", ns as f64 / 1e6);
        }
        match write_trace(&a, &tr) {
            Ok(p) => println!("# spans written to {}", p.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    println!("{}", r.json(a.traced));
    ExitCode::SUCCESS
}
