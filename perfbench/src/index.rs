//! The `index_genome` workload. The process under test builds a
//! `CorpusIndex` over the corpus file (several times; `setup_s` is the
//! median) and answers a fixed, cycled sequence of count-mode, merged
//! query batches for as long as the generator asks. It reports per-call
//! times and count digests on stdout; the generator reads CPU and memory
//! from its `/proc` entry between phases and checks counts afterwards.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::Stdio;
use std::time::Instant;

use pdm_baselines::AhoCorasick;
use pdm_index::{BatchOptions, CorpusIndex};
use pdm_pram::Ctx;

use crate::client::{sut_command, Reaped};
use crate::inputs::{to_syms, IndexInputs};

/// Batches file: `[u32 batches]` then per batch `[u32 patterns]` and per
/// pattern `[u32 len][bytes]`, all little-endian.
pub fn write_batches(path: &Path, batches: &[Vec<Vec<u8>>]) -> io::Result<()> {
    let mut b = Vec::new();
    b.extend_from_slice(&(batches.len() as u32).to_le_bytes());
    for batch in batches {
        b.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for p in batch {
            b.extend_from_slice(&(p.len() as u32).to_le_bytes());
            b.extend_from_slice(p);
        }
    }
    std::fs::write(path, b)
}

fn read_batches(path: &Path) -> io::Result<Vec<Vec<Vec<u32>>>> {
    let b = std::fs::read(path)?;
    let mut at = 0usize;
    let u32_at = |at: &mut usize| -> io::Result<usize> {
        let v = b
            .get(*at..*at + 4)
            .ok_or_else(|| io::Error::other("truncated batches file"))?;
        *at += 4;
        Ok(u32::from_le_bytes(v.try_into().expect("4 bytes")) as usize)
    };
    let n = u32_at(&mut at)?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let k = u32_at(&mut at)?;
        let mut batch = Vec::with_capacity(k.min(1 << 20));
        for _ in 0..k {
            let len = u32_at(&mut at)?;
            let p = b
                .get(at..at + len)
                .ok_or_else(|| io::Error::other("truncated pattern"))?;
            batch.push(to_syms(p));
            at += len;
        }
        out.push(batch);
    }
    Ok(out)
}

/// Order-sensitive digest of one batch's counts.
fn digest(counts: impl Iterator<Item = usize>) -> u64 {
    counts.fold(0xcbf2_9ce4_8422_2325, |h, c| {
        (h ^ c as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Entry point of the process under test (`index-sut <dir> <reps>`).
pub fn sut_main(dir: &Path, reps: usize) -> io::Result<()> {
    let corpus = to_syms(&std::fs::read(dir.join("corpus.bin"))?);
    let batches = read_batches(&dir.join("batches.bin"))?;
    let ctx = Ctx::par();
    let out = io::stdout();
    let mut out = out.lock();
    let mut idx = None;
    for _ in 0..reps.max(1) {
        let text = corpus.clone();
        let t0 = Instant::now();
        let built = CorpusIndex::build(&ctx, text);
        writeln!(out, "setup {}", t0.elapsed().as_secs_f64())?;
        idx = Some(built);
    }
    let idx = idx.expect("built at least once");
    writeln!(out, "ready")?;
    out.flush()?;
    let opts = BatchOptions::default();
    let origin = Instant::now();
    let mut calls: Vec<(usize, u64, u64, u64)> = Vec::with_capacity(1 << 16);
    let mut next = 0usize;
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["run", secs] => {
                let secs: f64 = secs.parse().map_err(io::Error::other)?;
                calls.clear();
                let t_end = origin.elapsed().as_secs_f64() + secs;
                while origin.elapsed().as_secs_f64() < t_end {
                    let b = next % batches.len();
                    next += 1;
                    let s = origin.elapsed().as_nanos() as u64;
                    let hits = idx.query_batch(&ctx, &batches[b], &opts);
                    let e = origin.elapsed().as_nanos() as u64;
                    calls.push((b, s, e, digest(hits.iter().map(|h| h.count))));
                }
                writeln!(out, "done {}", calls.len())?;
                out.flush()?;
            }
            ["dump"] => {
                for &(b, s, e, h) in &calls {
                    writeln!(out, "{b} {s} {e} {h}")?;
                }
                writeln!(out, "end")?;
                out.flush()?;
            }
            ["counts"] => {
                for (b, batch) in batches.iter().enumerate() {
                    let hits = idx.query_batch(&ctx, batch, &opts);
                    let cs: Vec<String> = hits.iter().map(|h| h.count.to_string()).collect();
                    writeln!(out, "{b} {}", cs.join(" "))?;
                }
                writeln!(out, "end")?;
                out.flush()?;
            }
            ["quit"] => break,
            _ => return Err(io::Error::other(format!("unknown command: {line}"))),
        }
    }
    Ok(())
}

/// One timed `query_batch` call reported by the process under test.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub batch: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub digest: u64,
}

/// A running index process.
pub struct IndexSut {
    proc: Reaped,
    out: BufReader<std::process::ChildStdout>,
    pub setup_s: Vec<f64>,
}

impl IndexSut {
    /// Start the index process, pinned to `cpu` when given.
    pub fn spawn(dir: &Path, reps: usize, cpu: Option<usize>) -> io::Result<IndexSut> {
        let (dir, reps) = (dir.to_string_lossy(), reps.to_string());
        let cpu = cpu.map(|c| c.to_string());
        let mut argv: Vec<&str> = match &cpu {
            Some(c) => vec!["pin", c],
            None => Vec::new(),
        };
        argv.extend(["index-sut", &dir, &reps]);
        let child = sut_command(&argv)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut proc = Reaped { child };
        let out = BufReader::new(proc.child.stdout.take().expect("piped stdout"));
        let mut sut = IndexSut {
            proc,
            out,
            setup_s: Vec::new(),
        };
        loop {
            let line = sut.line()?;
            if let Some(v) = line.strip_prefix("setup ") {
                sut.setup_s
                    .push(v.trim().parse().map_err(io::Error::other)?);
            } else if line == "ready" {
                return Ok(sut);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    fn line(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.out.read_line(&mut s)? == 0 {
            return Err(io::Error::other("index process exited early"));
        }
        Ok(s.trim_end().to_string())
    }

    fn say(&mut self, cmd: &str) -> io::Result<()> {
        let stdin = self.proc.child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{cmd}")?;
        stdin.flush()
    }

    /// Run batches for `secs`; returns once the loop has stopped (before
    /// any results are printed, so `/proc` reads bracket only the loop).
    pub fn run(&mut self, secs: f64) -> io::Result<()> {
        self.say(&format!("run {secs}"))?;
        let l = self.line()?;
        if !l.starts_with("done") {
            return Err(io::Error::other(format!("unexpected reply: {l}")));
        }
        Ok(())
    }

    pub fn dump(&mut self) -> io::Result<Vec<Call>> {
        self.say("dump")?;
        let mut calls = Vec::new();
        loop {
            let l = self.line()?;
            if l == "end" {
                return Ok(calls);
            }
            let f: Vec<u64> = l
                .split_whitespace()
                .map(|x| x.parse().map_err(io::Error::other))
                .collect::<io::Result<_>>()?;
            if f.len() != 4 {
                return Err(io::Error::other(format!("bad call line: {l}")));
            }
            calls.push(Call {
                batch: f[0] as usize,
                start_ns: f[1],
                end_ns: f[2],
                digest: f[3],
            });
        }
    }

    pub fn counts(&mut self) -> io::Result<Vec<Vec<usize>>> {
        self.say("counts")?;
        let mut all = Vec::new();
        loop {
            let l = self.line()?;
            if l == "end" {
                return Ok(all);
            }
            let v: Vec<usize> = l
                .split_whitespace()
                .skip(1)
                .map(|x| x.parse().map_err(io::Error::other))
                .collect::<io::Result<_>>()?;
            all.push(v);
        }
    }

    pub fn quit(mut self) -> io::Result<()> {
        self.say("quit")?;
        let status = self.proc.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("index process: {status}")));
        }
        Ok(())
    }
}

/// Check the process's counts: a sample of each batch against the
/// Aho–Corasick baseline over the corpus, and every call's digest against
/// its batch's. Returns the number of wrong calls.
pub fn check(inp: &IndexInputs, counts: &[Vec<usize>], calls: &[Call]) -> u64 {
    let mut wrong_batches = vec![counts.len() != inp.batches.len(); inp.batches.len()];
    // Every 61st pattern of every batch, deduplicated for the automaton.
    let mut sample: Vec<Vec<u8>> = Vec::new();
    let mut slot: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut picks = Vec::new();
    for (b, batch) in inp.batches.iter().enumerate() {
        for i in (0..batch.len()).step_by(61) {
            let p = &batch[i];
            let id = *slot.entry(p.clone()).or_insert_with(|| {
                sample.push(p.clone());
                sample.len() - 1
            });
            picks.push((b, i, id));
        }
    }
    let ac = AhoCorasick::new(&sample.iter().map(|p| to_syms(p)).collect::<Vec<_>>());
    let mut truth = vec![0usize; sample.len()];
    for o in ac.find_all(&to_syms(&inp.corpus)) {
        truth[o.pat] += 1;
    }
    for (b, i, id) in picks {
        if counts.get(b).and_then(|c| c.get(i)) != Some(&truth[id]) {
            wrong_batches[b] = true;
        }
    }
    let digests: Vec<u64> = counts.iter().map(|c| digest(c.iter().copied())).collect();
    calls
        .iter()
        .filter(|c| wrong_batches[c.batch] || digests.get(c.batch) != Some(&c.digest))
        .count() as u64
}

/// Query-pattern bytes of each batch (the index workload's unit of work).
pub fn batch_bytes(inp: &IndexInputs) -> Vec<usize> {
    inp.batches
        .iter()
        .map(|b| b.iter().map(Vec::len).sum())
        .collect()
}
