//! Text-side hot-path throughput, written to `BENCH_text.json`.
//!
//! Measures matching MB/s after the text-side overhaul (DESIGN.md §11),
//! and before it where a pre-overhaul path still exists, for these
//! workloads:
//!
//! * `static1d`   — §4 mixed-length matching: sentinel naming + frozen
//!   tables + session scratch (*after* only: a built matcher keeps no
//!   concurrent tables for a pre-overhaul leg to probe).
//! * `equal_len`  — Theorem 11. *after* = per-level frozen probes;
//!   *before* = the live concurrent-table path (`match_texts_ref`).
//! * `smallalpha` — §5 small-σ matching. *after* = frozen block-tuple
//!   probe into session scratch (`match_text_into`); *before* = the live
//!   probe (`match_text_ref`), which allocates per call.
//! * `streaming`  — chunked cursor: session scratch via `find_all_into`
//!   (*after* only, for the same reason as `static1d`).
//! * `sparse_prefilter` — `find_all` over random bytes where the dictionary
//!   occurs only where planted. *after* = the SWAR candidate prefilter
//!   (DESIGN.md §16) screening windows for KMR verification; *before* =
//!   the same matcher with the prefilter stripped (`set_prefilter(None)`).
//! * `dense_prefilter` — `find_all` over a periodic text saturated with
//!   matches, driving the prefilter into its runtime density bail-out.
//!   *after* must stay within noise of *before*: the bail-out caps the
//!   wasted scan at a fraction of the verification work.
//!
//! Each leg reports sequential MB/s plus pool MB/s at widths 1 / 2 / max.
//!
//! Usage: `text_throughput [out.json] [--check baseline.json]`
//!
//! `PDM_BENCH_SMOKE=1` keeps the full text size (so MB/s stays comparable
//! with a committed full run) but takes best-of-two samples and skips the
//! `before` legs, which exist for documentation, not regression tracking.
//! `--check` compares this run's *after* sequential MB/s per workload
//! against a committed baseline and exits non-zero if any workload lost
//! more than 50 % — wide enough to absorb this host's smoke-vs-full
//! spread (the allocation-heavy equal_len row lands up to ~1.6x apart
//! between modes), tight enough that a structural regression — the
//! prefilter's ~15x sparse win collapsing, a hot path reverting to
//! per-call allocation — still trips it.

use pdm_bench::timing::time_median;
use pdm_core::dict::Sym;
use pdm_core::equal_len::EqualLenMatcher;
use pdm_core::smallalpha::{SmallAlphaMatcher, SmallAlphaOutput, SmallAlphaScratch};
use pdm_core::static1d::{MatchOutput, StaticMatcher};
use pdm_core::TextScratch;
use pdm_pram::Ctx;
use pdm_stream::StreamMatcher;
use pdm_textgen::{strings, Alphabet};
use std::fmt::Write as _;
use std::sync::Arc;

const RUNS_FULL: usize = 3;
const CHUNK: usize = 64 << 10;

fn smoke() -> bool {
    std::env::var_os("PDM_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn widths() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut v = vec![1, 2];
    if !v.contains(&max) {
        v.push(max);
    }
    v
}

fn mbps(bytes: usize, d: std::time::Duration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / d.as_secs_f64()
}

/// `{"1": 12.3, ...}` with widths as keys.
fn json_map(entries: &[(usize, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (w, v)) in entries.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{w}\": {v:.2}");
    }
    s.push('}');
    s
}

/// Pull `workloads.<name>.after.seq_mbps` out of a baseline JSON produced
/// by this binary (hand-rolled to match the hand-rolled writer).
fn extract_after_seq(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"{name}\""))?;
    let rest = &json[at..];
    let rest = &rest[rest.find("\"after\"")?..];
    let rest = &rest[rest.find("\"seq_mbps\": ")? + "\"seq_mbps\": ".len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH_text.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--check" {
            check_path = args.next();
        } else {
            out_path = a;
        }
    }

    // Prime the allocator with a ladder of table-sized blocks. Freeing
    // mmap'd chunks lifts glibc's dynamic mmap threshold, after which the
    // per-call tables the matchers allocate recycle through the heap arena
    // instead of fresh kernel pages — the steady state a long-lived process
    // reaches anyway. Without this, whichever allocation-heavy leg runs
    // first measures page-fault throughput (~2x low), and smoke runs
    // disagree with full runs on legs ordered after a big "before" leg.
    for _ in 0..2 {
        for mb in [4usize, 8, 16, 32, 64] {
            let prime = vec![1u8; mb << 20];
            std::hint::black_box(&prime);
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text_syms: usize = 1 << 20;
    // Smoke takes 2 samples and time_median reports the larger (median of
    // an even count rounds up), biasing toward the warm steady state a
    // full median-of-3 run settles into.
    let runs = if smoke() { 2 } else { RUNS_FULL };

    // Mixed-length workload (static + streaming), pool_baseline's shape.
    let mut r = strings::rng(42);
    let mut text = strings::random_text(&mut r, Alphabet::Bytes, text_syms);
    let pats = strings::excerpt_dictionary(&mut r, &text, 64, 32, 64);
    strings::plant_occurrences(&mut r, &mut text, &pats, 512);
    let eq_pats = strings::equal_len_dictionary(&mut r, Alphabet::Bytes, 16, 64);
    // Small-alphabet workload: DNA text, one equal pattern length.
    let mut dna = strings::random_text(&mut r, Alphabet::Dna, text_syms);
    let sa_pats = strings::excerpt_dictionary(&mut r, &dna, 16, 9, 9);
    strings::plant_occurrences(&mut r, &mut dna, &sa_pats, 256);

    // Sparse-hit prefilter workload: random (non-excerpt) patterns are
    // absent from random bytes except where planted, so nearly every text
    // position is a prefilter miss and verification touches almost nothing.
    let mut sparse_text = strings::random_text(&mut r, Alphabet::Bytes, text_syms);
    let sparse_pats = strings::random_dictionary(&mut r, Alphabet::Bytes, 24, 8, 24);
    strings::plant_occurrences(&mut r, &mut sparse_text, &sparse_pats, 64);
    // Dense-hit prefilter workload: the analyzer accepts a rare-byte engine
    // ('z' is background-rare), but the text is wall-to-wall 'zeta', so the
    // screen saturates and every scan takes the runtime density bail-out
    // back to the unfiltered path.
    let dense_pats = pdm_core::dict::symbolize(&["zeta", "zone", "zinc"]);
    let dense_text: Vec<Sym> = "zeta"
        .bytes()
        .map(u32::from)
        .cycle()
        .take(text_syms)
        .collect();

    let bctx = Ctx::seq();
    let dict = Arc::new(StaticMatcher::build(&bctx, &pats).unwrap());
    let eq = EqualLenMatcher::new(&eq_pats).unwrap();
    let eq_texts = vec![text.clone()];
    let sa = SmallAlphaMatcher::build_with_l(&bctx, &sa_pats, 4, 3).unwrap();
    let sparse_on = StaticMatcher::build(&bctx, &sparse_pats).unwrap();
    let mut sparse_off = StaticMatcher::build(&bctx, &sparse_pats).unwrap();
    sparse_off.set_prefilter(None);
    let dense_on = StaticMatcher::build(&bctx, &dense_pats).unwrap();
    let mut dense_off = StaticMatcher::build(&bctx, &dense_pats).unwrap();
    dense_off.set_prefilter(None);
    eprintln!(
        "sparse_prefilter: {}; dense_prefilter: {}",
        sparse_on.prefilter_decision().describe(),
        dense_on.prefilter_decision().describe()
    );

    let d2 = Arc::clone(&dict);
    let d3 = Arc::clone(&dict);
    let t2 = text.clone();
    let t3 = text.clone();
    let dna2 = dna.clone();

    // Session-lifetime buffers for the "after" legs, reused across runs —
    // exactly how a long-lived session holds them.
    let mut scratch = TextScratch::new();
    let mut mo = MatchOutput::empty();
    let mut sa_scratch = SmallAlphaScratch::new();
    let mut sa_out = SmallAlphaOutput {
        longest_pattern: Vec::new(),
        longest_pattern_len: Vec::new(),
    };
    let (mut sp_on_s, mut sp_off_s, mut dn_on_s, mut dn_off_s) = (
        TextScratch::new(),
        TextScratch::new(),
        TextScratch::new(),
        TextScratch::new(),
    );
    let (mut sp_on_v, mut sp_off_v, mut dn_on_v, mut dn_off_v) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    type Leg<'a> = Box<dyn FnMut(&Ctx) + 'a>;
    let mut legs: Vec<(&str, &str, usize, Leg)> = vec![
        (
            "static1d",
            "after",
            text_syms,
            Box::new(move |ctx: &Ctx| {
                d2.match_into(ctx, &t2, &mut scratch, &mut mo);
                std::hint::black_box(&mo);
            }),
        ),
        (
            "equal_len",
            "after",
            text_syms,
            Box::new(|ctx: &Ctx| {
                std::hint::black_box(eq.match_texts(ctx, &eq_texts));
            }),
        ),
        (
            "equal_len",
            "before",
            text_syms,
            Box::new(|ctx: &Ctx| {
                std::hint::black_box(eq.match_texts_ref(ctx, &eq_texts));
            }),
        ),
        (
            "smallalpha",
            "after",
            text_syms,
            Box::new(|ctx: &Ctx| {
                sa.match_text_into(ctx, &dna, &mut sa_scratch, &mut sa_out);
                std::hint::black_box(&sa_out);
            }),
        ),
        (
            "smallalpha",
            "before",
            text_syms,
            Box::new(|ctx: &Ctx| {
                std::hint::black_box(sa.match_text_ref(ctx, &dna2));
            }),
        ),
        (
            "streaming",
            "after",
            text_syms,
            Box::new(move |ctx: &Ctx| {
                let mut sm = StreamMatcher::new(Arc::clone(&d3));
                let mut out = Vec::new();
                for chunk in t3.chunks(CHUNK) {
                    sm.push_into(ctx, chunk, &mut out);
                }
                std::hint::black_box(out);
            }),
        ),
        (
            "sparse_prefilter",
            "after",
            text_syms,
            Box::new(|ctx: &Ctx| {
                sparse_on.find_all_into(ctx, &sparse_text, &mut sp_on_s, &mut sp_on_v);
                std::hint::black_box(&sp_on_v);
            }),
        ),
        (
            "sparse_prefilter",
            "before",
            text_syms,
            Box::new(|ctx: &Ctx| {
                sparse_off.find_all_into(ctx, &sparse_text, &mut sp_off_s, &mut sp_off_v);
                std::hint::black_box(&sp_off_v);
            }),
        ),
        (
            "dense_prefilter",
            "after",
            text_syms,
            Box::new(|ctx: &Ctx| {
                dense_on.find_all_into(ctx, &dense_text, &mut dn_on_s, &mut dn_on_v);
                std::hint::black_box(&dn_on_v);
            }),
        ),
        (
            "dense_prefilter",
            "before",
            text_syms,
            Box::new(|ctx: &Ctx| {
                dense_off.find_all_into(ctx, &dense_text, &mut dn_off_s, &mut dn_off_v);
                std::hint::black_box(&dn_off_v);
            }),
        ),
    ];

    // name -> (leg -> (seq, par)) preserving declaration order.
    type LegTimes = (String, f64, Vec<(usize, f64)>);
    let mut results: Vec<(String, Vec<LegTimes>)> = Vec::new();
    for (name, leg, bytes, work) in legs.iter_mut() {
        if smoke() && *leg == "before" {
            continue;
        }
        // One untimed warmup so session buffers/allocator pages are as warm
        // in a single smoke sample as in a full median-of-3 run.
        work(&Ctx::seq());
        let seq = mbps(*bytes, time_median(runs, || work(&Ctx::seq())));
        let par: Vec<(usize, f64)> = widths()
            .into_iter()
            .map(|w| {
                let ctx = Ctx::with_threads(w);
                (w, mbps(*bytes, time_median(runs, || work(&ctx))))
            })
            .collect();
        eprintln!("{name}/{leg}: seq {seq:.2} MB/s, par {par:?}");
        match results.iter_mut().find(|(n, _)| n == name) {
            Some((_, legs)) => legs.push((leg.to_string(), seq, par)),
            None => results.push((name.to_string(), vec![(leg.to_string(), seq, par)])),
        }
    }

    let mut sections = Vec::new();
    for (name, legs) in &results {
        let inner: Vec<String> = legs
            .iter()
            .map(|(leg, seq, par)| {
                format!(
                    "\"{leg}\": {{\"seq_mbps\": {seq:.2}, \"par_mbps\": {}}}",
                    json_map(par)
                )
            })
            .collect();
        sections.push(format!("    \"{name}\": {{{}}}", inner.join(", ")));
    }
    let json = format!(
        "{{\n  \"meta\": {{\"host_cpus\": {host_cpus}, \"text_bytes\": {text_syms}, \
         \"runs\": {runs}, \"smoke\": {}, \"note\": \"after = sentinel naming + frozen \
         tables + session scratch; before = the live-table or unfiltered path, \
         where one remains\"}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        smoke(),
        sections.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = check_path {
        let base = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let mut failed = false;
        for (name, legs) in &results {
            let Some((_, cur, _)) = legs.iter().find(|(l, _, _)| l == "after") else {
                continue;
            };
            let Some(want) = extract_after_seq(&base, name) else {
                eprintln!("check: {name} missing from baseline, skipping");
                continue;
            };
            let floor = want * 0.50;
            if *cur < floor {
                eprintln!("check FAIL: {name} after/seq {cur:.2} MB/s < 50% of baseline {want:.2}");
                failed = true;
            } else {
                eprintln!("check ok:   {name} after/seq {cur:.2} MB/s vs baseline {want:.2}");
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
