//! The traced replay: after the traced end-to-end run, the same inputs go
//! through each layer's public functions in this process, one span around
//! every call, and the per-layer metrics are derived from those spans and
//! from the layers' own counters.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use pdm_core::{PrefilterDecision, StaticMatcher, TextScratch};
use pdm_dict::{DictStore, Snapshot, SnapshotPath};
use pdm_index::{lcp, sa, BatchOptions, CorpusIndex};
use pdm_pram::{CostModel, Ctx};
use pdm_stream::proto::{self, FrameDecoder, Hello};
use pdm_stream::service::{Event, ServiceConfig, SessionOptions, ShardedService};
use pdm_stream::{StreamMatch, StreamMatcher};

use crate::client;
use crate::inputs::{to_syms, IndexInputs, StreamInputs};
use crate::report::Report;
use crate::serve::{ChurnScript, ServeSpec, COMMIT_EVERY};
use crate::stats;
use crate::trace::{self, Tracer};

const MIB: f64 = (1 << 20) as f64;

/// Calls made before counting allocation events (scratch buffers grow on
/// the first calls by design).
const WARM_CALLS: usize = 8;

fn dur_ns(tr: &Tracer, from: usize) -> Vec<u64> {
    tr.spans()[from..].iter().map(|s| s.end - s.start).collect()
}

fn total_ms(tr: &Tracer, from: usize) -> f64 {
    dur_ns(tr, from).iter().sum::<u64>() as f64 / 1e6
}

/// Sum of `(rounds, work)` over cost phases whose name starts with `prefix`.
fn phase_sum(cost: &CostModel, prefix: &str) -> (u64, u64) {
    cost.phases()
        .iter()
        .filter(|p| p.name.starts_with(prefix))
        .fold((0, 0), |(r, w), p| (r + p.rounds, w + p.work))
}

/// Chunk `k` of the endless stream over `text`.
fn chunk_of(text: &[u8], chunk: usize, k: usize) -> &[u8] {
    let per = text.len() / chunk;
    let j = k % per;
    &text[j * chunk..(j + 1) * chunk]
}

/// `FrameDecoder::feed`/`next_frame` over the client bytes of `chunks`
/// chunks, fed in 64 KiB reads as a socket would deliver them.
fn replay_decode(tr: &mut Tracer, r: &mut Report, text: &[u8], chunk: usize, chunks: usize) {
    let mut wire = Vec::with_capacity(chunks * (chunk + 5) + 32);
    let hello = proto::encode_hello(&Hello {
        resume_offset: 0,
        ack_every: 1,
    });
    client::frame(&mut wire, proto::TAG_HELLO, &hello);
    for k in 0..chunks {
        client::frame(&mut wire, proto::TAG_CHUNK, chunk_of(text, chunk, k));
    }
    let mut dec = FrameDecoder::new();
    let from = tr.spans().len();
    for (i, piece) in wire.chunks(64 << 10).enumerate() {
        tr.span("proto.decode", i as u64, |_| {
            dec.feed(piece);
            while let Ok(Some(f)) = dec.next_frame() {
                black_box(f);
            }
        });
    }
    let us = total_ms(tr, from) * 1e3;
    r.metric(
        "proto.decode_us_per_mb",
        us / (wire.len() as f64 / MIB),
        tr.spans().len() - from,
        "FrameDecoder::feed + next_frame, 64 KiB reads",
    );
}

/// `encode_match` + `write_frame` over every match of the replayed chunks.
fn replay_encode(tr: &mut Tracer, r: &mut Report, per_chunk: &[Vec<StreamMatch>]) {
    let mut buf = Vec::with_capacity(1 << 16);
    let from = tr.spans().len();
    for (k, ms) in per_chunk.iter().enumerate() {
        tr.span("proto.encode", k as u64, |_| {
            buf.clear();
            for m in ms {
                proto::write_frame(&mut buf, proto::TAG_MATCH, &proto::encode_match(m))
                    .expect("write to a Vec");
            }
            black_box(&buf);
        });
    }
    let n: usize = per_chunk.iter().map(Vec::len).sum();
    let ns = total_ms(tr, from) * 1e6;
    r.metric(
        "proto.encode_ns_per_match",
        if n == 0 { 0.0 } else { ns / n as f64 },
        n,
        "encode_match + write_frame",
    );
}

/// `StreamMatcher::push_into` per chunk; returns each chunk's matches and
/// its push time (ns).
fn replay_push<D: pdm_stream::StreamDict>(
    tr: &mut Tracer,
    sm: &mut StreamMatcher<D>,
    ctx: &Ctx,
    chunk: &[u32],
    k: usize,
    out: &mut Vec<Vec<StreamMatch>>,
) -> u64 {
    let mut found = Vec::new();
    tr.span("stream.push_into", k as u64, |_| {
        sm.push_into(ctx, chunk, &mut found)
    });
    let s = tr.spans().last().expect("just pushed");
    out.push(found);
    s.end - s.start
}

fn push_metrics(r: &mut Report, push_ns: &[u64], bytes: usize) {
    let mut us: Vec<f64> = push_ns.iter().map(|&n| n as f64 / 1e3).collect();
    stats::sort(&mut us);
    r.metric(
        "stream.push_us_per_mb",
        us.iter().sum::<f64>() / (bytes as f64 / MIB),
        us.len(),
        "StreamMatcher::push_into",
    );
    let q = stats::highest_supported(us.len()).unwrap_or(50.0).min(99.0);
    r.metric(
        "stream.push_p99_us",
        stats::percentile(&us, q),
        us.len(),
        format!("p{q} supported"),
    );
}

/// Static dictionary workloads: build, decode, find, push, encode and the
/// in-process sharded service, over `chunks` chunks of the stream.
pub fn replay_static(
    tr: &mut Tracer,
    r: &mut Report,
    inp: &StreamInputs,
    spec: &ServeSpec,
    chunks: usize,
    workers: usize,
) {
    let pats: Vec<Vec<u32>> = inp.patterns.iter().map(|p| to_syms(p)).collect();
    let syms: Vec<Vec<u32>> = (0..chunks)
        .map(|k| to_syms(chunk_of(&inp.text, spec.chunk, k)))
        .collect();
    let mib = (chunks * spec.chunk) as f64 / MIB;

    let bctx = Ctx::par();
    let from = tr.spans().len();
    let m = tr
        .span("dict.build", 0, |_| StaticMatcher::build(&bctx, &pats))
        .expect("dictionary builds");
    r.metric(
        "dict.build_ms",
        total_ms(tr, from),
        1,
        "StaticMatcher::build, Ctx::par",
    );
    r.metric(
        "pram.dict_build_work",
        phase_sum(&bctx.cost, "dict/").1 as f64,
        1,
        "dict/* phase work",
    );
    let decision = m.prefilter_decision();
    r.metric(
        "prefilter.active",
        f64::from(u8::from(!matches!(
            decision,
            PrefilterDecision::Disabled(_)
        ))),
        1,
        decision.describe(),
    );

    replay_decode(tr, r, &inp.text, spec.chunk, chunks);

    // static1d: find_all_into per chunk, counters and PRAM phases.
    let sctx = Ctx::seq();
    let mut scratch = TextScratch::new();
    let mut out = Vec::new();
    for s in syms.iter().take(WARM_CALLS) {
        m.find_all_into(&sctx, s, &mut scratch, &mut out);
    }
    sctx.cost.reset();
    let s0 = m.stats();
    let from = tr.spans().len();
    for (k, s) in syms.iter().enumerate() {
        tr.span("static1d.find_all_into", k as u64, |_| {
            m.find_all_into(&sctx, s, &mut scratch, &mut out)
        });
    }
    let s1 = m.stats();
    let syms_n = (chunks * spec.chunk) as f64;
    r.metric(
        "static1d.find_us_per_mb",
        total_ms(tr, from) * 1e3 / mib,
        chunks,
        "StaticMatcher::find_all_into",
    );
    r.metric(
        "static1d.lookups_per_sym",
        (s1.table_lookups - s0.table_lookups) as f64 / syms_n,
        chunks,
        "table probes per text symbol",
    );
    r.metric(
        "static1d.alloc_events",
        (s1.alloc_events - s0.alloc_events) as f64,
        chunks,
        format!("after {WARM_CALLS} warm-up calls"),
    );
    let (p0, p1) = (s0.prefilter_counters, s1.prefilter_counters);
    let scanned = (p1.scans - p0.scans) as f64 * spec.chunk as f64;
    r.metric(
        "prefilter.candidates_per_mb",
        (p1.candidates - p0.candidates) as f64 / mib,
        chunks,
        "",
    );
    r.metric(
        "prefilter.windows_per_mb",
        (p1.windows - p0.windows) as f64 / mib,
        chunks,
        "",
    );
    r.metric(
        "prefilter.verified_frac",
        if scanned > 0.0 {
            (p1.verified_syms - p0.verified_syms) as f64 / scanned
        } else {
            0.0
        },
        chunks,
        "verified / scanned symbols",
    );
    r.metric(
        "prefilter.bailouts",
        (p1.bailouts - p0.bailouts) as f64,
        chunks,
        "",
    );
    let (rounds, work) = phase_sum(&sctx.cost, "text/");
    r.metric(
        "pram.text_rounds_per_call",
        rounds as f64 / chunks as f64,
        chunks,
        "text/* phases",
    );
    r.metric(
        "pram.text_work_per_sym",
        work as f64 / syms_n,
        chunks,
        "text/* phases",
    );

    // stream: push_into with the carry, as a session does.
    let m = Arc::new(m);
    let mut sm = StreamMatcher::new(Arc::clone(&m));
    let pctx = Ctx::seq();
    let mut per_chunk = Vec::with_capacity(chunks);
    let push_ns: Vec<u64> = syms
        .iter()
        .enumerate()
        .map(|(k, s)| replay_push(tr, &mut sm, &pctx, s, k, &mut per_chunk))
        .collect();
    push_metrics(r, &push_ns, chunks * spec.chunk);
    replay_encode(tr, r, &per_chunk);

    // service: push → Progress through an in-process sharded service with
    // the server's worker count, minus the push's own matching time.
    let svc = ShardedService::start(
        Arc::clone(&m),
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    );
    let sess = svc.open_with(SessionOptions {
        start_offset: 0,
        progress: true,
    });
    let round_trip = |tr: &mut Tracer, name: &'static str, k: usize, data: Vec<u32>| {
        let from = tr.spans().len();
        tr.span(name, k as u64, |_| {
            sess.push(data).expect("service alive");
            while let Some(ev) = sess.next_event() {
                if matches!(ev, Event::Progress(_) | Event::Failed(_)) {
                    break;
                }
            }
        });
        dur_ns(tr, from)[0]
    };
    for (k, s) in syms.iter().enumerate() {
        round_trip(tr, "service.push_to_progress", k, s.clone());
    }
    // The hand-off alone: one-symbol chunks, whose own matching time (taken
    // in-process on the same cursor state) is subtracted per chunk.
    let mut probe = StreamMatcher::new(Arc::clone(&m));
    let mut found = Vec::new();
    let mut handoff = Vec::with_capacity(chunks);
    for k in 0..chunks {
        let one = vec![u32::from(b'a')];
        let t = std::time::Instant::now();
        probe.push_into(&pctx, &one, &mut found);
        let own = t.elapsed().as_nanos() as f64;
        let rt = round_trip(tr, "service.handoff", k, one) as f64;
        handoff.push((rt - own) / 1e3);
    }
    drop(sess.close());
    svc.shutdown();
    r.metric(
        "service.handoff_p50_us",
        stats::median(&handoff),
        handoff.len(),
        "Session::push -> Progress of a 1-symbol chunk, minus its push_into",
    );
}

/// The churn workload: sidecar load, the store driven through the run's
/// commit script beside a stream, and both snapshot paths' find cost.
pub fn replay_churn(
    tr: &mut Tracer,
    r: &mut Report,
    inp: &StreamInputs,
    spec: &ServeSpec,
    master_log: &Path,
    work: &Path,
    chunks: usize,
) -> std::io::Result<()> {
    let syms: Vec<Vec<u32>> = (0..chunks)
        .map(|k| to_syms(chunk_of(&inp.text, spec.chunk, k)))
        .collect();
    let snap_path = crate::serve::snap_of(master_log);
    let bytes = std::fs::read(&snap_path)?;
    let ctx = Ctx::seq();
    let mut load = Vec::new();
    for i in 0..3 {
        let from = tr.spans().len();
        let s = tr.span("dict.snapshot_from_bytes", i, |_| {
            Snapshot::from_bytes(&ctx, &bytes)
        });
        s.map_err(|e| std::io::Error::other(e.to_string()))?;
        load.push(total_ms(tr, from));
    }
    r.metric(
        "dict.snapshot_load_ms",
        stats::median(&load),
        3,
        "Snapshot::from_bytes, median of 3",
    );

    let log = work.join("replay.pdml");
    std::fs::copy(master_log, &log)?;
    std::fs::copy(&snap_path, crate::serve::snap_of(&log))?;
    let io = |e: pdm_dict::StoreError| std::io::Error::other(e.to_string());
    let mut store = tr
        .span("dict.open", 0, |_| DictStore::open(&log))
        .map_err(io)?;
    let boot = tr
        .span("dict.boot_snapshot", 0, |_| store.boot_snapshot(&ctx))
        .map_err(io)?;

    let script = ChurnScript {
        pool: &inp.pool,
        bulk: &inp.bulk,
    };
    // The hydrating commit, the bulk batch, then two cycles of the pool:
    // a fixed script, so the commit counts repeat exactly.
    let n_commits = 2 + 2 * inp.pool.len();
    let every = (COMMIT_EVERY / spec.chunk as u64) as usize;
    let mut sm = StreamMatcher::new(boot.snapshot);
    let pctx = Ctx::seq();
    let (mut inc, mut full, mut adoptions) = (0u32, 0u32, 0u32);
    let (mut first, mut full_ms, mut inc_ms) = (0.0, 0.0, Vec::new());
    let mut per_chunk = Vec::with_capacity(chunks);
    let mut push_ns = Vec::with_capacity(chunks);
    let mut next = 0usize;
    for (k, s) in syms.iter().enumerate() {
        if next < n_commits && k == next * every {
            let (adds, removes) = script.ops(next);
            for p in &removes {
                tr.span("dict.stage_remove", next as u64, |_| {
                    store.stage_remove(&to_syms(p))
                })
                .map_err(io)?;
            }
            for p in &adds {
                tr.span("dict.stage_add", next as u64, |_| {
                    store.stage_add(&to_syms(p))
                })
                .map_err(io)?;
            }
            let from = tr.spans().len();
            let out = tr
                .span("dict.commit", next as u64, |_| store.commit(&ctx))
                .map_err(io)?;
            let ms = total_ms(tr, from);
            match (next, out.path) {
                (0, _) => first = ms,
                (_, SnapshotPath::FullRebuild) => full_ms = ms,
                _ => inc_ms.push(ms),
            }
            match out.path {
                SnapshotPath::FullRebuild => full += 1,
                _ => inc += 1,
            }
            sm.swap_dict(out.snapshot);
            adoptions += 1;
            next += 1;
        }
        push_ns.push(replay_push(tr, &mut sm, &pctx, s, k, &mut per_chunk));
    }
    r.metric(
        "dict.first_commit_ms",
        first,
        1,
        "commit 0: hydrates the store",
    );
    r.metric("dict.commit_ms.full", full_ms, 1, "bulk batch");
    r.metric(
        "dict.commit_ms.incremental",
        if inc_ms.is_empty() {
            0.0
        } else {
            stats::median(&inc_ms)
        },
        inc_ms.len(),
        "median",
    );
    r.metric("dict.incremental_commits", f64::from(inc), 1, "");
    r.metric("dict.full_rebuilds", f64::from(full), 1, "");
    r.metric("dict.epoch_adoptions", f64::from(adoptions), 1, "");
    push_metrics(r, &push_ns, chunks * spec.chunk);
    replay_encode(tr, r, &per_chunk);
    replay_decode(tr, r, &inp.text, spec.chunk, chunks);

    // Find cost of the final (incremental) snapshot and of a fresh static
    // build of the same patterns, over the same chunks.
    let fin = Arc::clone(sm.dict());
    let live = store.live_patterns();
    let st = Snapshot::build_static(&ctx, fin.epoch(), live)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let n_find = chunks.min(64);
    let mut scratch = TextScratch::new();
    let mut out = Vec::new();
    for (name, metric, snap) in [
        (
            "dict.find_all_into.incremental",
            "dict.find_us_per_mb.incremental",
            &*fin,
        ),
        (
            "dict.find_all_into.static",
            "dict.find_us_per_mb.static",
            &st,
        ),
    ] {
        let from = tr.spans().len();
        for (k, s) in syms.iter().take(n_find).enumerate() {
            tr.span(name, k as u64, |_| {
                snap.find_all_into(&ctx, s, &mut scratch, &mut out)
            });
        }
        let mib = (n_find * spec.chunk) as f64 / MIB;
        r.metric(
            metric,
            total_ms(tr, from) * 1e3 / mib,
            n_find,
            "Snapshot::find_all_into",
        );
    }
    Ok(())
}

/// The index workload: suffix array, LCP, then one pass of query batches.
pub fn replay_index(tr: &mut Tracer, r: &mut Report, inp: &IndexInputs) {
    let ctx = Ctx::par();
    let text = to_syms(&inp.corpus);
    let from = tr.spans().len();
    let sa = tr.span("index.build_suffix_array", 0, |_| {
        sa::build_suffix_array(&ctx, &text)
    });
    r.metric(
        "index.sa_ms",
        total_ms(tr, from),
        1,
        "sa::build_suffix_array, Ctx::par",
    );
    let from = tr.spans().len();
    let lcp = tr.span("index.build_lcp", 0, |_| lcp::build_lcp(&ctx, &text, &sa));
    r.metric("index.lcp_ms", total_ms(tr, from), 1, "lcp::build_lcp");
    let idx = CorpusIndex { text, sa, lcp };
    let batches: Vec<Vec<Vec<u32>>> = inp
        .batches
        .iter()
        .map(|b| b.iter().map(|p| to_syms(p)).collect())
        .collect();
    let opts = BatchOptions::default();
    let from = tr.spans().len();
    for (b, batch) in batches.iter().enumerate() {
        tr.span("index.query_batch", b as u64, |_| {
            black_box(idx.query_batch(&ctx, batch, &opts));
        });
    }
    let n: usize = batches.iter().map(Vec::len).sum();
    r.metric(
        "index.query_us_per_pattern",
        total_ms(tr, from) * 1e3 / n as f64,
        batches.len(),
        "CorpusIndex::query_batch, count mode, merged",
    );
}

/// Share of the replay's wall time (its first span's start to its last
/// span's end) that no layer span covers. `from` indexes the replay's
/// first span.
pub fn unattributed(tr: &Tracer, from: usize) -> f64 {
    let spans = &tr.spans()[from..];
    let start = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end).max().unwrap_or(0);
    trace::unattributed_pct(spans, start, end)
}
