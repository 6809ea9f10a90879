//! deltabench: one closed-loop workload through the delta path, measured
//! end to end (commit → visible) and, in a separate traced run, layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path deltabench/Cargo.toml -- \
//!     --workload log_point --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One round commits a fixed number of generated source transactions, makes
//! one extraction/ship call and one `Pipeline::sync`; there are no sleeps or
//! timers, so every count repeats exactly for a seed. `--seconds` sets the
//! number of rounds (see `Shape::rounds_per_second`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics, or per-layer metrics with `--trace 1`).
//!
//! Parts of a run that are compared with its measured phase (the extra
//! set-ups behind `setup_s`; the untraced run and the capture replay a
//! traced run is compared with) run as child processes of the same binary,
//! selected by the internal `--pass` flag, so each starts from a fresh heap.

mod gen;
mod rig;
mod trace;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use delta_core::model::DeltaBatch;
use delta_core::stmtcache::CacheStats;
use delta_storage::colbatch::DEFAULT_BLOCK_ROWS;
use delta_storage::{BufferPoolStats, DeltaCodec};
use delta_transport::queue::PersistentQueue;
use delta_warehouse::{audit_and_repair, AuditConfig, SyncReport};

use rig::{dir_bytes, wal_bytes, Kind, Res, Rig, Source};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Idle syncs timed on the drained pipeline; the median is reported.
const IDLE_SYNCS: usize = 21;
/// Passes of the offline codec/spool replay; the median is reported.
const REPLAY_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Set when this process is one pass of a parent run (see [`Pass`]).
    pass: Option<Pass>,
}

/// A part of a run made in a child process of its own, so that every pass
/// starts from a fresh heap and none is timed after another pass's rig was
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// One timed set-up: a sample of `setup_s`.
    Setup,
    /// The untraced measured phase the traced run is compared against.
    Run,
    /// The run's stream replayed with and without capture.
    Capture,
}

impl Pass {
    const ALL: [Pass; 3] = [Pass::Setup, Pass::Run, Pass::Capture];

    fn name(self) -> &'static str {
        match self {
            Pass::Setup => "setup",
            Pass::Run => "run",
            Pass::Capture => "capture",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut tiny, mut pass) =
        (None, 1, 10.0, false, false, None);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => trace = value == "1",
            "--pass" => {
                pass = Some(
                    Pass::ALL
                        .into_iter()
                        .find(|p| p.name() == value)
                        .ok_or_else(|| bad(()))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        pass,
    })
}

/// Program counters read before and after the measured phase.
#[derive(Debug, Clone, Copy)]
struct Counters {
    src_stmts: u64,
    wh_stmts: u64,
    src_pool: BufferPoolStats,
    wh_pool: BufferPoolStats,
    spool_bytes: u64,
    frames: u64,
    wal_bytes: u64,
    stmt_cache: CacheStats,
    rewrite_cache: CacheStats,
}

fn counters(rig: &Rig) -> Res<Counters> {
    Ok(Counters {
        src_stmts: rig.source.db.statements_executed(),
        wh_stmts: rig.wh.db().statements_executed(),
        src_pool: rig.source.db.pool_stats(),
        wh_pool: rig.wh.db().pool_stats(),
        spool_bytes: rig.pipe.queue().spool_bytes(),
        frames: rig.pipe.queue().total(),
        wal_bytes: wal_bytes(&rig.source.db)?,
        stmt_cache: rig.pipe.stmt_cache_stats(),
        rewrite_cache: rig.pipe.rewrite_cache_stats(),
    })
}

/// `SyncReport`s summed over a run.
#[derive(Debug, Default)]
struct SyncTotals {
    batches: u64,
    transactions: u64,
    view_rows: u64,
    decode_ns: u64,
    apply_ns: u64,
    ack_ns: u64,
    busy_ns: u64,
    /// Sum of `apply_nanos × workers_used`: the worker time on offer.
    offered_ns: u64,
    retries: u64,
    deduped: u64,
    quarantined: u64,
    stalls: u64,
}

impl SyncTotals {
    fn add(&mut self, r: &SyncReport) {
        self.batches += r.batches;
        self.transactions += r.apply.transactions;
        self.view_rows += r.apply.view_rows_touched;
        self.decode_ns += r.decode_nanos;
        self.apply_ns += r.apply_nanos;
        self.ack_ns += r.ack_nanos;
        self.busy_ns += r.worker_busy_nanos;
        self.offered_ns += r.apply_nanos * r.workers_used;
        self.retries += r.retries;
        self.deduped += r.deduped;
        self.quarantined += r.quarantined;
        self.stalls += r.stalls;
    }

    /// Batches that had to be retried, deduplicated or parked.
    fn troubled(&self) -> u64 {
        self.retries + self.deduped + self.quarantined + self.stalls
    }
}

/// What one measured phase did.
struct Run {
    rounds: usize,
    txns: u64,
    stmts: u64,
    rows: u64,
    /// Summed round time, from the first BEGIN to the return of the sync.
    wall_s: f64,
    src_txn_us: Vec<f64>,
    fresh_ms: Vec<f64>,
    sync: SyncTotals,
    before: Counters,
    after: Counters,
    /// Queue indices `[first, end)` each round's extraction call published.
    frame_ranges: Vec<(u64, u64)>,
    /// Bytes of baselines/snapshots the extraction path held after each
    /// round, summed (traced runs only).
    baseline_bytes: u64,
    /// FNV-1a hash of every generated statement: the stream's fingerprint.
    stream_hash: u64,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// The measured phase: `rounds` closed-loop rounds.
fn measure(rig: &mut Rig, rounds: usize, mut tracer: Option<&mut Tracer>) -> Res<Run> {
    let shape = rig.source.shape();
    let before = counters(rig)?;
    let mut run = Run {
        rounds,
        txns: 0,
        stmts: 0,
        rows: 0,
        wall_s: 0.0,
        src_txn_us: Vec::with_capacity(rounds * shape.txns_per_round),
        fresh_ms: Vec::with_capacity(rounds * shape.txns_per_round),
        sync: SyncTotals::default(),
        before,
        after: before,
        frame_ranges: Vec::with_capacity(rounds),
        baseline_bytes: 0,
        stream_hash: 0xcbf2_9ce4_8422_2325,
    };
    let mut commits = Vec::with_capacity(shape.txns_per_round);
    for round in 0..rounds {
        let r = round as u32;
        // Generate the round's SQL before the clock starts.
        let txns: Vec<(Vec<String>, u64)> = (0..shape.txns_per_round)
            .map(|_| rig.source.next_txn())
            .collect();
        for s in txns.iter().flat_map(|(stmts, _)| stmts) {
            run.stream_hash = fnv1a(run.stream_hash, s.as_bytes());
        }
        let start = Instant::now();
        let span = tracer.as_mut().map(|t| t.open("round", start, r));
        commits.clear();
        for (stmts, rows) in &txns {
            let t0 = Instant::now();
            rig.source.run_txn(stmts, Some(*rows))?;
            let t1 = Instant::now();
            run.src_txn_us.push(secs(t0, t1) * 1e6);
            commits.push(t1);
            run.txns += 1;
            run.stmts += stmts.len() as u64;
            run.rows += rows;
            if let Some(t) = tracer.as_mut() {
                t.record("txn", t0, t1, span, r);
            }
        }
        let first = rig.pipe.queue().total();
        let s0 = Instant::now();
        rig.ship()?;
        let s1 = Instant::now();
        run.frame_ranges.push((first, rig.pipe.queue().total()));
        let report = rig.sync()?;
        let s2 = Instant::now();
        run.sync.add(&report);
        run.fresh_ms
            .extend(commits.iter().map(|&c| secs(c, s2) * 1e3));
        run.wall_s += secs(start, s2);
        if let Some(t) = tracer.as_mut() {
            t.record("ship", s0, s1, span, r);
            t.record("sync", s1, s2, span, r);
            if let Some(idx) = span {
                t.close(idx, s2);
            }
            run.baseline_bytes += dir_bytes(&rig.extract_dir);
        }
    }
    run.after = counters(rig)?;
    Ok(run)
}

/// Linear-interpolated percentile `p` (0..=100) of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run, setup_s: f64, peak_mb: f64) -> Vec<Metric> {
    let rows = run.rows as f64;
    vec![
        ("setup_s", setup_s, "s"),
        ("e2e_rows_per_s", ratio(rows, run.wall_s), "rows/s"),
        ("freshness_p50_ms", percentile(&run.fresh_ms, 50.0), "ms"),
        ("freshness_p90_ms", percentile(&run.fresh_ms, 90.0), "ms"),
        ("src_txn_p50_us", percentile(&run.src_txn_us, 50.0), "us"),
        ("src_txn_p90_us", percentile(&run.src_txn_us, 90.0), "us"),
        (
            "spool_bytes_per_row",
            ratio(
                (run.after.spool_bytes - run.before.spool_bytes) as f64,
                rows,
            ),
            "B/row",
        ),
        ("peak_rss_mb", peak_mb, "MiB"),
    ]
}

/// Exact counts of a run: two runs with one seed must print the same line.
/// Warehouse pool misses are left out: the apply workers share the
/// warehouse pool concurrently, so which of them misses first varies from
/// run to run once the pool evicts.
fn counts_line(run: &Run) -> String {
    let (b, a) = (&run.before, &run.after);
    format!(
        "# counts {{\"stream\": \"{:016x}\", \"rounds\": {}, \"rows\": {}, \"src_stmts\": {}, \"wh_stmts\": {}, \"spool_bytes\": {}, \"frames\": {}, \"src_pool_misses\": {}}}",
        run.stream_hash,
        run.rounds,
        run.rows,
        a.src_stmts - b.src_stmts,
        a.wh_stmts - b.wh_stmts,
        a.spool_bytes - b.spool_bytes,
        a.frames - b.frames,
        a.src_pool.misses - b.src_pool.misses,
    )
}

/// Codec and spool timings from an offline replay of the run's own frames.
struct Replay {
    encode_ns_per_row: f64,
    decode_ns_per_row: f64,
    append_ns_per_byte: f64,
}

/// Re-read the measured phase's spool frames from a copy of the spool, then
/// time `DeltaBatch::from_bytes`, `DeltaBatch::to_bytes_with` and
/// `PersistentQueue::enqueue_all` (grouped as each round published them)
/// into a scratch spool.
fn replay(run: &Run, spool: &Path, dir: &Path) -> Res<Replay> {
    std::fs::create_dir_all(dir)?;
    let copy = dir.join("spool-copy.q");
    std::fs::copy(spool, &copy)?;
    let all = PersistentQueue::open(&copy)?.dequeue_up_to(u64::MAX)?;
    let groups: Vec<Vec<Vec<u8>>> = run
        .frame_ranges
        .iter()
        .map(|&(a, b)| {
            all.iter()
                .filter(|(i, _)| (a..b).contains(i))
                .map(|(_, p)| p.clone())
                .collect()
        })
        .collect();
    let frames: Vec<&Vec<u8>> = groups.iter().flatten().collect();
    let rows = run.rows.max(1) as f64;
    let (mut dec, mut enc, mut app) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..REPLAY_PASSES {
        let t = Instant::now();
        let batches = frames
            .iter()
            .map(|f| DeltaBatch::from_bytes(f))
            .collect::<Result<Vec<_>, _>>()?;
        dec.push(t.elapsed().as_nanos() as f64 / rows);
        let t = Instant::now();
        for b in &batches {
            black_box(b.to_bytes_with(DeltaCodec::default(), DEFAULT_BLOCK_ROWS));
        }
        enc.push(t.elapsed().as_nanos() as f64 / rows);
        let path = dir.join(format!("append-{pass}.q"));
        let q = PersistentQueue::open(&path)?;
        let t = Instant::now();
        for g in groups.iter().filter(|g| !g.is_empty()) {
            q.enqueue_all(g)?;
        }
        let ns = t.elapsed().as_nanos() as f64;
        app.push(ratio(ns, q.spool_bytes() as f64));
    }
    Ok(Replay {
        encode_ns_per_row: median(&enc),
        decode_ns_per_row: median(&dec),
        append_ns_per_byte: median(&app),
    })
}

/// Capture overhead per source transaction: the run's generated stream
/// replayed, with no extraction or sync in between, on two sources side by
/// side in one process: one with the workload's capture armed and a control
/// without it (a plain session; archive mode off). Both are seeded and
/// replayed transaction by transaction in alternating order, so host noise
/// and the age of their files hit the pair alike. Returns the median of the
/// paired differences and the statements executed.
fn capture_overhead_us(args: &Args, dir: &Path, rounds: usize) -> Res<(f64, u64)> {
    let open = |name: &str, captured: bool| {
        Source::open(args.kind, &dir.join(name), args.seed, args.tiny, captured)
    };
    let mut pair = [open("capture", true)?, open("control", false)?];
    let seeds = [pair[0].seed_txns(), pair[1].seed_txns()];
    for (i, (a, b)) in seeds[0].iter().zip(&seeds[1]).enumerate() {
        let txns = [a, b];
        for k in [i % 2, 1 - i % 2] {
            pair[k].run_txn(txns[k], None)?;
        }
    }
    let (mut diffs, mut stmts) = (Vec::new(), 0);
    for i in 0..rounds * pair[0].shape().txns_per_round {
        let mut us = [0.0; 2];
        for k in [i % 2, 1 - i % 2] {
            let (txn, rows) = pair[k].next_txn();
            let t = Instant::now();
            pair[k].run_txn(&txn, Some(rows))?;
            us[k] = t.elapsed().as_secs_f64() * 1e6;
            stmts += txn.len() as u64;
        }
        diffs.push(us[0] - us[1]);
    }
    Ok((median(&diffs), stmts))
}

fn pct_change(from: f64, to: f64) -> f64 {
    ratio(to - from, from) * 100.0
}

/// Mean of the last tenth of `v` over the mean of its first tenth.
fn growth(v: &[f64]) -> f64 {
    let tenth = (v.len() / 10).max(1);
    ratio(mean(&v[v.len() - tenth..]), mean(&v[..tenth]))
}

fn per_layer(
    work: &Path,
    rig: &Rig,
    run: &Run,
    tracer: &Tracer,
    untraced: &PassOut,
    traced: &[Metric],
    capture_overhead_us: f64,
) -> Res<Vec<Metric>> {
    // Idle cost on the drained pipeline.
    let mut idle = Vec::with_capacity(IDLE_SYNCS);
    for _ in 0..IDLE_SYNCS {
        let t = Instant::now();
        let r = rig.sync()?;
        idle.push(t.elapsed().as_secs_f64() * 1e6);
        if r.batches != 0 {
            return Err("an idle sync applied batches".into());
        }
    }
    let tables: Vec<&str> = rig.source.tables.iter().map(|s| s.as_str()).collect();
    let t = Instant::now();
    let audit = audit_and_repair(
        &rig.source.db,
        &rig.pipe,
        &rig.wh,
        &tables,
        &AuditConfig::default(),
    )?;
    let audit_ms = t.elapsed().as_secs_f64() * 1e3;
    if audit.diverged() || !audit.converged() {
        return Err(format!("the audit found divergence: {audit:?}").into());
    }
    let spool = work.join("b").join("queue.q");
    let rep = replay(run, &spool, &work.join("replay"))?;

    let (b, a, s) = (&run.before, &run.after, &run.sync);
    let rows = run.rows as f64;
    let rounds = run.rounds as f64;
    let ms = |v: Vec<u64>| v.into_iter().map(|ns| ns as f64 / 1e6).collect::<Vec<_>>();
    let ship_ms = ms(tracer.durations("ship"));
    let sync_ms = ms(tracer.durations("sync"));
    let round_self_us: Vec<f64> = tracer
        .self_times("round")
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let miss = |x: &BufferPoolStats, y: &BufferPoolStats| {
        ratio(
            (y.misses - x.misses) as f64,
            (y.accesses() - x.accesses()) as f64,
        )
    };
    let hit = |x: &CacheStats, y: &CacheStats| {
        let (h, m) = (y.hits - x.hits, y.misses - x.misses);
        ratio(h as f64, (h + m) as f64)
    };
    let overhead = |name: &str| {
        let traced = traced.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        Ok::<_, Box<dyn std::error::Error>>(pct_change(untraced.get(name)?, traced))
    };
    Ok(vec![
        (
            "engine.src_stmts_per_txn",
            ratio((a.src_stmts - b.src_stmts) as f64, run.txns as f64),
            "stmts/txn",
        ),
        (
            "engine.src_wal_bytes_per_row",
            ratio((a.wal_bytes - b.wal_bytes) as f64, rows),
            "B/row",
        ),
        (
            "engine.wh_stmts_per_row",
            ratio((a.wh_stmts - b.wh_stmts) as f64, rows),
            "stmts/row",
        ),
        (
            "storage.src_pool_miss_ratio",
            miss(&b.src_pool, &a.src_pool),
            "ratio",
        ),
        (
            "storage.wh_pool_miss_ratio",
            miss(&b.wh_pool, &a.wh_pool),
            "ratio",
        ),
        (
            "storage.wh_pool_evictions",
            (a.wh_pool.evictions - b.wh_pool.evictions) as f64,
            "count",
        ),
        (
            "core.capture_overhead_us_per_txn",
            capture_overhead_us,
            "us",
        ),
        ("core.ship_ms_per_round", mean(&ship_ms), "ms"),
        ("core.ship_growth_ratio", growth(&ship_ms), "ratio"),
        (
            "core.baseline_bytes_per_round",
            run.baseline_bytes as f64 / rounds,
            "B",
        ),
        ("core.encode_ns_per_row", rep.encode_ns_per_row, "ns/row"),
        ("core.decode_ns_per_row", rep.decode_ns_per_row, "ns/row"),
        (
            "transport.frames_per_round",
            (a.frames - b.frames) as f64 / rounds,
            "frames",
        ),
        (
            "transport.append_ns_per_byte",
            rep.append_ns_per_byte,
            "ns/B",
        ),
        ("warehouse.sync_ms_per_round", mean(&sync_ms), "ms"),
        (
            "warehouse.decode_ns_per_row",
            ratio(s.decode_ns as f64, rows),
            "ns/row",
        ),
        (
            "warehouse.apply_ns_per_row",
            ratio(s.apply_ns as f64, rows),
            "ns/row",
        ),
        (
            "warehouse.ack_ns_per_row",
            ratio(s.ack_ns as f64, rows),
            "ns/row",
        ),
        (
            "warehouse.worker_occupancy",
            ratio(s.busy_ns as f64, s.offered_ns as f64),
            "ratio",
        ),
        (
            "warehouse.txns_per_round",
            s.transactions as f64 / rounds,
            "txns",
        ),
        (
            "warehouse.view_rows_per_row",
            ratio(s.view_rows as f64, rows),
            "rows/row",
        ),
        ("warehouse.idle_sync_us", median(&idle), "us"),
        ("warehouse.idle_audit_ms", audit_ms, "ms"),
        ("warehouse.retries", s.retries as f64, "count"),
        ("warehouse.deduped", s.deduped as f64, "count"),
        ("warehouse.quarantined", s.quarantined as f64, "count"),
        (
            "sql.stmt_cache_hit_ratio",
            hit(&b.stmt_cache, &a.stmt_cache),
            "ratio",
        ),
        (
            "sql.rewrite_cache_hit_ratio",
            hit(&b.rewrite_cache, &a.rewrite_cache),
            "ratio",
        ),
        ("driver.round_self_us", mean(&round_self_us), "us"),
        (
            "trace.overhead_rows_per_s_pct",
            overhead("e2e_rows_per_s")?,
            "%",
        ),
        (
            "trace.overhead_freshness_p50_pct",
            overhead("freshness_p50_ms")?,
            "%",
        ),
        (
            "trace.overhead_src_txn_p50_pct",
            overhead("src_txn_p50_us")?,
            "%",
        ),
    ])
}

/// Set up a rig and run the measured phase, then apply the correctness
/// gate. Returns the set-up seconds with the rig and run.
fn setup_and_measure(
    args: &Args,
    dir: &Path,
    rounds: usize,
    tracer: Option<&mut Tracer>,
) -> Res<(f64, Rig, Run)> {
    let t = Instant::now();
    let mut rig = Rig::setup(args.kind, dir, args.seed, args.tiny)?;
    let setup_s = t.elapsed().as_secs_f64();
    let run = measure(&mut rig, rounds, tracer)?;
    rig.gate()?;
    if run.sync.troubled() != 0 {
        return Err(format!("sync reported trouble: {:?}", run.sync).into());
    }
    Ok((setup_s, rig, run))
}

struct Outcome {
    attempted: u64,
    metrics: Vec<Metric>,
    /// The exact-count line of a measured phase.
    counts: Option<String>,
}

/// What a child pass printed as its result: `attempted` and the metrics.
struct PassOut {
    attempted: u64,
    metrics: Vec<(String, f64)>,
}

impl PassOut {
    /// Parse a result line as [`result_line`] writes it.
    fn parse(line: &str) -> Option<PassOut> {
        let rest = line.split_once("\"attempted\": ")?.1;
        let attempted = rest[..rest.find(',')?].parse().ok()?;
        let tag = "\": {\"value\": ";
        let metrics = line
            .match_indices(tag)
            .map(|(i, _)| {
                let name = &line[line[..i].rfind('"')? + 1..i];
                let value = &line[i + tag.len()..];
                Some((name.to_string(), value[..value.find(',')?].parse().ok()?))
            })
            .collect::<Option<_>>()?;
        Some(PassOut { attempted, metrics })
    }

    fn get(&self, name: &str) -> Res<f64> {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .ok_or_else(|| format!("a pass did not report {name}").into())
    }
}

/// Run `pass` of this run in a child process and wait for it.
fn run_pass(args: &Args, pass: Pass) -> Res<PassOut> {
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", args.kind.name(), "--seed", &seed])
        .args(["--seconds", &seconds, "--pass", pass.name()]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match PassOut::parse(last) {
        Some(p) if out.status.success() => Ok(p),
        _ => Err(format!("the {} pass failed: {last}", pass.name()).into()),
    }
}

fn bench(args: &Args, work: &Path) -> Res<Outcome> {
    let shape = args.kind.shape(args.tiny);
    let rounds = (args.seconds * shape.rounds_per_second).round().max(1.0) as usize;
    let dir = work.join("b");
    match (args.pass, args.trace) {
        (Some(Pass::Setup), _) => {
            let t = Instant::now();
            let rig = Rig::setup(args.kind, &dir, args.seed, args.tiny)?;
            let setup_s = t.elapsed().as_secs_f64();
            drop(rig);
            Ok(Outcome {
                attempted: 1,
                metrics: vec![("setup_s", setup_s, "s")],
                counts: None,
            })
        }
        (Some(Pass::Capture), _) => {
            let (us, stmts) = capture_overhead_us(args, &dir, rounds)?;
            Ok(Outcome {
                attempted: stmts,
                metrics: vec![("capture_overhead_us", us, "us")],
                counts: None,
            })
        }
        (Some(Pass::Run), _) | (None, false) => {
            // Every `setup_s` sample is the first set-up of its process: the
            // extra ones run in child processes before the measured phase.
            let mut setups = Vec::with_capacity(SETUPS);
            if args.pass.is_none() {
                for _ in 1..SETUPS {
                    setups.push(run_pass(args, Pass::Setup)?.get("setup_s")?);
                }
            }
            let (setup_s, rig, run) = setup_and_measure(args, &dir, rounds, None)?;
            setups.push(setup_s);
            let peak_mb = peak_rss_mb();
            drop(rig);
            Ok(Outcome {
                attempted: run.stmts + run.sync.batches,
                metrics: end_to_end(&run, median(&setups), peak_mb),
                counts: Some(counts_line(&run)),
            })
        }
        (None, true) => {
            // The untraced comparison run and the capture replay each run in
            // a fresh process of their own; so does this traced pass.
            let untraced = run_pass(args, Pass::Run)?;
            let capture = run_pass(args, Pass::Capture)?;
            let mut tracer = Tracer::new(Instant::now());
            let (setup_s, rig, run) = setup_and_measure(args, &dir, rounds, Some(&mut tracer))?;
            let traced = end_to_end(&run, setup_s, peak_rss_mb());
            let metrics = per_layer(
                work,
                &rig,
                &run,
                &tracer,
                &untraced,
                &traced,
                capture.get("capture_overhead_us")?,
            )?;
            let spans = work.parent().unwrap_or(work).join(format!(
                "spans-{}-{}.jsonl",
                args.kind.name(),
                args.seed
            ));
            tracer.write(&spans)?;
            println!("# spans written to {}", spans.display());
            Ok(Outcome {
                attempted: untraced.attempted + capture.attempted + run.stmts + run.sync.batches,
                metrics,
                counts: Some(counts_line(&run)),
            })
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("deltabench: {e}");
            std::process::exit(2);
        }
    };
    let work: PathBuf = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("deltabench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    // Keep the program's own scratch files (audit snapshots) inside the
    // working directory. Set before any thread starts.
    if let Ok(abs) = std::fs::canonicalize(&tmp) {
        std::env::set_var("TMPDIR", abs);
    }
    let outcome = bench(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(o) => {
            if let Some(counts) = &o.counts {
                println!("{counts}");
            }
            for (name, value, unit) in &o.metrics {
                println!("# {name} = {value:.4} {unit}");
            }
            println!("{}", result_line(true, o.attempted.max(1), 0, &o.metrics));
        }
        Err(e) => {
            eprintln!("deltabench: {} failed: {e}", args.kind.name());
            println!("{}", result_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}
