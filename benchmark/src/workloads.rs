//! The four workloads and the phases every run goes through: set-up, snapshot + cold start,
//! the measured load, verification — and, for a traced run, the per-layer re-walk.
//!
//! Every number is taken from outside the program, by timing calls through `sut`.

use crate::host::peak_rss_mb;
use crate::measure::{median, ms, us, Summary};
use crate::openloop::{paced_schedule, run_closed_loop, run_open_loop, splitmix64, Timing};
use crate::sut::{
    cache_probe, Answer, Counters, Engine, Maintenance, Op, Oracle, Pref, RowId, Service, Spec,
    StructureProbe, Walker, World,
};
use crate::trace::{self_times, Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Rows of the dataset (the paper-default shape at a fifth of the paper's 500k).
pub const DEFAULT_ROWS: usize = 100_000;
/// The dataset is a fixed corpus; `--seed` varies the traffic over it. Between data seeds the
/// skyline of 100k anti-correlated rows — and with it every latency, the set-up time and the
/// tree size — swings by 15–50 %, which no regression bound could be told apart from.
const DATA_SEED: u64 = 42;
/// Cold starts per run, each serving another probe preference as its first answer;
/// `cold_start_ms` is their median. (One probe for all of them made the metric a property of
/// the preference the seed happened to draw: 10–20 % quartile spread over ten seeds.)
const COLD_STARTS: usize = 40;
/// Answers checked against the brute-force oracle per run.
const ORACLE_CHECKS: usize = 8;
/// Leading answers folded into `answer_digest` (and eligible for the oracle): half of what the
/// slowest workload completes in 10 s, so a slow spell of the host does not shorten the digest.
/// They are the only answers a run keeps; the rest are checked as they arrive. `peak_rss_mb`
/// is read when this many requests have been served, so it does not grow with how many more
/// a faster service completes before the time is up.
const DIGEST_ANSWERS: usize = 100;
/// Requests re-walked layer by layer in a traced run, after `PLAIN_REQUESTS` untraced ones
/// (fewer on the stream workload, whose every request also drains a ~50 ms stream).
const TRACE_REQUESTS: usize = 200;
const TRACE_STREAMS: usize = 120;
const PLAIN_REQUESTS: usize = 60;
/// Mixed operations replayed closed-loop (and re-walked) at the start of a traced run.
const TRACE_OPS: usize = 300;

/// The mixed workload: arrivals at this constant rate, a Zipf(θ=1) pool that fits the result
/// cache, 3 % writes, and a read latency limit.
const MIXED_RATE: f64 = 40.0;
const MIXED_POOL: usize = 256;
/// Every 33rd operation is a write (3 %).
const MIXED_WRITE_EVERY: usize = 33;
const MIXED_CLIENTS: usize = 8;
/// A shard rebuilds in the background after this many writes. More than the schedule's own
/// 12 writes can land on one shard: the one rebuild of a run is the one `measure_mixed`
/// starts just before the schedule does. A rebuild takes both cores for ~3 s and a miss
/// costs 2.4× while it runs; with rebuilds triggered by the schedule's writes, 40–70 % of
/// the window was spent rebuilding and every median flipped between the two regimes from
/// run to run (README, "`zipf_mixed` sizing").
const MIXED_MAX_MUTATIONS: u64 = 16;
pub const SLO_MS: f64 = 50.0;
/// A run whose generator dispatched later than this at its 99th percentile is flagged.
const LATE_LIMIT_MS: f64 = 5.0;

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop over distinct preferences (every request a cache miss), batch `serve`.
    Cold {
        clients: usize,
        top_k: Option<usize>,
        per_second: usize,
        at_most: usize,
    },
    /// Open loop over the mixed read/write stream.
    Mixed,
    /// Closed loop, one client, distinct preferences through `serve_streaming`.
    Stream { per_second: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    pub spec: Spec,
    pub load: Load,
    /// Set-ups per untraced run (`setup_s` is their median): as many as ~10 s hold — the
    /// 1-shard hybrid build alone takes 8 s at n = 100k. A fixed count, because a run with
    /// one set-up fewer also peaks ~12 MB lower.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "popular_cold",
        why: "1 shard, distinct preferences over the 10 most frequent values: every answer is an IPO-tree lookup plus a single-fragment merge, never a cache hit",
        spec: Spec {
            engine: Engine::Hybrid,
            shards: 1,
            maintenance: None,
        },
        // Only 72² = 5184 distinct order-3 preferences exist over ten values per dimension
        // under the most-frequent-value template, hence the ceiling.
        load: Load::Cold {
            clients: 1,
            top_k: Some(crate::sut::TOP_K),
            per_second: 450,
            at_most: 4500,
        },
        setups: 1,
    },
    Workload {
        name: "tail_cold",
        why: "2 shards, 2 closed-loop clients, distinct preferences over all values: Adaptive-SFS fallback, packed kernel and a real 2-fragment merge; the tree does ~nothing",
        spec: Spec {
            engine: Engine::Hybrid,
            shards: 2,
            maintenance: None,
        },
        load: Load::Cold {
            clients: 2,
            top_k: None,
            per_second: 450,
            at_most: usize::MAX,
        },
        setups: 2,
    },
    Workload {
        name: "zipf_mixed",
        why: "2 shards, open loop at a constant 40 ops/s, Zipf pool that fits the cache, 3% writes, one background rebuild in flight: hits beside misses, writes beside reads",
        spec: Spec {
            engine: Engine::Hybrid,
            shards: 2,
            maintenance: Some(Maintenance {
                max_mutations: MIXED_MAX_MUTATIONS,
            }),
        },
        load: Load::Mixed,
        setups: 2,
    },
    Workload {
        name: "stream_first_rows",
        why: "2 Adaptive-SFS shards, distinct preferences served through serve_streaming: first row, 10th row, drain - the progressive merge path",
        spec: Spec {
            engine: Engine::AdaptiveSfs,
            shards: 2,
            maintenance: None,
        },
        load: Load::Stream { per_second: 150 },
        setups: 3,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds the traffic: preferences, operations, arrival schedule, which answers are checked.
    /// The dataset is a fixed corpus (see `DATA_SEED`).
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `DEFAULT_ROWS`, or the self-test's 2000.
    pub rows: usize,
    pub out_dir: PathBuf,
    /// `--self-test`: fixed small request counts, every answer checked against the oracle.
    pub self_test: bool,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every measured number by metric name (end-to-end, per-layer and diagnostics alike).
    pub values: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is wrong or invalid (non-empty fails the command).
    pub problems: Vec<String>,
    /// Things a reader should know that do not fail the run.
    pub flags: Vec<String>,
    pub answer_digest: Option<u64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn fail(&mut self, count: u64, what: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.problems.push(what.into());
        }
    }
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut state)
}

/// The generated inputs of one workload.
enum Inputs {
    Prefs(Vec<Pref>),
    Mixed {
        ops: Vec<Op>,
        due: Vec<Duration>,
        /// For an insert at op `i`, the logical row slot it fills.
        insert_slot: Vec<usize>,
    },
}

struct Ready {
    world: World,
    inputs: Inputs,
    service: Service,
    /// Preferences outside the measured set: the first answers of the set-up (the first of
    /// them) and of the cold starts.
    probes: Vec<Pref>,
    dataset_ms: f64,
    workload_ms: f64,
    setup_s: f64,
}

fn request_count(p: &Params, per_second: usize, at_most: usize) -> usize {
    if p.self_test {
        120
    } else {
        ((p.seconds * per_second as f64).ceil() as usize).clamp(DIGEST_ANSWERS, at_most)
    }
}

fn set_up(w: &Workload, p: &Params) -> Result<Ready, String> {
    let started = Instant::now();
    let world = World::generate(p.rows, DATA_SEED);
    let dataset_ms = ms(started.elapsed());
    let generating = Instant::now();
    let query_seed = sub_seed(p.seed, 1);
    let cold_starts = if p.self_test { 3 } else { COLD_STARTS };
    // The probes come after the measured set, from the same distinct draw.
    let prefs_and_probes = |per_second, at_most, top_k| {
        let measured = request_count(p, per_second, at_most);
        let mut prefs = world.distinct_prefs(query_seed, measured + cold_starts, top_k);
        let probes = prefs.split_off(measured);
        (Inputs::Prefs(prefs), probes)
    };
    let (inputs, probes) = match w.load {
        Load::Cold {
            top_k,
            per_second,
            at_most,
            ..
        } => prefs_and_probes(per_second, at_most, top_k),
        Load::Stream { per_second } => prefs_and_probes(per_second, usize::MAX, None),
        Load::Mixed => {
            let (rate, horizon) = if p.self_test {
                (400.0, Duration::from_secs_f64(1.5))
            } else {
                // A traced run spends the other half of its time on the closed-loop replay.
                (
                    MIXED_RATE,
                    Duration::from_secs_f64(if p.trace { p.seconds / 2.0 } else { p.seconds }),
                )
            };
            let mut due = paced_schedule(rate, horizon);
            let replay = if p.trace { TRACE_OPS } else { 0 };
            // A traced run replays the first operations closed-loop, then runs the schedule
            // over the ones after them.
            let ops = world.mixed_ops(
                query_seed,
                due.len() + replay,
                MIXED_POOL,
                MIXED_WRITE_EVERY,
            );
            due.truncate(ops.len() - replay);
            let mut next_slot = world.rows();
            let insert_slot = ops
                .iter()
                .map(|op| {
                    let slot = next_slot;
                    next_slot += matches!(op, Op::Insert { .. }) as usize;
                    slot
                })
                .collect();
            (
                Inputs::Mixed {
                    ops,
                    due,
                    insert_slot,
                },
                world.distinct_prefs(sub_seed(p.seed, 4), cold_starts, None),
            )
        }
    };
    let workload_ms = ms(generating.elapsed());
    let service = Service::build(&world, &w.spec)?;
    service.serve(&probes[0])?;
    Ok(Ready {
        world,
        inputs,
        service,
        probes,
        dataset_ms,
        workload_ms,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

fn sorted_rows(rows: &[RowId]) -> Vec<RowId> {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    rows
}

/// Snapshot + cold start: writes the service's snapshot directory, then once per probe
/// preference loads it and serves the probe, checking the answer against the built service's.
fn cold_start(w: &Workload, p: &Params, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let dir = p
        .out_dir
        .join(format!("tmp-{}-{}-{}", w.name, p.seed, std::process::id()));
    let started = Instant::now();
    let bytes = ready.service.write_snapshots(&dir)?;
    out.set("snapshot.write_ms", ms(started.elapsed()));
    out.set("snapshot.bytes", bytes as f64);
    out.set(
        "snapshot_bytes_per_row",
        bytes as f64 / ready.service.live_rows().max(1) as f64,
    );
    let (mut load_ms, mut cold_ms, mut wrong) = (Vec::new(), Vec::new(), 0u64);
    for probe in &ready.probes {
        let expected = sorted_rows(ready.service.serve(probe)?.rows());
        let started = Instant::now();
        let loaded = Service::from_snapshots(&dir, &w.spec)?;
        load_ms.push(ms(started.elapsed()));
        let answer = loaded.serve(probe)?;
        cold_ms.push(ms(started.elapsed()));
        wrong += (sorted_rows(answer.rows()) != expected) as u64;
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.attempted += cold_ms.len() as u64;
    out.fail(
        wrong,
        format!("{wrong} cold-start answers differ from the built service's"),
    );
    out.set("snapshot.load_ms", median(&load_ms));
    out.set("cold_start_ms", median(&cold_ms));
    out.samples.insert("cold_start_ms", cold_ms.len());
    Ok(())
}

/// `count` distinct indices below `below`, chosen by `seed`.
fn choose(seed: u64, count: usize, below: usize) -> Vec<usize> {
    let mut state = seed;
    let mut chosen = Vec::new();
    while chosen.len() < count.min(below) {
        let i = (splitmix64(&mut state) % below as u64) as usize;
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen
}

/// Oracle-checks `(pref, answer)` pairs on two threads; a disagreement fails the run.
fn check_against_oracle(
    oracle: &Oracle,
    checks: &[(&Pref, &Answer)],
    out: &mut Outcome,
) -> Result<(), String> {
    let halves: Vec<&[(&Pref, &Answer)]> = checks.chunks(checks.len().div_ceil(2).max(1)).collect();
    let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|half| {
                scope.spawn(move || {
                    let mut wrong = 0;
                    for (pref, answer) in half {
                        wrong += (oracle.skyline(pref)? != sorted_rows(answer.rows())) as u64;
                    }
                    Ok(wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an oracle thread panicked"))
            .collect()
    });
    let wrong: u64 = results.into_iter().sum::<Result<u64, String>>()?;
    out.attempted += checks.len() as u64;
    out.samples.insert("oracle_checks", checks.len());
    out.fail(
        wrong,
        format!(
            "{wrong} of {} answers differ from the brute-force skyline",
            checks.len()
        ),
    );
    Ok(())
}

/// One answer of a read-only workload, reduced as it arrives to what the run needs: the
/// structural check is done and the answer itself kept only where the digest and the oracle
/// will want it — the leading `DIGEST_ANSWERS` (all of them in a self-test).
struct Served {
    cache_hit: bool,
    legs: (usize, usize),
    malformed: bool,
    answer: Option<Answer>,
}

impl Served {
    fn of(p: &Params, service: &Service, index: usize, answer: Answer) -> Self {
        Self {
            cache_hit: answer.cache_hit,
            legs: answer.legs(),
            malformed: service.check_answer(&answer).is_err(),
            answer: (p.self_test || index < DIGEST_ANSWERS).then_some(answer),
        }
    }
}

/// What the served requests of a read-only workload add up to.
#[derive(Default)]
struct Tally {
    served: usize,
    hits: usize,
    legs: usize,
    tree_legs: usize,
    malformed: u64,
    kept_prefs: Vec<Pref>,
    kept: Vec<Answer>,
}

impl Tally {
    fn add(&mut self, pref: &Pref, served: Served) {
        self.served += 1;
        self.hits += served.cache_hit as usize;
        self.legs += served.legs.0;
        self.tree_legs += served.legs.1;
        self.malformed += served.malformed as u64;
        if let Some(answer) = served.answer {
            self.kept_prefs.push(pref.clone());
            self.kept.push(answer);
        }
    }
}

/// `VmHWM` when request `DIGEST_ANSWERS` of the measured phase is sent (the end of the phase,
/// if it never gets that far): the set-ups, the cold starts and a fixed number of served
/// requests, however many more the time allows.
#[derive(Default)]
struct RssMark(OnceLock<f64>);

impl RssMark {
    fn at(&self, index: usize) {
        if index == DIGEST_ANSWERS {
            let _ = self.0.set(peak_rss_mb());
        }
    }

    fn record(self, out: &mut Outcome) {
        out.set(
            "peak_rss_mb",
            self.0.into_inner().unwrap_or_else(peak_rss_mb),
        );
    }
}

/// Verification shared by the read-only workloads: the structural checks made as the answers
/// arrived, the kept leading answers into the digest, `ORACLE_CHECKS` seed-chosen ones of
/// them (all of them in a self-test) against the oracle.
fn verify_static(
    p: &Params,
    ready: &Ready,
    tally: &Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    out.fail(
        tally.malformed,
        format!("{} answers hold a duplicate or dead row", tally.malformed),
    );
    let leading = tally.kept.len().min(DIGEST_ANSWERS);
    if leading < DIGEST_ANSWERS && !p.self_test {
        out.flags.push(format!(
            "only {leading} answers completed: answer_digest covers fewer than {DIGEST_ANSWERS}"
        ));
    }
    let mut digest = leading as u64;
    for answer in &tally.kept[..leading] {
        digest = digest.rotate_left(7) ^ ready.service.digest(answer);
    }
    out.answer_digest = Some(digest);
    let chosen = if p.self_test {
        (0..tally.kept.len()).collect()
    } else {
        choose(sub_seed(p.seed, 3), ORACLE_CHECKS, leading)
    };
    let checks: Vec<(&Pref, &Answer)> = chosen
        .iter()
        .map(|&i| (&tally.kept_prefs[i], &tally.kept[i]))
        .collect();
    let oracle = Oracle::of_world(&ready.world, &ready.service);
    check_against_oracle(&oracle, &checks, out)
}

fn latency_metrics(out: &mut Outcome, latency: &Summary, first_row: &Summary, tenth_row: &Summary) {
    out.set("latency_p50_ms", latency.p50);
    out.set("latency_p99_ms", latency.p99);
    out.set("latency_mean_ms", latency.mean);
    out.set("ttfr_p50_ms", first_row.p50);
    out.set("ttfr_p99_ms", first_row.p99);
    out.set("t10_p50_ms", tenth_row.p50);
    flag_thin_tail(out, latency);
}

/// Records the latency sample count, and says so when it cannot support a p99.
fn flag_thin_tail(out: &mut Outcome, latency: &Summary) {
    out.samples.insert("latency", latency.n);
    if !latency.supports_p99() {
        out.flags.push(format!(
            "{} latency samples: fewer than ten lie beyond p99 (p{} = {:.3} ms is the highest supported)",
            latency.n, latency.tail_p, latency.tail
        ));
    }
}

fn counter_metrics(out: &mut Outcome, before: &Counters, after: &Counters) {
    out.set(
        "cache.remapped_hits",
        (after.remapped_hits - before.remapped_hits) as f64,
    );
    out.set(
        "cache.stale_evictions",
        (after.stale_evictions - before.stale_evictions) as f64,
    );
    out.set(
        "flight.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
    out.set("admission.shed", (after.shed - before.shed) as f64);
    out.set("engine.rebuilds", (after.rebuilds - before.rebuilds) as f64);
    out.set(
        "engine.reclaimed_rows",
        (after.reclaimed_rows - before.reclaimed_rows) as f64,
    );
    let refused = (after.shed - before.shed) + (after.deadline_misses - before.deadline_misses);
    out.fail(
        refused,
        format!("{refused} requests shed or past their deadline"),
    );
}

struct ColdSample {
    ms: f64,
    served: Result<Served, String>,
}

/// The measured phase of `popular_cold` / `tail_cold`.
fn measure_cold(
    w: &Workload,
    p: &Params,
    ready: &Ready,
    clients: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let Inputs::Prefs(prefs) = &ready.inputs else {
        unreachable!("cold workloads generate preferences")
    };
    let slots: Vec<OnceLock<ColdSample>> = prefs.iter().map(|_| OnceLock::new()).collect();
    let rss = RssMark::default();
    let before = ready.service.counters();
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let (dispatched, wall) = run_closed_loop(prefs.len(), clients, deadline, |i| {
        rss.at(i);
        let started = Instant::now();
        let answer = ready.service.serve(&prefs[i]);
        let ms = ms(started.elapsed());
        // Off the request's clock (inside the loop's wall time, ~1 % of it).
        let served = answer.map(|answer| Served::of(p, &ready.service, i, answer));
        let _ = slots[i].set(ColdSample { ms, served });
    });
    let after = ready.service.counters();
    rss.record(out);
    out.attempted += dispatched as u64;
    let (mut latencies, mut tally, mut errors) = (Vec::new(), Tally::default(), 0u64);
    for (slot, pref) in slots.into_iter().zip(prefs).take(dispatched) {
        let sample = slot
            .into_inner()
            .expect("every dispatched request left a sample");
        match sample.served {
            Ok(served) => {
                latencies.push(sample.ms);
                tally.add(pref, served);
            }
            Err(_) => errors += 1,
        }
    }
    out.fail(errors, format!("{errors} requests failed"));
    let latency = Summary::of(&latencies);
    latency_metrics(out, &latency, &latency, &latency);
    out.set("throughput_qps", tally.served as f64 / wall.as_secs_f64());
    counter_metrics(out, &before, &after);

    let hit_ratio = tally.hits as f64 / tally.served.max(1) as f64;
    let tree_ratio = tally.tree_legs as f64 / tally.legs.max(1) as f64;
    out.set("cache.hit_ratio", hit_ratio);
    out.set("engine.tree_served_ratio", tree_ratio);
    if tally.hits > 0 {
        out.problems.push(format!(
            "{} cache hits on a workload built to have none",
            tally.hits
        ));
    }
    if w.name == "popular_cold" && tree_ratio < 0.95 {
        out.problems.push(format!(
            "engine.tree_served_ratio = {tree_ratio:.3} < 0.95: the run did not measure the IPO-tree path"
        ));
    }
    verify_static(p, ready, &tally, out)
}

struct StreamSample {
    first_ms: f64,
    tenth_ms: f64,
    done_ms: f64,
    answer: Answer,
}

/// One streamed request: pull one row, pull to the tenth, drain.
fn stream_once(service: &Service, pref: &Pref) -> Result<StreamSample, String> {
    let started = Instant::now();
    let mut stream = service.stream(pref)?;
    let mut pulled = 0;
    let mut first_ms = None;
    while pulled < 10 && stream.next_row()?.is_some() {
        pulled += 1;
        first_ms.get_or_insert_with(|| ms(started.elapsed()));
    }
    // An answer shorter than ten rows reaches its "tenth" row when it ends (and an empty one
    // its first).
    let tenth_ms = ms(started.elapsed());
    let answer = stream.finish()?;
    Ok(StreamSample {
        first_ms: first_ms.unwrap_or(tenth_ms),
        tenth_ms,
        done_ms: ms(started.elapsed()),
        answer,
    })
}

/// The measured phase of `stream_first_rows`.
fn measure_stream(p: &Params, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let Inputs::Prefs(prefs) = &ready.inputs else {
        unreachable!("the stream workload generates preferences")
    };
    let rss = RssMark::default();
    let before = ready.service.counters();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let (mut first_ms, mut tenth_ms, mut done_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tally, mut errors) = (Tally::default(), 0u64);
    for (i, pref) in prefs.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        rss.at(i);
        out.attempted += 1;
        match stream_once(&ready.service, pref) {
            Ok(sample) => {
                first_ms.push(sample.first_ms);
                tenth_ms.push(sample.tenth_ms);
                done_ms.push(sample.done_ms);
                tally.add(pref, Served::of(p, &ready.service, i, sample.answer));
            }
            Err(_) => errors += 1,
        }
    }
    let wall = started.elapsed();
    let after = ready.service.counters();
    rss.record(out);
    out.fail(errors, format!("{errors} streams failed"));
    latency_metrics(
        out,
        &Summary::of(&done_ms),
        &Summary::of(&first_ms),
        &Summary::of(&tenth_ms),
    );
    out.set("throughput_qps", tally.served as f64 / wall.as_secs_f64());
    counter_metrics(out, &before, &after);
    out.set(
        "cache.hit_ratio",
        (after.hits - before.hits) as f64 / tally.served.max(1) as f64,
    );
    verify_static(p, ready, &tally, out)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Miss,
    Write,
}

struct MixedSample {
    kind: Kind,
    ok: bool,
}

/// Shared state of the mixed stream: where each logical row lives.
struct MixedRun<'a> {
    service: &'a Service,
    ops: &'a [Op],
    insert_slot: &'a [usize],
    rows: Mutex<Vec<Option<RowId>>>,
}

impl MixedRun<'_> {
    /// The operation itself — the part that is timed. A read's answer comes back unchecked.
    fn call(&self, i: usize) -> Result<Option<Answer>, String> {
        match &self.ops[i] {
            Op::Read(pref) => self.service.serve(pref).map(Some),
            Op::Insert { numeric, nominal } => {
                let id = self.service.insert(numeric, nominal)?;
                self.rows.lock().expect("row table lock")[self.insert_slot[i]] = Some(id);
                Ok(None)
            }
            Op::Delete { row } => {
                // A delete may run before the insert it names (several clients): then the slot
                // is still empty and the delete is the documented no-op.
                let target = self.rows.lock().expect("row table lock")[*row as usize].take();
                if let Some(id) = target {
                    self.service.delete_clamped(id)?;
                }
                Ok(None)
            }
        }
    }

    /// What `call` returned, verified — after the clock stopped: the structural check takes
    /// every shard's read lock and sorts the answer, several times what a cache hit costs.
    fn sample(&self, called: Result<Option<Answer>, String>) -> MixedSample {
        match called {
            Ok(Some(answer)) => MixedSample {
                kind: if answer.cache_hit {
                    Kind::Hit
                } else {
                    Kind::Miss
                },
                ok: self.service.check_answer(&answer).is_ok(),
            },
            Ok(None) => MixedSample {
                kind: Kind::Write,
                ok: true,
            },
            Err(_) => MixedSample {
                // Which kind failed does not matter: a failure fails the run.
                kind: Kind::Miss,
                ok: false,
            },
        }
    }
}

/// Runs `due.len()` operations starting at `offset` open-loop and folds the timings into
/// the mixed workload's metrics.
fn mixed_open_loop(run: &MixedRun<'_>, offset: usize, due: &[Duration], out: &mut Outcome) {
    let slots: Vec<OnceLock<MixedSample>> = due.iter().map(|_| OnceLock::new()).collect();
    let started = Instant::now();
    let timings: Vec<Timing> = run_open_loop(
        due,
        MIXED_CLIENTS,
        |i| run.call(offset + i),
        |i, called| {
            let _ = slots[i].set(run.sample(called));
        },
    );
    let wall = started.elapsed();
    let samples: Vec<MixedSample> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every scheduled operation ran"))
        .collect();

    out.attempted += samples.len() as u64;
    let errors = samples.iter().filter(|s| !s.ok).count() as u64;
    out.fail(
        errors,
        format!("{errors} mixed operations failed or returned a malformed answer"),
    );
    let (mut reads, mut misses, mut writes, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut hits = 0usize;
    for (sample, timing) in samples.iter().zip(&timings) {
        late.push(ms(timing.late));
        match sample.kind {
            Kind::Write => writes.push(us(timing.service)),
            // A failed read counts at the latency limit, however fast it failed.
            _ if !sample.ok => reads.push(SLO_MS.max(ms(timing.latency))),
            Kind::Hit => {
                hits += 1;
                reads.push(ms(timing.latency));
            }
            Kind::Miss => {
                reads.push(ms(timing.latency));
                misses.push(ms(timing.latency));
            }
        }
    }
    let all = Summary::of(&reads);
    let miss = Summary::of(&misses);
    out.set("latency_p50_ms", miss.p50);
    out.set("latency_p99_ms", all.p99);
    out.set("latency_mean_ms", all.mean);
    // A batch answer's first and tenth rows arrive with the rest of it.
    out.set("ttfr_p50_ms", miss.p50);
    out.set("ttfr_p99_ms", all.p99);
    out.set("t10_p50_ms", miss.p50);
    // Goodput: what the service answered in time — every write, every read within the limit.
    // The offered rate while the service keeps up; it drops as reads pass the limit.
    let in_time = samples
        .iter()
        .zip(&timings)
        .filter(|(s, t)| s.ok && (s.kind == Kind::Write || ms(t.latency) < SLO_MS))
        .count();
    out.set("throughput_qps", in_time as f64 / wall.as_secs_f64());
    flag_thin_tail(out, &all);
    out.samples.insert("latency_p50_ms", miss.n);
    out.samples.insert("writes", writes.len());
    let write = Summary::of(&writes);
    out.set("write_p50_us", write.p50);
    out.set("write_p75_us", write.p75);
    out.set("cache.hit_ratio", hits as f64 / all.n.max(1) as f64);
    out.set("gen.sent", samples.len() as f64);
    out.set(
        "gen.completed",
        samples.iter().filter(|s| s.ok).count() as f64,
    );
    let late_p99 = Summary::of(&late).p99;
    out.set("gen.late_p99_ms", late_p99);
    out.set(
        "gen.slo_miss_ratio",
        reads.iter().filter(|&&l| l >= SLO_MS).count() as f64 / all.n.max(1) as f64,
    );
    if late_p99 > LATE_LIMIT_MS {
        out.flags.push(format!(
            "gen.late_p99_ms = {late_p99:.2} > {LATE_LIMIT_MS}: the generator ran behind its schedule"
        ));
    }
}

/// The preferences of a mixed stream's reads, in stream order.
fn read_prefs(ops: &[Op]) -> impl Iterator<Item = &Pref> {
    ops.iter().filter_map(|op| match op {
        Op::Read(pref) => Some(pref),
        _ => None,
    })
}

/// After the mixed stream has settled: check seed-chosen pool preferences against the oracle
/// over the rows the service now holds live.
fn verify_mixed(p: &Params, ready: &Ready, ops: &[Op], out: &mut Outcome) -> Result<(), String> {
    let reads: Vec<&Pref> = read_prefs(ops).collect();
    let checks = if p.self_test { 24 } else { ORACLE_CHECKS };
    let chosen = choose(sub_seed(p.seed, 3), checks, reads.len());
    let oracle = Oracle::of_live_rows(&ready.service)?;
    let mut answers = Vec::new();
    for &i in &chosen {
        let answer = ready.service.serve(reads[i])?;
        out.fail(
            ready.service.check_answer(&answer).is_err() as u64,
            "a post-quiesce answer holds a duplicate or dead row",
        );
        answers.push(answer);
    }
    let pairs: Vec<(&Pref, &Answer)> = chosen.iter().map(|&i| reads[i]).zip(&answers).collect();
    check_against_oracle(&oracle, &pairs, out)
}

fn measure_mixed(p: &Params, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let Inputs::Mixed {
        ops,
        due,
        insert_slot,
    } = &ready.inputs
    else {
        unreachable!("the mixed workload generates operations")
    };
    let inserts = ops
        .iter()
        .filter(|op| matches!(op, Op::Insert { .. }))
        .count();
    let mut rows: Vec<Option<RowId>> = ready
        .service
        .initial_placement(&ready.world)
        .into_iter()
        .map(Some)
        .collect();
    rows.resize(rows.len() + inserts, None);
    let run = MixedRun {
        service: &ready.service,
        ops,
        insert_slot,
        rows: Mutex::new(rows),
    };
    let before = ready.service.counters();
    let replayed = ops.len() - due.len();
    if replayed > 0 {
        // Its 9 writes stay below the rebuild threshold: no rebuild disturbs the replay.
        trace_mixed_replay(&run, replayed, out)?;
    }
    // One background rebuild per run, in flight when the schedule starts (see
    // `MIXED_MAX_MUTATIONS`).
    ready
        .service
        .start_rebuild(&ready.world, MIXED_MAX_MUTATIONS)?;
    mixed_open_loop(&run, replayed, due, out);
    // A rebuild still in flight when the schedule ends is waited for, and counted.
    if !ready
        .service
        .quiesce(MIXED_MAX_MUTATIONS, Duration::from_secs(20))
    {
        out.problems
            .push("background rebuilds did not settle within 20 s".into());
    }
    // The schedule is a fixed number of operations and the rebuild is over: read the peak
    // before the oracle copies the live rows.
    out.set("peak_rss_mb", peak_rss_mb());
    verify_mixed(p, ready, ops, out)?;
    let after = ready.service.counters();
    counter_metrics(out, &before, &after);
    let rebuilds = after.rebuilds - before.rebuilds;
    if !p.self_test && rebuilds != 1 {
        out.flags.push(format!(
            "{rebuilds} background rebuilds completed (expected the one started before the schedule)"
        ));
    }
    Ok(())
}

/// Medians of the re-walk's spans, by span name.
fn span_medians(out: &mut Outcome, spans: &[Span]) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(&selfs) {
        by_name.entry(span.name).or_default().push(*self_ns as f64);
    }
    let med = |name: &str, scale: f64| by_name.get(name).map_or(0.0, |v| median(v) / scale);
    out.set("canon.key_us", med("canon.key", 1e3));
    out.set("canon.compile_orders_us", med("canon.compile_orders", 1e3));
    out.set(
        "engine.check_servable_us",
        med("engine.check_servable", 1e3),
    );
    out.set("merge.push_ms", med("merge.push", 1e6));
    out.set("merge.merge_ms", med("merge.merge", 1e6));
    let count = |name: &str, key: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let (input, output) = (count("merge.push", "rows"), count("merge.merge", "rows"));
    out.set("merge.input_rows", input);
    out.set("merge.output_rows", output);
    out.set(
        "merge.survivor_ratio",
        if input > 0.0 { output / input } else { 0.0 },
    );
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request" && !s.counts.iter().any(|(k, _)| *k == "cache_hit"))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    out.set("sharded.layers_sum_ms", median(&roots));
    out.samples.insert("traced_requests", roots.len());
}

/// The serve path against the re-walk: miss and hit medians, and what `serve()` spends that
/// the composition of public functions does not. Call after `span_medians`.
fn serve_path_metrics(out: &mut Outcome, miss_ms: &[f64], hit_us: &[f64]) {
    let serve_miss = median(miss_ms);
    out.set("sharded.serve_miss_ms", serve_miss);
    out.set("sharded.serve_hit_us", median(hit_us));
    out.set(
        "sharded.unattributed_ms",
        serve_miss - out.values["sharded.layers_sum_ms"],
    );
}

/// Per-request scatter numbers from the walks.
fn scatter_metrics(out: &mut Outcome, walks: &[crate::sut::Walk]) {
    let walks: Vec<_> = walks.iter().filter(|w| w.legs > 0).collect();
    let sum_ms: Vec<f64> = walks
        .iter()
        .map(|w| w.shard_query_ns.iter().sum::<u64>() as f64 / 1e6)
        .collect();
    let max_ms: Vec<f64> = walks
        .iter()
        .map(|w| w.shard_query_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6)
        .collect();
    let overlap: Vec<f64> = walks
        .iter()
        .map(|w| w.scatter_ns as f64 / w.shard_query_ns.iter().sum::<u64>().max(1) as f64)
        .collect();
    out.set("engine.query_ms", median(&sum_ms));
    out.set("engine.query_max_ms", median(&max_ms));
    out.set("sharded.scatter_overlap_ratio", median(&overlap));
    let (legs, tree): (u64, u64) = walks
        .iter()
        .fold((0, 0), |acc, w| (acc.0 + w.legs, acc.1 + w.tree_legs));
    out.set("engine.tree_served_ratio", tree as f64 / legs.max(1) as f64);
}

/// Structure probes shared by every traced run: what the three methods cost per query over
/// shard 0's rows, what the structures cost to build, the standalone cache, one rebuild.
fn probe_layers(
    w: &Workload,
    ready: &Ready,
    prefs: &[Pref],
    out: &mut Outcome,
) -> Result<(), String> {
    let with_tree = w.spec.engine == Engine::Hybrid;
    let probe = StructureProbe::run(&ready.service, prefs, 20, 2, with_tree)?;
    out.set("ipo.build_ms", probe.ipo_build_ms);
    out.set("ipo.nodes", probe.ipo_nodes as f64);
    out.set("ipo.bytes", probe.ipo_bytes as f64);
    out.set("ipo.set_query_us", probe.ipo_set_query_us);
    out.set("ipo.bitmap_query_us", probe.ipo_bitmap_query_us);
    out.set("ipo.query_stats.nodes_visited", probe.ipo_nodes_visited);
    out.set("ipo.query_stats.set_operations", probe.ipo_set_operations);
    out.set("ipo.query_stats.leaf_results", probe.ipo_leaf_results);
    out.samples
        .insert("ipo_probe_prefs", probe.ipo_prefs as usize);
    out.set("asfs.build_ms", probe.asfs_build_ms);
    out.set("asfs.query_ms", probe.asfs_query_ms);
    out.set("asfs.dominance_tests", probe.asfs_dominance_tests as f64);
    out.set(
        "asfs.template_skyline_ratio",
        probe.asfs_template_skyline_ratio,
    );
    out.set("asfs.affected_ratio", probe.asfs_affected_ratio);
    out.set("asfs.query_skyline_ratio", probe.asfs_query_skyline_ratio);
    out.set("asfs.insert_us", probe.asfs_insert_us);
    out.set("asfs.delete_us", probe.asfs_delete_us);
    out.set("kernel.sfsd_query_ms", probe.sfsd_query_ms);
    out.set(
        "kernel.sfs_dominance_tests",
        probe.sfs_dominance_tests as f64,
    );
    // The paper's ordering, in per-query units over the same preferences and rows.
    out.set("engine.ipo_query_ms", probe.ipo_set_query_us / 1e3);
    out.set("engine.sfsa_query_ms", probe.asfs_query_ms);
    out.set("engine.sfsd_query_ms", probe.sfsd_query_ms);
    let (get_us, insert_us) = cache_probe(&ready.service, prefs)?;
    out.set("cache.get_us", get_us);
    out.set("cache.insert_us", insert_us);
    // A forced rebuild costs as much as the shard's build; only the workload that rebuilds
    // in the background (and whose tail latency it moves) pays for measuring it.
    if w.spec.maintenance.is_some() {
        out.set("engine.rebuild_ms", ready.service.force_rebuild_ms(0)?);
    }
    Ok(())
}

/// Traced run of a cold workload: `PLAIN_REQUESTS` plain serves (the untraced reference),
/// then up to `TRACE_REQUESTS` requests each re-walked through the layers *and* served —
/// in alternating order, so neither side always finds the other's data warm in the CPU cache —
/// then served once more for the hit path.
fn trace_cold(w: &Workload, p: &Params, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let Inputs::Prefs(prefs) = &ready.inputs else {
        unreachable!("cold workloads generate preferences")
    };
    let plain_count = PLAIN_REQUESTS.min(prefs.len() / 3);
    let (plain, traced) = prefs.split_at(plain_count);
    let mut plain_ms = Vec::new();
    for pref in plain {
        let started = Instant::now();
        ready.service.serve(pref)?;
        plain_ms.push(ms(started.elapsed()));
    }
    out.attempted += plain.len() as u64;

    let walker = Walker::new();
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let (mut miss_ms, mut hit_us, mut walks, mut wrong) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    let mut hits = 0usize;
    for (i, pref) in traced.iter().take(TRACE_REQUESTS).enumerate() {
        if Instant::now() >= deadline {
            out.flags.push(format!("traced {i} of {TRACE_REQUESTS} requests before the time limit: counts will not repeat"));
            break;
        }
        tracer.begin_request(i as u32);
        let serve = |miss_ms: &mut Vec<f64>| -> Result<Answer, String> {
            let started = Instant::now();
            let answer = ready.service.serve(pref)?;
            miss_ms.push(ms(started.elapsed()));
            Ok(answer)
        };
        let (walk, answer) = if i % 2 == 0 {
            let walk = walker.walk(&ready.service, pref, &mut tracer)?;
            (walk, serve(&mut miss_ms)?)
        } else {
            let answer = serve(&mut miss_ms)?;
            (walker.walk(&ready.service, pref, &mut tracer)?, answer)
        };
        hits += answer.cache_hit as usize;
        wrong += (sorted_rows(&walk.rows) != sorted_rows(answer.rows())) as u64;
        walks.push(walk);
        let started = Instant::now();
        let again = ready.service.serve(pref)?;
        hit_us.push(us(started.elapsed()));
        wrong += !again.cache_hit as u64;
        out.attempted += 2;
    }
    out.fail(
        wrong,
        format!("{wrong} re-walked answers differ from serve() (or a repeat missed the cache)"),
    );
    span_medians(out, &tracer.spans);
    scatter_metrics(out, &walks);
    out.set("cache.hit_ratio", hits as f64 / walks.len().max(1) as f64);
    serve_path_metrics(out, &miss_ms, &hit_us);
    out.set(
        "trace.overhead_ratio",
        median(&miss_ms) / median(&plain_ms).max(f64::MIN_POSITIVE),
    );
    // The demoted tail, over this run's plain and traced serves (a few hundred samples: the
    // untraced run's result file has it over the whole measured phase).
    plain_ms.extend_from_slice(&miss_ms);
    let tail = Summary::of(&plain_ms).p99;
    out.set("latency_p99_ms", tail);
    out.set("ttfr_p99_ms", tail);
    out.samples.insert("latency", plain_ms.len());
    out.spans = tracer.spans;
    probe_layers(w, ready, &traced[..traced.len().min(100)], out)
}

/// Traced run of the stream workload: plain streams (the untraced reference), plain batch
/// serves (the miss path on this engine configuration), then per request a batch re-walk,
/// the stream's own timeline, and a repeat serve for the hit path.
fn trace_stream(w: &Workload, p: &Params, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let Inputs::Prefs(prefs) = &ready.inputs else {
        unreachable!("the stream workload generates preferences")
    };
    let plain_count = (PLAIN_REQUESTS / 2).min(prefs.len() / 4);
    let (plain_streams, rest) = prefs.split_at(plain_count);
    let (plain_serves, traced) = rest.split_at(plain_count);
    let mut plain_ms = Vec::new();
    for pref in plain_streams {
        plain_ms.push(stream_once(&ready.service, pref)?.done_ms);
    }
    let mut miss_ms = Vec::new();
    for pref in plain_serves {
        let started = Instant::now();
        ready.service.serve(pref)?;
        miss_ms.push(ms(started.elapsed()));
    }
    out.attempted += 2 * plain_count as u64;

    let walker = Walker::new();
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let (mut done_ms, mut first_ms, mut per_row_us, mut ratio, mut hit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut walks, mut wrong) = (Vec::new(), 0u64);
    for (i, pref) in traced.iter().take(TRACE_STREAMS).enumerate() {
        if Instant::now() >= deadline {
            out.flags.push(format!("traced {i} of {TRACE_STREAMS} requests before the time limit: counts will not repeat"));
            break;
        }
        tracer.begin_request(i as u32);
        let walk_started = Instant::now();
        let walk = walker.walk(&ready.service, pref, &mut tracer)?;
        let walk_ms = ms(walk_started.elapsed());
        let root = tracer.open(None, "streaming", "stream");
        let sample = stream_once(&ready.service, pref)?;
        let rows = sample.answer.rows().len();
        tracer.close(root, vec![("rows", rows as u64)]);
        wrong += (sorted_rows(&walk.rows) != sorted_rows(sample.answer.rows())) as u64;
        first_ms.push(sample.first_ms);
        per_row_us.push(sample.done_ms * 1e3 / rows.max(1) as f64);
        ratio.push(sample.done_ms / walk_ms.max(f64::MIN_POSITIVE));
        done_ms.push(sample.done_ms);
        walks.push(walk);
        let started = Instant::now();
        wrong += !ready.service.serve(pref)?.cache_hit as u64;
        hit_us.push(us(started.elapsed()));
        out.attempted += 2;
    }
    out.fail(
        wrong,
        format!(
            "{wrong} streamed answers differ from the batch re-walk (or a repeat missed the cache)"
        ),
    );
    span_medians(out, &tracer.spans);
    scatter_metrics(out, &walks);
    out.set("cache.hit_ratio", 0.0);
    serve_path_metrics(out, &miss_ms, &hit_us);
    out.set("streaming.ttfr_ms", median(&first_ms));
    out.set("streaming.per_row_us", median(&per_row_us));
    out.set("streaming.vs_batch_ratio", median(&ratio));
    out.set(
        "trace.overhead_ratio",
        median(&done_ms) / median(&plain_ms).max(f64::MIN_POSITIVE),
    );
    out.set("latency_p99_ms", Summary::of(&done_ms).p99);
    out.set("ttfr_p99_ms", Summary::of(&first_ms).p99);
    out.samples.insert("latency", done_ms.len());
    out.spans = tracer.spans;
    probe_layers(w, ready, &traced[..traced.len().min(100)], out)
}

/// Traced part of the mixed workload: the first `count` operations closed-loop on one
/// client; every read that missed is re-walked through the layers afterwards.
fn trace_mixed_replay(run: &MixedRun<'_>, count: usize, out: &mut Outcome) -> Result<(), String> {
    let walker = Walker::new();
    let mut tracer = Tracer::new();
    let (mut miss_ms, mut hit_us, mut walks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut failed) = (Duration::ZERO, 0u64);
    for i in 0..count {
        tracer.begin_request(i as u32);
        let started = Instant::now();
        let called = run.call(i);
        let took = started.elapsed();
        let sample = run.sample(called);
        busy += took;
        failed += !sample.ok as u64;
        match (sample.kind, &run.ops[i]) {
            (Kind::Hit, _) => hit_us.push(us(took)),
            (Kind::Miss, Op::Read(pref)) => {
                miss_ms.push(ms(took));
                walks.push(walker.walk(run.service, pref, &mut tracer)?);
            }
            _ => {}
        }
    }
    out.attempted += count as u64;
    out.fail(failed, format!("{failed} replayed operations failed"));
    span_medians(out, &tracer.spans);
    scatter_metrics(out, &walks);
    serve_path_metrics(out, &miss_ms, &hit_us);
    out.set(
        "mixed.closed_loop_ops_per_s",
        count as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    out.spans = tracer.spans;
    Ok(())
}

/// Runs one workload end to end.
pub fn run(w: &Workload, p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let repeats = if p.trace || p.self_test { 1 } else { w.setups };
    let mut ready = set_up(w, p)?;
    let mut setups = vec![ready.setup_s];
    while setups.len() < repeats {
        // Free the previous world and service first: peak memory is one set-up, not two.
        drop(ready);
        ready = set_up(w, p)?;
        setups.push(ready.setup_s);
    }
    out.attempted += setups.len() as u64;
    out.set("setup_s", median(&setups));
    out.samples.insert("setup_s", setups.len());
    out.set("datagen.dataset_ms", ready.dataset_ms);
    out.set("datagen.workload_ms", ready.workload_ms);

    cold_start(w, p, &ready, &mut out)?;
    match (w.load, p.trace) {
        (Load::Cold { clients, .. }, false) => measure_cold(w, p, &ready, clients, &mut out)?,
        (Load::Cold { .. }, true) => trace_cold(w, p, &ready, &mut out)?,
        (Load::Stream { .. }, false) => measure_stream(p, &ready, &mut out)?,
        (Load::Stream { .. }, true) => trace_stream(w, p, &ready, &mut out)?,
        (Load::Mixed, _) => {
            if p.trace {
                // Before the stream mutates anything: which rows the clamped deletes remove
                // depends on when the background swaps land, so only the untouched shard
                // gives the structure probes counts that repeat.
                let Inputs::Mixed { ops, .. } = &ready.inputs else {
                    unreachable!("the mixed workload generates operations")
                };
                let prefs: Vec<Pref> = read_prefs(ops).take(100).cloned().collect();
                probe_layers(w, &ready, &prefs, &mut out)?;
            }
            measure_mixed(p, &ready, &mut out)?;
        }
    }
    // A traced run has no measured phase to mark: its peak is the whole process's.
    out.values.entry("peak_rss_mb").or_insert_with(peak_rss_mb);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn preference_dedup_yields_exactly_the_requested_distinct_count() {
        let world = World::generate(400, 5);
        // 72² = 5184 popular preferences exist; ask for most of them, twice, and for a
        // handful over all values.
        for (count, top_k) in [(4000, Some(10)), (300, None)] {
            let prefs = world.distinct_prefs(9, count, top_k);
            assert_eq!(prefs.len(), count);
            let distinct: HashSet<String> = prefs.iter().map(|p| format!("{p:?}")).collect();
            assert_eq!(distinct.len(), count);
            assert_eq!(
                format!("{:?}", world.distinct_prefs(9, count, top_k)),
                format!("{prefs:?}")
            );
        }
    }

    #[test]
    fn choose_picks_distinct_indices_in_range() {
        let picked = choose(3, 8, 200);
        assert_eq!(picked.len(), 8);
        assert_eq!(picked.iter().collect::<HashSet<_>>().len(), 8);
        assert!(picked.iter().all(|&i| i < 200));
        assert_eq!(choose(3, 8, 5).len(), 5);
        assert_eq!(picked, choose(3, 8, 200));
    }
}
