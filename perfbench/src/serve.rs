//! The serve workload: an in-process `snod-serve` daemon with an on-disk
//! checkpoint directory, 16 D3 tenants of 4 leaves, and one load
//! generator speaking raw wire frames over one connection.
//!
//! * Phase A is an open loop at a fixed rate. Each reading is timed
//!   from when it was due, so a stall counts against every reading it
//!   delays.
//! * Phase B is a closed loop that keeps a per-tenant in-flight window
//!   below the queue capacity, so the daemon never sheds: its ack rate
//!   is the capacity.
//! * The streams are then finished and drained, and every served
//!   escalation is checked against an untimed in-process `LiveRuntime`
//!   reference fed the same readings.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use snod_core::{D3Node, D3Payload, Detection, DetectorBackend};
use snod_engine::{DetectorEngine, IngestBuffer, LiveRuntime, NodeId};
use snod_persist::{ByteWriter, Persist};
use snod_serve::wire::{encode_frame, FrameDecoder, Msg};
use snod_serve::{serve, ServeConfig, ServerHandle, TenantSpec};

use crate::layers;
use crate::trace::{self, Timed};
use crate::util::{
    median, mix, quantile, quantiles, reading, repeat_setup, windowed_quantiles, Fnv,
};
use crate::{Metric, Mode, Outcome, SETUP_BUDGET_S};

const TENANTS: usize = 16;
const LEAVES: usize = 4;
/// Phase A offered load, readings per second over all tenants.
const OPEN_RATE: f64 = 6_000.0;
/// Phase B in-flight readings per tenant (below the queue capacity).
const WINDOW: u64 = 128;
const SPIKE_EVERY: u64 = 32;
/// Shares of `--seconds` spent in phase A and phase B.
const PHASE_A: f64 = 0.55;
const PHASE_B: f64 = 0.45;
/// Phase A spans of due time, and phase B spans of wall time, whose
/// figures are reported by their median: a host slow spell that covers
/// a few spans moves only those.
const WINDOWS: usize = 12;
/// Phase B ramp excluded from the capacity figure.
const RAMP_S: f64 = 0.3;
/// The generator fell behind when its lateness p99 exceeds this share
/// of the ack p99 it measures: the tail is then its own, not the
/// daemon's.
const BEHIND_SHARE: f64 = 0.25;

fn spec() -> TenantSpec {
    TenantSpec {
        leaves: LEAVES,
        fanouts: vec![2, 2],
        ..TenantSpec::default()
    }
}

fn value(seed: u64, tenant: usize, leaf: usize, seq: u64) -> f64 {
    reading(seed, (tenant * LEAVES + leaf) as u64, seq, SPIKE_EVERY)
}

/// Phase A schedule: reading `(tenant, leaf, seq)` is due this many
/// seconds after the phase starts (waves in order, tenants round-robin).
fn due_s(tenant: usize, leaf: usize, seq: u64) -> f64 {
    (seq as f64 * (TENANTS * LEAVES) as f64 + (tenant * LEAVES + leaf) as f64) / OPEN_RATE
}

struct Daemon {
    handle: ServerHandle,
    stream: TcpStream,
    dec: FrameDecoder,
}

/// Reads frames until `done` has seen what it waits for.
fn read_until(stream: &mut TcpStream, dec: &mut FrameDecoder, mut done: impl FnMut(Msg) -> bool) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        while let Some(msg) = dec.next_frame().expect("well-formed frame") {
            if let Msg::Error { code, message } = msg {
                panic!("daemon rejected a set-up frame ({code}): {message}");
            }
            if done(msg) {
                return;
            }
        }
        let n = stream.read(&mut buf).expect("read set-up replies");
        assert!(n > 0, "daemon closed the connection during set-up");
        dec.feed(&buf[..n]);
    }
}

/// Starts a daemon and opens every tenant; returns it with the timed
/// part of the set-up: `serve()` plus every Hello→HelloOk. The wait for
/// the accept loop to pick up the connection (it polls every 20 ms, so
/// this is either ~0 or ~20 ms, at random) is left out.
fn start(dir: &Path) -> (Daemon, f64) {
    let t0 = Instant::now();
    let handle = serve(ServeConfig {
        checkpoint_dir: Some(dir.to_path_buf()),
        tenant: spec(),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let started = t0.elapsed().as_secs_f64();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut dec = FrameDecoder::new();
    stream
        .write_all(&encode_frame(&Msg::Ping))
        .expect("send ping");
    read_until(&mut stream, &mut dec, |m| m == Msg::Pong);
    let t1 = Instant::now();
    let hellos: Vec<u8> = (0..TENANTS)
        .flat_map(|t| {
            encode_frame(&Msg::Hello {
                tenant: format!("t{t}"),
                subscribe: true,
            })
        })
        .collect();
    stream.write_all(&hellos).expect("send hellos");
    let mut ok = 0;
    read_until(&mut stream, &mut dec, |m| {
        ok += matches!(m, Msg::HelloOk { .. }) as usize;
        ok == TENANTS
    });
    let setup = started + t1.elapsed().as_secs_f64();
    (
        Daemon {
            handle,
            stream,
            dec,
        },
        setup,
    )
}

/// State the receiver publishes to the generator.
struct Shared {
    /// Per tenant: readings acknowledged as received (sum over leaves).
    acked: Vec<AtomicU64>,
    finished: AtomicU64,
    stop: AtomicBool,
}

/// Everything the receiver saw.
#[derive(Default)]
struct RecvLog {
    /// Phase A `(due s, received-ack latency ms)` per reading.
    ack_ms: Vec<(f64, f64)>,
    /// Phase A `(due s, durable-ack latency ms)` per reading.
    durable_ms: Vec<(f64, f64)>,
    /// Escalation frames received.
    escalation_frames: u64,
    /// Per tenant: digest of every escalation received.
    escalation_digest: Vec<Digest>,
    /// `(tenant, detection key, arrival s)` of escalations that may come
    /// from a phase A wave (kept for their latency).
    escalations: Vec<(usize, u64, f64)>,
    ack_frames: u64,
    /// `(seconds since phase A start, readings acked so far)`, at most
    /// one entry per millisecond, so its size follows the run's length
    /// and not the host's speed.
    acked_series: Vec<(f64, u64)>,
    errors: u64,
    received: Vec<Vec<u64>>,
}

/// Reads and decodes server frames until told to stop.
fn receive(
    mut stream: TcpStream,
    mut dec: FrameDecoder,
    shared: Arc<Shared>,
    generator: Thread,
    t0: Instant,
    waves_a: u64,
    leaf_index: BTreeMap<u32, usize>,
) -> RecvLog {
    let mut log = RecvLog {
        received: vec![vec![0; LEAVES]; TENANTS],
        escalation_digest: vec![Digest::default(); TENANTS],
        ..RecvLog::default()
    };
    let period = spec().reading_period_ns;
    let mut durable = vec![vec![0u64; LEAVES]; TENANTS];
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut buf = vec![0u8; 64 * 1024];
    let mut total = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
        let now = t0.elapsed().as_secs_f64();
        while let Ok(Some(msg)) = dec.next_frame() {
            match msg {
                Msg::Ack { handle, acks } => {
                    let t = handle as usize;
                    log.ack_frames += 1;
                    for (node, recv, dur) in acks {
                        let l = leaf_index[&node];
                        let latency = |seq: u64| {
                            let due = due_s(t, l, seq);
                            (due, (now - due) * 1e3)
                        };
                        let prev = log.received[t][l];
                        log.ack_ms.extend((prev..recv.min(waves_a)).map(latency));
                        total += recv.saturating_sub(prev);
                        log.received[t][l] = log.received[t][l].max(recv);
                        let prev = durable[t][l];
                        log.durable_ms.extend((prev..dur.min(waves_a)).map(latency));
                        durable[t][l] = durable[t][l].max(dur);
                    }
                    shared.acked[t].store(log.received[t].iter().sum(), Ordering::SeqCst);
                    if log.acked_series.last().is_none_or(|l| now - l.0 >= 1e-3) {
                        log.acked_series.push((now, total));
                    }
                    generator.unpark();
                }
                Msg::Escalation {
                    handle,
                    node,
                    time_ns,
                    level,
                    value,
                } => {
                    let (t, k) = (handle as usize, key(node, time_ns, level, &value));
                    log.escalation_frames += 1;
                    log.escalation_digest[t].add(k);
                    // A detection is never earlier than its reading.
                    if time_ns / period <= waves_a {
                        log.escalations.push((t, k, now));
                    }
                }
                Msg::FinishOk { .. } => {
                    shared.finished.fetch_add(1, Ordering::SeqCst);
                }
                Msg::Error { .. } => log.errors += 1,
                _ => {}
            }
        }
    }
    log
}

/// Order-independent digest of a multiset of detection keys: their
/// count and the wrapping sum of their mixed hashes.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Digest(u64, u64);

impl Digest {
    fn add(&mut self, key: u64) {
        self.0 += 1;
        self.1 = self.1.wrapping_add(mix(key));
    }
}

/// Hash of one detection: node, stream time, tier and value bits.
fn key(node: u32, time_ns: u64, level: u8, value: &[f64]) -> u64 {
    let mut h = Fnv::default();
    h.u64(node as u64);
    h.u64(time_ns);
    h.u64(level as u64);
    value.iter().for_each(|v| h.u64(v.to_bits()));
    h.0
}

/// One tenant's reference run: the digest of its detections, and the
/// wave whose slice produced each detection of the first waves.
struct Reference {
    digest: Digest,
    waves: BTreeMap<u64, u64>,
    bytes: u64,
    messages: u64,
    readings: u64,
}

/// Replays tenant `t`'s readings (`totals` per leaf) through a
/// `LiveRuntime` exactly as a daemon worker runs it: one slice per
/// complete wave as its readings arrive, then, once the streams are
/// finished, a drain to quiescence. Detections of waves up to
/// `timed_waves` are mapped to their wave. `traced` records each slice as
/// a `tenant.slice` span.
fn reference<A: DetectorEngine<D3Payload> + Send>(
    mut rt: LiveRuntime<D3Payload, A>,
    dets: impl Fn(&A) -> &[Detection],
    seed: u64,
    t: usize,
    totals: &[u64],
    timed_waves: u64,
    traced: bool,
) -> (Reference, LiveRuntime<D3Payload, A>, IngestBuffer) {
    let leaves = rt.topology().leaves().to_vec();
    let mut buf = IngestBuffer::new(&leaves);
    let period = spec().reading_period_ns;
    let complete = totals.iter().copied().min().unwrap_or(0);
    let mut seen = vec![0usize; rt.topology().node_count()];
    let mut out = Reference {
        digest: Digest::default(),
        waves: BTreeMap::new(),
        bytes: 0,
        messages: 0,
        readings: totals.iter().sum(),
    };
    for w in 0..=complete {
        let stop = if w < complete {
            for (l, &node) in leaves.iter().enumerate() {
                buf.push(node, w, vec![value(seed, t, l, w)]);
            }
            (w + 1) * period - 1
        } else {
            for (l, &node) in leaves.iter().enumerate() {
                for seq in complete..totals[l] {
                    buf.push(node, seq, vec![value(seed, t, l, seq)]);
                }
                buf.finish(node, totals[l]);
            }
            u64::MAX
        };
        let span = traced.then(|| trace::open("tenant.slice", w)).flatten();
        rt.run_slice(&mut buf, u64::MAX, stop);
        if let Some(s) = span {
            s.close();
        }
        for (node, engine) in rt.engines() {
            for d in &dets(engine)[seen[node.index()]..] {
                let k = key(node.0, d.time_ns, d.level, &d.value);
                out.digest.add(k);
                if w <= timed_waves {
                    out.waves.entry(k).or_insert(w);
                }
            }
            seen[node.index()] = dets(engine).len();
        }
    }
    out.bytes = rt.stats().bytes;
    out.messages = rt.stats().messages;
    (out, rt, buf)
}

fn d3_dets(node: &D3Node) -> &[Detection] {
    &node.detections
}

fn timed_dets(node: &Timed<D3Node>) -> &[Detection] {
    &node.0.detections
}

fn plain_runtime() -> LiveRuntime<D3Payload, D3Node> {
    spec().build_runtime().expect("tenant runtime")
}

fn traced_runtime() -> LiveRuntime<D3Payload, Timed<D3Node>> {
    let spec = spec();
    let backend = spec.d3_backend().expect("d3 recipe");
    LiveRuntime::new(
        spec.topology().expect("topology"),
        spec.sim_config(),
        |n, t| Timed(backend.make_engine(n, t)),
    )
}

/// The load generator's side of the connection: encodes readings into
/// a batch and writes it, keeping a copy of every byte sent when traced
/// (for the decode replay).
struct Generator {
    stream: TcpStream,
    leaves: Vec<NodeId>,
    seed: u64,
    batch: Vec<u8>,
    sent: Option<Vec<u8>>,
}

impl Generator {
    /// Encodes reading `seq` of tenant `t`'s leaf `l` into the batch.
    fn push(&mut self, t: usize, l: usize, seq: u64, id: u64) {
        let msg = Msg::Reading {
            handle: t as u32,
            node: self.leaves[l].0,
            seq,
            value: vec![value(self.seed, t, l, seq)],
        };
        let frame = trace::time("wire.encode", id, || encode_frame(&msg));
        if let Some(s) = &mut self.sent {
            s.extend_from_slice(&frame);
        }
        self.batch.extend_from_slice(&frame);
    }

    /// Writes the batch; false when it was empty.
    fn flush(&mut self) -> bool {
        if self.batch.is_empty() {
            return false;
        }
        self.stream.write_all(&self.batch).expect("send readings");
        self.batch.clear();
        true
    }
}

/// Phase A: sends every reading of the first `waves` waves at its due
/// time. Returns each reading's lateness (ms) and the queue depth
/// sampled every 5 ms.
fn open_loop(
    gen: &mut Generator,
    handle: &ServerHandle,
    t0: Instant,
    waves: u64,
) -> (Vec<f64>, Vec<f64>) {
    let per_wave = (TENANTS * LEAVES) as u64;
    let split = |i: u64| {
        let rest = (i % per_wave) as usize;
        (rest / LEAVES, rest % LEAVES, i / per_wave)
    };
    let (mut late_ms, mut depth, mut next_sample) = (Vec::new(), Vec::new(), 0.0);
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    let mut i = 0u64;
    while i < waves * per_wave {
        let now = t0.elapsed().as_secs_f64();
        if now >= next_sample {
            depth.push(handle.stats().queued as f64);
            next_sample = now + 0.005;
        }
        let span = trace::open("gen.send", i);
        while i < waves * per_wave {
            let (t, l, seq) = split(i);
            let due = due_s(t, l, seq);
            if due > now {
                break;
            }
            late_ms.push((now - due) * 1e3);
            gen.push(t, l, seq, i);
            i += 1;
        }
        gen.flush();
        if let Some(s) = span {
            s.close();
        }
        let (t, l, seq) = split(i);
        let wait = due_s(t, l, seq) - t0.elapsed().as_secs_f64();
        if i < waves * per_wave && wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
    (late_ms, depth)
}

/// Phase B: keeps [`WINDOW`] readings in flight per tenant, continuing
/// each tenant's streams after wave `waves`, until `until` seconds after
/// `t0`. Returns the readings sent per tenant in this phase.
fn closed_loop(
    gen: &mut Generator,
    shared: &Shared,
    t0: Instant,
    waves: u64,
    until: f64,
) -> [u64; TENANTS] {
    let base = waves * LEAVES as u64;
    let mut sent_b = [0u64; TENANTS];
    while t0.elapsed().as_secs_f64() < until {
        for (t, sent) in sent_b.iter_mut().enumerate() {
            let acked = shared.acked[t].load(Ordering::SeqCst);
            while base + *sent - acked < WINDOW {
                let k = *sent;
                gen.push(
                    t,
                    (k % LEAVES as u64) as usize,
                    waves + k / LEAVES as u64,
                    base + k,
                );
                *sent += 1;
            }
        }
        if !gen.flush() {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
    sent_b
}

pub fn run(workload: &str, seed: u64, seconds: f64, mode: Mode, out: &Path) -> Option<Outcome> {
    if workload != "serve-d3" {
        return None;
    }
    let leaves: Vec<NodeId> = spec().topology().expect("topology").leaves().to_vec();
    let leaf_index: BTreeMap<u32, usize> =
        leaves.iter().enumerate().map(|(i, n)| (n.0, i)).collect();
    let dir = |rep: usize| out.join(format!("serve-{}-{rep}", std::process::id()));
    if mode == Mode::Setup {
        let (mut rep, mut setups) = (0, Vec::new());
        let (_, daemon) = repeat_setup(3, 40, SETUP_BUDGET_S, || {
            let _ = std::fs::remove_dir_all(dir(rep));
            let (daemon, secs) = start(&dir(rep));
            rep += 1;
            setups.push(secs);
            daemon
        });
        drop(daemon);
        (0..rep).for_each(|r| drop(std::fs::remove_dir_all(dir(r))));
        return Some(Outcome::setup(median(setups)));
    }
    let traced = mode == Mode::Traced;
    let ckpt_dir = dir(0);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (daemon, _) = start(&ckpt_dir);
    let Daemon {
        handle,
        stream,
        dec,
    } = daemon;
    if traced {
        trace::install();
    }

    let snap0 = snod_obs::snapshot();
    let shared = Arc::new(Shared {
        acked: (0..TENANTS).map(|_| AtomicU64::new(0)).collect(),
        finished: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });
    let waves_a = (OPEN_RATE * seconds * PHASE_A / (TENANTS * LEAVES) as f64) as u64;
    let t0 = Instant::now() + Duration::from_millis(5);
    let receiver = {
        let (read_half, shared, me) = (
            stream.try_clone().expect("clone stream"),
            Arc::clone(&shared),
            std::thread::current(),
        );
        let leaf_index = leaf_index.clone();
        std::thread::spawn(move || receive(read_half, dec, shared, me, t0, waves_a, leaf_index))
    };
    let mut gen = Generator {
        stream,
        leaves: leaves.clone(),
        seed,
        batch: Vec::new(),
        sent: traced.then(Vec::new),
    };
    let (late_ms, depth) = open_loop(&mut gen, &handle, t0, waves_a);
    let a_end = t0.elapsed().as_secs_f64();
    let b_start = a_end;
    let b_end = b_start + seconds * PHASE_B;
    let sent_b = closed_loop(&mut gen, &shared, t0, waves_a, b_end);

    // Finish every stream and wait until the daemon has drained.
    let totals: Vec<Vec<u64>> = sent_b
        .iter()
        .map(|&n| {
            (0..LEAVES as u64)
                .map(|l| waves_a + (n + LEAVES as u64 - 1 - l) / LEAVES as u64)
                .collect()
        })
        .collect();
    let finish: Vec<u8> = totals
        .iter()
        .enumerate()
        .flat_map(|(t, tot)| {
            encode_frame(&Msg::Finish {
                handle: t as u32,
                totals: leaves.iter().zip(tot).map(|(n, &c)| (n.0, c)).collect(),
            })
        })
        .collect();
    gen.stream.write_all(&finish).expect("send finish");
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while shared.finished.load(Ordering::SeqCst) < TENANTS as u64 && Instant::now() < drain_deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.stop.store(true, Ordering::SeqCst);
    let log = receiver.join().expect("receiver thread");
    let snap1 = snod_obs::snapshot();
    let stats = handle.stats();
    handle.shutdown();

    // Output check: served escalations against the reference. A traced
    // run also replays each tenant through traced engines, alternating
    // which goes first: the two must agree, their time ratio is the
    // tracing overhead, and the traced replay feeds the engine, driver
    // and tenant-slice figures.
    let (encode_s, encodes) = trace::total("wire.encode");
    trace::reset_totals();
    let (mut refs, mut trefs) = (Vec::new(), Vec::new());
    let (mut plain_ref_s, mut traced_ref_s) = (0.0, 0.0);
    for (ti, tot) in totals.iter().enumerate() {
        for traced_turn in [ti % 2 == 1, ti % 2 == 0] {
            let t = Instant::now();
            if !traced_turn {
                refs.push(reference(plain_runtime(), d3_dets, seed, ti, tot, waves_a, false).0);
                plain_ref_s += t.elapsed().as_secs_f64();
            } else if traced {
                trefs.push(reference(traced_runtime(), timed_dets, seed, ti, tot, waves_a, true).0);
                traced_ref_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let escalations_match = (0..TENANTS).all(|t| log.escalation_digest[t] == refs[t].digest);

    let attempted: u64 = totals.iter().flatten().sum();
    let acked: u64 = log.received.iter().flatten().sum();
    let unfinished = attempted.saturating_sub(acked);
    let mut checks = vec![
        ("escalations_match_reference", escalations_match),
        (
            "all_streams_finished",
            shared.finished.load(Ordering::SeqCst) == TENANTS as u64,
        ),
    ];
    let failed_ops = stats.shed + log.errors + unfinished + stats.wire_errors;

    // Latency of escalations produced by phase A waves.
    let esc_ms: Vec<(f64, f64)> = log
        .escalations
        .iter()
        .filter_map(|e| {
            let w = *refs[e.0].waves.get(&e.1)?;
            let due = due_s(e.0, LEAVES - 1, w);
            (w < waves_a).then_some((due, (e.2 - due) * 1e3))
        })
        .collect();
    let acked_at = |t: f64| {
        let i = log.acked_series.partition_point(|s| s.0 <= t);
        if i == 0 {
            (t, 0)
        } else {
            log.acked_series[i - 1]
        }
    };
    let cap_from = b_start + RAMP_S;
    let step = (b_end - cap_from) / WINDOWS as f64;
    let capacities: Vec<f64> = (0..WINDOWS)
        .map(|k| {
            let (a, b) = (
                acked_at(cap_from + k as f64 * step),
                acked_at(cap_from + (k + 1) as f64 * step),
            );
            ((b.1 - a.1) as f64 / (b.0 - a.0).max(1e-9)).round()
        })
        .collect();
    let capacity = median(capacities.clone());
    let readings_ref: u64 = refs.iter().map(|r| r.readings).sum();
    let radio = refs.iter().map(|r| r.bytes).sum::<u64>() as f64 / readings_ref as f64;
    let late_p99 = quantile(&mut late_ms.clone(), 0.99);
    let late_max = late_ms.iter().copied().fold(0.0, f64::max);
    let ack_p99 = quantile(
        &mut log.ack_ms.iter().map(|s| s.1).collect::<Vec<_>>(),
        0.99,
    );
    let behind = late_p99 > BEHIND_SHARE * ack_p99;
    if behind {
        eprintln!("serve-d3: generator fell behind its schedule (late p99 {late_p99:.3} ms)");
    }

    let mut metrics = Vec::new();
    if !traced {
        metrics = vec![
            Metric::new("readings_per_s", capacity, "1/s"),
            Metric::new("radio_bytes_per_reading", radio, "B"),
            Metric::new(
                "ack_p50_ms",
                median(windowed_quantiles(&log.ack_ms, WINDOWS, 0.5)),
                "ms",
            ),
            Metric::new(
                "durable_ack_p50_ms",
                median(windowed_quantiles(&log.durable_ms, WINDOWS, 0.5)),
                "ms",
            ),
            Metric::new(
                "escalation_p50_ms",
                median(windowed_quantiles(&esc_ms, WINDOWS, 0.5)),
                "ms",
            ),
        ];
    } else {
        checks.push((
            "traced_reference_matches",
            trefs.iter().zip(&refs).all(|(a, b)| a.digest == b.digest),
        ));
        let (slice_s, slices) = trace::total("tenant.slice");
        metrics.extend(layers::engine_metrics(readings_ref, slice_s));
        metrics.extend(layers::counter_metrics(&snap0, &snap1, attempted));
        metrics.push(Metric::new(
            "simnet.messages_per_reading",
            refs.iter().map(|r| r.messages).sum::<u64>() as f64 / readings_ref as f64,
            "count/reading",
        ));
        let bytes = gen.sent.take().unwrap_or_default();
        let t = Instant::now();
        let mut dec = FrameDecoder::new();
        let mut frames = 0u64;
        for chunk in bytes.chunks(64 * 1024) {
            dec.feed(chunk);
            while let Ok(Some(m)) = dec.next_frame() {
                std::hint::black_box(m);
                frames += 1;
            }
        }
        let decode_us = t.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64;
        // Checkpoint of one tenant laid out as a daemon worker writes it.
        let (_, rt, buf) = reference(plain_runtime(), d3_dets, seed, 0, &totals[0], 0, false);
        let pushed = vec![0u64; rt.topology().node_count()];
        let encode = || {
            let mut w = ByteWriter::new();
            buf.save(&mut w);
            pushed.save(&mut w);
            true.save(&mut w);
            rt.checkpoint().save(&mut w);
            w.into_bytes()
        };
        let _ = std::fs::create_dir_all(&ckpt_dir);
        metrics.extend(layers::persist_metrics(
            encode,
            &ckpt_dir.join("replay.ckpt"),
        ));
        metrics.extend(layers::robust_metrics(|seq| {
            reading(seed, 0, seq, SPIKE_EVERY)
        }));
        let depth_mean = depth.iter().sum::<f64>() / depth.len().max(1) as f64;
        metrics.extend([
            Metric::new(
                "wire.encode_us",
                encode_s * 1e6 / encodes.max(1) as f64,
                "us",
            ),
            Metric::new("wire.decode_us", decode_us, "us"),
            Metric::new(
                "serve.ack_frames_per_reading",
                log.ack_frames as f64 / acked.max(1) as f64,
                "count/reading",
            ),
            Metric::new(
                "tenant.slice_us",
                slice_s * 1e6 / slices.max(1) as f64,
                "us",
            ),
            Metric::new(
                "serve.checkpoints_per_reading",
                stats.checkpoints as f64 / attempted.max(1) as f64,
                "count/reading",
            ),
            Metric::new("serve.queue_depth_mean", depth_mean, "count"),
            Metric::new(
                "serve.queue_depth_max",
                depth.iter().copied().fold(0.0, f64::max),
                "count",
            ),
            Metric::new("serve.queue_wait_ms", depth_mean / OPEN_RATE * 1e3, "ms"),
            Metric::new("serve.shed", stats.shed as f64, "count"),
            Metric::new("serve.duplicates", stats.duplicates as f64, "count"),
            Metric::new("serve.reconnects", stats.reconnects as f64, "count"),
            Metric::new("gen.late_p99_ms", late_p99, "ms"),
            Metric::new("gen.late_max_ms", late_max, "ms"),
            Metric::new(
                "trace.overhead_frac",
                traced_ref_s / plain_ref_s - 1.0,
                "fraction",
            ),
        ]);
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let correct = checks.iter().all(|c| c.1);
    let failed = if correct {
        failed_ops.min(attempted)
    } else {
        attempted
    };
    eprintln!(
        "serve-d3: phase A {waves_a} waves in {a_end:.2} s, {} ack samples, {} escalations ({} timed), capacity {capacity:.0}/s",
        log.ack_ms.len(),
        log.escalation_frames,
        esc_ms.len()
    );
    Some(Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        detail: format!(
            "{{\"checks\": {{{}}}, \"phase_a_rate\": {OPEN_RATE}, \"phase_a_waves\": {waves_a}, \
             \"ack_samples\": {}, \"durable_samples\": {}, \"escalation_samples\": {}, \
             \"generator_behind\": {behind}, \"gen_late_p99_ms\": {late_p99}, \"gen_late_max_ms\": {late_max}, \
             \"ack_ms_q50_90_99_999\": {:?}, \"escalation_ms_q50_90_99_999\": {:?}, \"durable_ms_q50_90_99_999\": {:?}, \
             \"capacity_windows\": {capacities:?}, \"shed\": {}, \"error_frames\": {}, \"unfinished\": {unfinished}, \"checkpoints\": {}}}",
            checks
                .iter()
                .map(|(n, ok)| format!("\"{n}\": {ok}"))
                .collect::<Vec<_>>()
                .join(", "),
            log.ack_ms.len(),
            log.durable_ms.len(),
            esc_ms.len(),
            spread_of(&log.ack_ms),
            spread_of(&esc_ms),
            spread_of(&log.durable_ms),
            stats.shed,
            log.errors,
            stats.checkpoints
        ),
    })
}

/// [`quantiles`] of the latencies in `(due, ms)` samples.
fn spread_of(samples: &[(f64, f64)]) -> [f64; 4] {
    quantiles(&mut samples.iter().map(|s| s.1).collect::<Vec<_>>())
}
