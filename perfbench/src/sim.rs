//! The simulator workloads: a `snod-simnet` network of one detector
//! backend, fed seeded readings and driven in slices of simulated time.
//!
//! A run builds the network, drives a fixed prefix that ends in the
//! output fingerprint, warms up until every leaf window is full and
//! checkpoints that warm state. The timed phase is a series of equal
//! episodes: each restores the warm checkpoint (untimed) and drives the
//! same fixed number of waves, until `--seconds` have passed. Every
//! episode therefore does the same work whatever the host's speed, and
//! a detector whose state keeps growing (MMDEW's windows between alarms)
//! costs the same per reading in a short run as in a long one. The
//! timings come from each slice's shortest time over the episodes.
//! (`setup_s` comes from separate set-up probes, see `main.rs`.)
//! A slice is one reading period: every leaf's next reading, all due
//! when the slice starts and all decided when it ends, so a slice's
//! wall time is the latency of its readings.

use std::path::Path;
use std::time::{Duration, Instant};

use snod_core::{
    build_backend_network, Detection, DetectorBackend, FqnBackend, FqnConfig, MmdewBackend,
    MmdewNodeConfig,
};
use snod_engine::{DetectorEngine, FaultPlan, Hierarchy, NodeId, SimConfig, StreamSource, Wire};
use snod_persist::Persist;
use snod_simnet::Network;

use crate::layers;
use crate::trace::{self, Timed};
use crate::util::{quantile, reading, repeat_setup, Fnv};
use crate::{Metric, Mode, Outcome, SETUP_BUDGET_S};

/// The seed whose prefix fingerprints are recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// Prefix fingerprints (detections, `NetStats` and checkpoint bytes) for
/// [`DEFAULT_SEED`]. A changed value means the program's output
/// changed: re-record it only with a reason.
const RECORDED: [(&str, u64); 2] = [
    ("sim-fqn", 0x6a71_f62c_902c_278a),
    ("sim-mmdew", 0x9885_0d83_f809_c413),
];

struct Shape {
    name: &'static str,
    /// Waves (reading periods) covered by the output fingerprint.
    check_waves: u64,
    /// Warm-up waves before the timed phase (fills every leaf window).
    warm_waves: u64,
    /// Waves per timed episode.
    episode_waves: u64,
    /// One planted spike per this many readings, on average.
    spike_every: u64,
    /// Every stream's level steps up and back down every this many
    /// readings (0: never), the first step at half of it.
    shift_every: u64,
    /// The backend's detection counter in the obs registry.
    detections: &'static str,
}

fn balanced32() -> Hierarchy {
    Hierarchy::balanced(32, &[4, 2, 4]).expect("32-leaf topology")
}

/// Window of the FQN and Q_n replays (the `bench_backends` window).
pub const FQN_WINDOW: usize = 512;

pub fn run(workload: &str, seed: u64, seconds: f64, mode: Mode, out: &Path) -> Option<Outcome> {
    let fqn = FqnBackend(FqnConfig {
        dimensions: 1,
        window: FQN_WINDOW,
        k_scale: 4.0,
        warmup: 32,
        sample_fraction: 0.5,
        seed: 21,
    });
    let mut mmdew_cfg = MmdewNodeConfig::default();
    mmdew_cfg.detector.seed = 21;
    let shape = |name, detections| Shape {
        name,
        check_waves: 64,
        warm_waves: FQN_WINDOW as u64,
        episode_waves: 64,
        spike_every: 128,
        shift_every: 0,
        detections,
    };
    Some(match workload {
        "sim-fqn" => drive_workload(
            shape("sim-fqn", "core.fqn.detections"),
            fqn,
            seed,
            seconds,
            mode,
            out,
        ),
        "sim-mmdew" => drive_workload(
            // Planted level shifts make every detector alarm and prune
            // its windows at about the same readings whatever the seed,
            // so the retained samples, and with them the O(T²) test,
            // cycle through the same sizes in every run. The prefix
            // covers the first shift. An episode is long because the
            // slices that record a detection (about one in ten) differ
            // in cost by up to 50x, and which of them occur depends on
            // the seed: escalation_p50_ms needs a few hundred of them to
            // repeat from seed to seed.
            Shape {
                check_waves: 192,
                episode_waves: 4096,
                shift_every: 256,
                ..shape("sim-mmdew", "core.mmdew.detections")
            },
            MmdewBackend(mmdew_cfg),
            seed,
            seconds,
            mode,
            out,
        ),
        _ => return None,
    })
}

/// Seeded leaf readings; counts what the network consumed.
struct Source {
    seed: u64,
    spike_every: u64,
    shift_every: u64,
    consumed: u64,
}

/// Size of a planted level shift: the width of the noise band.
const SHIFT: f64 = 0.2;

impl Source {
    fn reading(&self, stream: u64, seq: u64) -> f64 {
        let every = self.shift_every;
        let shifted = every > 0 && ((seq + every / 2) / every) % 2 == 1;
        reading(self.seed, stream, seq, self.spike_every) + if shifted { SHIFT } else { 0.0 }
    }
}

impl StreamSource for Source {
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>> {
        self.consumed += 1;
        Some(vec![self.reading(node.0 as u64, seq)])
    }
}

/// One driven slice: readings consumed, wall seconds, and whether a new
/// detection was recorded in it.
struct Slice {
    readings: u32,
    secs: f32,
    detected: bool,
}

/// Drives a network slice by slice.
struct Slicer {
    slice_ns: u64,
    /// The backend's detection counter in the obs registry.
    detections: snod_obs::Counter,
}

impl Slicer {
    /// Drives slice `k`: every event up to its end.
    fn slice<P: Wire + Send, A: DetectorEngine<P> + Send>(
        &self,
        net: &mut Network<P, A>,
        src: &mut Source,
        k: u64,
    ) -> Slice {
        let (before, dets) = (src.consumed, self.detections.get());
        let span = trace::open("sim.slice", k);
        let t0 = Instant::now();
        net.run_until(src, u64::MAX, (k + 1) * self.slice_ns - 1);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(s) = span {
            s.close();
        }
        Slice {
            readings: (src.consumed - before) as u32,
            secs: secs as f32,
            detected: self.detections.get() > dets,
        }
    }

    /// Drives slices `range`.
    fn span<P: Wire + Send, A: DetectorEngine<P> + Send>(
        &self,
        net: &mut Network<P, A>,
        src: &mut Source,
        range: std::ops::Range<u64>,
    ) {
        for k in range {
            self.slice(net, src, k);
        }
    }

    /// The timed phase: episodes of slices `from..from + len`, each
    /// started from the `warm` checkpoint, until `seconds` have passed
    /// (at least one). Restores and fingerprints are not timed.
    #[allow(clippy::too_many_arguments)]
    fn episodes<P: Wire + Persist + Send, A: DetectorEngine<P> + Persist + Send>(
        &self,
        net: &mut Network<P, A>,
        src: &mut Source,
        warm: &[u8],
        from: u64,
        len: u64,
        seconds: f64,
        fingerprint: impl Fn(&Network<P, A>) -> u64,
    ) -> Episodes {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut out = Episodes {
            runs: Vec::new(),
            best_secs: vec![f64::INFINITY; len as usize],
            detected: vec![false; len as usize],
        };
        while out.runs.is_empty() || Instant::now() < deadline {
            net.restore(warm).expect("warm checkpoint restores");
            let (bytes0, msgs0) = (net.stats().bytes, net.stats().messages);
            let (mut readings, mut secs) = (0, 0.0);
            for (i, k) in (from..from + len).enumerate() {
                let s = self.slice(net, src, k);
                readings += s.readings as u64;
                secs += s.secs as f64;
                out.best_secs[i] = out.best_secs[i].min(s.secs as f64);
                out.detected[i] |= s.detected;
            }
            out.runs.push(Episode {
                readings,
                secs,
                bytes: net.stats().bytes - bytes0,
                messages: net.stats().messages - msgs0,
                fingerprint: fingerprint(net),
            });
        }
        out
    }
}

/// The timed phase's record: one summary per episode, and per slice of
/// an episode its shortest wall time over all episodes and whether it
/// recorded a detection. Its size does not grow with the episode count
/// beyond the summaries, so a faster host's extra episodes barely move
/// `peak_rss_mb`.
struct Episodes {
    runs: Vec<Episode>,
    best_secs: Vec<f64>,
    detected: Vec<bool>,
}

impl Episodes {
    /// p50, p90, p99 and p99.9 of the slices' best times in ms (all
    /// slices, or those that recorded a detection); 0 when none did.
    fn best_ms(&self, escalating: bool) -> [f64; 4] {
        let mut ms: Vec<f64> = self
            .best_secs
            .iter()
            .zip(&self.detected)
            .filter(|(_, &d)| d || !escalating)
            .map(|(s, _)| s * 1e3)
            .collect();
        [0.5, 0.9, 0.99, 0.999].map(|q| quantile(&mut ms, q))
    }
}

/// One timed episode: its readings and wall seconds, the radio bytes
/// and messages sent and the output fingerprint at its end.
struct Episode {
    readings: u64,
    secs: f64,
    bytes: u64,
    messages: u64,
    fingerprint: u64,
}

/// Hash of every detection so far (node, time, tier, value bits) and of
/// the network statistics, with the number of detections. With `state`
/// it also hashes the whole network checkpoint (every engine's state).
/// Episodes leave that out: they all start from the same checkpoint, so
/// their detections and statistics are enough to tell them apart.
fn fingerprint<P: Wire + Persist, A: DetectorEngine<P> + Persist>(
    net: &Network<P, A>,
    dets: impl Fn(&A) -> &[Detection],
    state: bool,
) -> (u64, usize) {
    let mut h = Fnv::default();
    let mut count = 0;
    for (node, app) in net.apps() {
        count += dets(app).len();
        for d in dets(app) {
            h.u64(node.0 as u64);
            h.u64(d.time_ns);
            h.u64(d.level as u64);
            d.value.iter().for_each(|v| h.u64(v.to_bits()));
        }
    }
    let s = net.stats();
    for v in [
        s.messages,
        s.bytes,
        s.dropped,
        s.acks,
        s.retransmissions,
        s.elapsed_ns,
    ] {
        h.u64(v);
    }
    s.messages_per_level.iter().for_each(|&m| h.u64(m));
    h.u64(s.tx_joules.to_bits());
    h.u64(s.rx_joules.to_bits());
    if state {
        h.bytes(&net.checkpoint());
    }
    (h.0, count)
}

fn drive_workload<B: DetectorBackend>(
    shape: Shape,
    backend: B,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: &Path,
) -> Outcome {
    let cfg = SimConfig::default();
    let (check, warm, episode) = (shape.check_waves, shape.warm_waves, shape.episode_waves);
    let slicer = Slicer {
        slice_ns: cfg.reading_period_ns,
        detections: snod_obs::Counter::named(shape.detections),
    };
    let src_of = |seed| Source {
        seed,
        spike_every: shape.spike_every,
        shift_every: shape.shift_every,
        consumed: 0,
    };
    let build_plain = || {
        build_backend_network(&backend, balanced32(), cfg, FaultPlan::none()).expect("valid recipe")
    };
    if mode == Mode::Setup {
        return Outcome::setup(repeat_setup(3, 2000, SETUP_BUDGET_S, build_plain).0);
    }
    // The recorded prefix, checked in every run whatever the seed.
    let default_fp = || {
        let mut net = build_plain();
        slicer.span(&mut net, &mut src_of(DEFAULT_SEED), 0..check);
        fingerprint(&net, B::detections, true).0
    };
    let fp_default = (seed != DEFAULT_SEED).then(default_fp);
    let mut net = build_plain();
    let mut src = src_of(seed);
    let mut metrics = Vec::new();
    let (fp_prefix, fp_traced, episodes, attempted);
    let mut tails = String::new();
    if mode == Mode::Plain {
        // The fingerprinted prefix, the warm-up, then the timed episodes.
        slicer.span(&mut net, &mut src, 0..check);
        fp_prefix = fingerprint(&net, B::detections, true);
        fp_traced = None;
        slicer.span(&mut net, &mut src, check..warm);
        let warm_ckpt = net.checkpoint();
        episodes = slicer.episodes(
            &mut net,
            &mut src,
            &warm_ckpt,
            warm,
            episode,
            seconds,
            |n| fingerprint(n, B::detections, false).0,
        );
        // Every episode repeats the same work from the same state (the
        // fingerprints check it), so episodes differ only by what else
        // the host ran, which only slows them. Slice k does the same work
        // in every episode, so its shortest time over the episodes is its
        // cost with the least interference. The rate is an episode's
        // readings over the sum of those best times, and the latencies
        // are quantiles of them. A slow spell of the shared host that
        // covers most of the run still leaves each slice some episodes in
        // between, so it barely moves these figures.
        let rate = episodes.runs[0].readings as f64 / episodes.best_secs.iter().sum::<f64>();
        let ack = episodes.best_ms(false);
        let esc = episodes.best_ms(true);
        let rates: Vec<f64> = episodes
            .runs
            .iter()
            .map(|e| (e.readings as f64 / e.secs.max(1e-12)).round())
            .collect();
        let first = &episodes.runs[0];
        metrics = vec![
            Metric::new("readings_per_s", rate, "1/s"),
            Metric::new(
                "radio_bytes_per_reading",
                first.bytes as f64 / first.readings as f64,
                "B",
            ),
            // A slice holds a fixed number of readings, so on the
            // simulator the latencies restate readings_per_s at slice
            // granularity rather than measure a queue.
            Metric::new("ack_p50_ms", ack[0], "ms"),
            // No checkpoint directory in the simulator: as in the daemon
            // without one, a reading is durable when it is decided.
            Metric::new("durable_ack_p50_ms", ack[0], "ms"),
            Metric::new("escalation_p50_ms", esc[0], "ms"),
        ];
        tails = format!(
            ", \"episode_rates\": {rates:?}, \"ack_ms_q50_90_99_999\": {ack:?}, \"escalation_ms_q50_90_99_999\": {esc:?}, \"slices_per_episode\": {episode}, \"escalating_slices\": {}",
            episodes.detected.iter().filter(|&&d| d).count()
        );
        attempted = src.consumed;
    } else {
        // A traced network over identical engines, driven slice by slice
        // in step with the plain one through the prefix and the warm-up:
        // the two must agree at the end of the prefix, and their time
        // ratio is the tracing overhead. Its timed episodes then feed the
        // layer metrics.
        trace::install();
        let mut tnet = Network::new(balanced32(), cfg, |n, t| Timed(backend.make_engine(n, t)));
        let mut tsrc = src_of(seed);
        let traced_fp = |n: &Network<B::Payload, Timed<B::Engine>>, state| {
            fingerprint(n, |a: &Timed<B::Engine>| B::detections(&a.0), state)
        };
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        let (mut fps, mut tfps) = ((0, 0), (0, 0));
        for k in 0..warm {
            // Alternate which goes first, so order effects cancel.
            for traced_turn in [k % 2 == 1, k % 2 == 0] {
                if traced_turn {
                    traced_s += slicer.slice(&mut tnet, &mut tsrc, k).secs as f64;
                } else {
                    plain_s += slicer.slice(&mut net, &mut src, k).secs as f64;
                }
            }
            if k + 1 == check {
                fps = fingerprint(&net, B::detections, true);
                tfps = traced_fp(&tnet, true);
            }
        }
        (fp_prefix, fp_traced) = (fps, Some(tfps.0));
        drop(net);

        let warm_ckpt = tnet.checkpoint();
        trace::reset_totals();
        let snap0 = snod_obs::snapshot();
        episodes = slicer.episodes(
            &mut tnet,
            &mut tsrc,
            &warm_ckpt,
            warm,
            episode,
            seconds,
            |n| traced_fp(n, false).0,
        );
        let snap1 = snod_obs::snapshot();
        let readings: u64 = episodes.runs.iter().map(|e| e.readings).sum::<u64>().max(1);
        let (wall, _) = trace::total("sim.slice");
        metrics.extend(layers::engine_metrics(readings, wall));
        metrics.extend(layers::counter_metrics(&snap0, &snap1, readings));
        metrics.push(Metric::new(
            "simnet.messages_per_reading",
            episodes.runs[0].messages as f64 / episodes.runs[0].readings as f64,
            "count/reading",
        ));
        let ckpt_path = out.join(format!("{}-{}.ckpt", shape.name, std::process::id()));
        metrics.extend(layers::persist_metrics(|| tnet.checkpoint(), &ckpt_path));
        metrics.extend(layers::robust_metrics(|seq| tsrc.reading(0, seq)));
        metrics.extend(layers::absent_serve_metrics());
        metrics.push(Metric::new(
            "trace.overhead_frac",
            traced_s / plain_s - 1.0,
            "fraction",
        ));
        attempted = src.consumed + tsrc.consumed;
    }

    let recorded = RECORDED
        .iter()
        .find(|r| r.0 == shape.name)
        .map_or(0, |r| r.1);
    let (fp, prefix_detections) = fp_prefix;
    let mut checks = vec![
        (
            "episodes_agree",
            episodes
                .runs
                .iter()
                .all(|e| e.fingerprint == episodes.runs[0].fingerprint),
        ),
        (
            "default_seed_fingerprint_matches",
            fp_default.unwrap_or(fp) == recorded,
        ),
    ];
    if let Some(tfp) = fp_traced {
        checks.push(("traced_prefix_matches", tfp == fp));
    }
    let correct = checks.iter().all(|c| c.1);
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed: if correct { 0 } else { attempted.max(1) },
        metrics,
        detail: format!(
            "{{\"fingerprint\": \"{fp:016x}\", \"recorded\": \"{recorded:016x}\", \"checks\": {{{}}}, \
             \"check_waves\": {}, \"prefix_detections\": {prefix_detections}, \"warm_waves\": {}, \
             \"episode_waves\": {}, \"episodes\": {}{tails}}}",
            checks
                .iter()
                .map(|(n, ok)| format!("\"{n}\": {ok}"))
                .collect::<Vec<_>>()
                .join(", "),
            shape.check_waves,
            shape.warm_waves,
            shape.episode_waves,
            episodes.runs.len()
        ),
    }
}
