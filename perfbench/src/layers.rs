//! Per-layer metrics of the traced run: the canonical list, and the
//! measurements every workload shares (engine callbacks and driver self
//! time from the recorded spans, deterministic work counters from the
//! obs registry, checkpoint and robust-statistics replays).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use snod_core::MmdewNodeConfig;
use snod_obs::MetricsSnapshot;
use snod_robust::{Mmdew, QnWindow};

use crate::sim::FQN_WINDOW;
use crate::trace;
use crate::util::median;
use crate::Metric;

/// Every per-layer metric, in output order, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("engine.ingest_us", "us"),
    ("engine.ingest_calls", "count/reading"),
    ("engine.on_message_us", "us"),
    ("engine.on_message_calls", "count/reading"),
    ("simnet.driver_self_s", "s"),
    ("simnet.driver_share", "fraction"),
    ("simnet.events_per_reading", "count/reading"),
    ("simnet.messages_per_reading", "count/reading"),
    ("robust.qn_push_us", "us"),
    ("robust.qn_is_outlier_us", "us"),
    ("robust.mmd_insert_us", "us"),
    ("density.kernels_per_reading", "count/reading"),
    ("density.queries_per_reading", "count/reading"),
    ("core.model_rebuilds_per_reading", "count/reading"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.ack_frames_per_reading", "count/reading"),
    ("tenant.slice_us", "us"),
    ("persist.ckpt_bytes", "B"),
    ("persist.ckpt_encode_us", "us"),
    ("persist.ckpt_write_us", "us"),
    ("serve.checkpoints_per_reading", "count/reading"),
    ("serve.queue_depth_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.duplicates", "count"),
    ("serve.reconnects", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Engine callback cost and driver self time from the `engine.*` spans
/// recorded so far, over `wall` seconds of driving and `readings` leaf
/// readings.
pub fn engine_metrics(readings: u64, wall: f64) -> Vec<Metric> {
    let (ingest_s, ingest_n) = trace::total("engine.ingest");
    let (msg_s, msg_n) = trace::total("engine.on_message");
    let (timer_s, _) = trace::total("engine.on_timer");
    let per_call = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e6 / n as f64 };
    let self_s = (wall - ingest_s - msg_s - timer_s).max(0.0);
    vec![
        Metric::new("engine.ingest_us", per_call(ingest_s, ingest_n), "us"),
        Metric::new(
            "engine.ingest_calls",
            ingest_n as f64 / readings as f64,
            "count/reading",
        ),
        Metric::new("engine.on_message_us", per_call(msg_s, msg_n), "us"),
        Metric::new(
            "engine.on_message_calls",
            msg_n as f64 / readings as f64,
            "count/reading",
        ),
        Metric::new("simnet.driver_self_s", self_s, "s"),
        Metric::new("simnet.driver_share", self_s / wall.max(1e-12), "fraction"),
    ]
}

/// Deterministic work counters between two obs snapshots, per reading.
pub fn counter_metrics(a: &MetricsSnapshot, b: &MetricsSnapshot, readings: u64) -> Vec<Metric> {
    let delta = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| b.counter(n).unwrap_or(0) - a.counter(n).unwrap_or(0))
            .sum::<u64>() as f64
            / readings as f64
    };
    vec![
        Metric::new(
            "simnet.events_per_reading",
            delta(&["simnet.events"]),
            "count/reading",
        ),
        Metric::new(
            "density.kernels_per_reading",
            delta(&[
                "density.scalar.kernels",
                "density.sweep.kernels",
                "density.batch.kernels",
            ]),
            "count/reading",
        ),
        Metric::new(
            "density.queries_per_reading",
            delta(&[
                "density.scalar.queries",
                "density.sweep.queries",
                "density.batch.per_query",
            ]),
            "count/reading",
        ),
        Metric::new(
            "core.model_rebuilds_per_reading",
            delta(&["core.model.rebuilds"]),
            "count/reading",
        ),
    ]
}

/// Checkpoint size, encode time (`encode`) and `write_checkpoint_file`
/// time into `path`'s directory; medians of three.
pub fn persist_metrics(encode: impl Fn() -> Vec<u8>, path: &Path) -> Vec<Metric> {
    let mut enc = Vec::new();
    let mut write = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        bytes = trace::time("persist.encode", 0, &encode);
        enc.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        trace::time("persist.write", 0, || {
            snod_persist::write_checkpoint_file(path, &bytes)
        })
        .expect("checkpoint write");
        write.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(path);
    vec![
        Metric::new("persist.ckpt_bytes", bytes.len() as f64, "B"),
        Metric::new("persist.ckpt_encode_us", median(enc), "us"),
        Metric::new("persist.ckpt_write_us", median(write), "us"),
    ]
}

/// Replays one leaf stream `x` (reading by index) of this workload's
/// inputs through a standalone `QnWindow` (the FQN window) and `Mmdew`
/// (the MMDEW node defaults): the robust layer's cost on these readings.
pub fn robust_metrics(x: impl Fn(u64) -> f64) -> Vec<Metric> {
    const PUSHES: u64 = 8_192;
    const QUERIES: u64 = 1_024;
    let mut qn = QnWindow::new(FQN_WINDOW).expect("qn window");
    let push_us = trace::time("robust.qn_push", 0, || {
        let t0 = Instant::now();
        for seq in 0..PUSHES {
            qn.push(x(seq)).expect("finite reading");
        }
        t0.elapsed().as_secs_f64() * 1e6 / PUSHES as f64
    });
    let query_us = trace::time("robust.qn_is_outlier", 0, || {
        let t0 = Instant::now();
        for seq in PUSHES..PUSHES + QUERIES {
            black_box(qn.is_outlier(x(seq), 4.0));
        }
        t0.elapsed().as_secs_f64() * 1e6 / QUERIES as f64
    });
    let mut mmd = Mmdew::new(MmdewNodeConfig::default().detector).expect("mmdew config");
    let mmd_us = trace::time("robust.mmd_insert", 0, || {
        let t0 = Instant::now();
        for seq in 0..PUSHES {
            black_box(mmd.insert(&[x(seq)]).expect("finite reading"));
        }
        t0.elapsed().as_secs_f64() * 1e6 / PUSHES as f64
    });
    vec![
        Metric::new("robust.qn_push_us", push_us, "us"),
        Metric::new("robust.qn_is_outlier_us", query_us, "us"),
        Metric::new("robust.mmd_insert_us", mmd_us, "us"),
    ]
}

/// The serve-path layers, absent from the simulator workloads.
pub fn absent_serve_metrics() -> Vec<Metric> {
    PER_LAYER
        .iter()
        .filter(|(n, _)| {
            ["wire.", "serve.", "tenant.", "gen."]
                .iter()
                .any(|p| n.starts_with(p))
        })
        .map(|&(n, u)| Metric::new(n, 0.0, u))
        .collect()
}
