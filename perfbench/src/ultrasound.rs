//! The `ultrasound-int1` workload: no server, one int1 engine from
//! `build_engine()`, `Reconstructor::reconstruct_stream_with` called back
//! to back with one 64-frame ensemble per call.
//!
//! The model is `ImagingConfig::small(16, 16, 4)` (K = 1024) on a 16×16×8
//! voxel grid (M = 2048).  Synthesising an ensemble is far slower than
//! reconstructing it, so a small seeded set is made once and cycled.

use crate::kernel::{self, KernelLayers};
use crate::stats::{hash_f64s, median, quantile, rate_per_s, sliced_quantile, Metrics};
use crate::trace::{print_self_times, write_trace, Tracer};
use crate::{note, peak_rss_mb, Outcome, Settings};
use beamform::Engine;
use ccglib::matrix::HostComplexMatrix;
use ccglib::Precision;
use gpu_sim::fault::splitmix64;
use gpu_sim::Gpu;
use std::time::{Duration, Instant};
use tcbf_types::GemmShape;
use ultrasound::{
    AcousticModel, DopplerMode, FlowPhantom, ImagingConfig, ReconstructionPrecision, Reconstructor,
};

const GPU: Gpu = Gpu::A100;
const DIMS: (usize, usize, usize) = (16, 16, 8);
const EXTENT_M: f64 = 0.01;
const DEPTH_M: f64 = 0.02;
const FRAMES: usize = 64;
const ENSEMBLES: usize = 4;
/// Ensembles run through the layer decomposition in a traced run.
const REPLAYS: usize = 64;

fn build_engine(model: &AcousticModel) -> Result<Box<dyn Engine>, String> {
    tcbf::BeamformerBuilder::new(GPU)
        .weights(model.matrix().clone())
        .samples_per_block(FRAMES)
        .precision(Precision::Int1)
        .build_engine()
        .map_err(|e| e.to_string())
}

/// One reconstruction as the benchmark saw it.
struct Call {
    ensemble: usize,
    start: Instant,
    end: Instant,
    hash: Option<u64>,
}

/// One measured phase of back-to-back reconstructions.
struct Phase {
    calls: Vec<Call>,
    start: Instant,
    end: Instant,
}

impl Phase {
    /// Reconstructs back to back: warm-up, then `seconds` measured.
    fn run(
        engine: &mut Box<dyn Engine>,
        reconstructor: &Reconstructor,
        model: &AcousticModel,
        ensembles: &[HostComplexMatrix],
        warmup_s: f64,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Phase {
        let start = Instant::now() + Duration::from_secs_f64(warmup_s);
        let end = start + Duration::from_secs_f64(seconds);
        let mut calls = Vec::with_capacity(1 << 14);
        while Instant::now() < end {
            let index = calls.len();
            let ensemble = index % ensembles.len();
            let input = std::slice::from_ref(&ensembles[ensemble]);
            let t0 = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(t) => t.time("app.reconstruct", index as u64, || {
                    reconstructor.reconstruct_stream_with(engine, model, input, DIMS)
                }),
                None => reconstructor.reconstruct_stream_with(engine, model, input, DIMS),
            };
            let t1 = Instant::now();
            let hash = result
                .ok()
                .and_then(|(volumes, _)| volumes.first().map(|v| hash_f64s(&v.intensity)));
            calls.push(Call {
                ensemble,
                start: t0,
                end: t1,
                hash,
            });
        }
        Phase { calls, start, end }
    }

    /// Completions per second in the measured window.
    fn blocks_per_s(&self) -> f64 {
        let done: Vec<f64> = self
            .calls
            .iter()
            .filter(|c| c.hash.is_some() && c.end >= self.start && c.end < self.end)
            .map(|c| (c.end - self.start).as_secs_f64())
            .collect();
        rate_per_s(&done)
    }

    /// Latency in ms of every call started after warm-up: one exact
    /// sample per volume.
    fn latencies_ms(&self) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|c| c.start >= self.start && c.hash.is_some())
            .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Calls that failed or whose volume differs from the direct engine's.
fn wrong(calls: &[Call], refs: &[u64]) -> u64 {
    calls
        .iter()
        .filter(|c| c.hash != Some(refs[c.ensemble]))
        .count() as u64
}

pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let config = ImagingConfig::small(16, 16, 4);
    let voxels = ImagingConfig::voxel_grid(DIMS.0, DIMS.1, DIMS.2, EXTENT_M, DEPTH_M);

    // Set-up: model build plus engine build, several times; keep the last.
    let (mut model_s, mut engine_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..settings.setup_reps.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        let model = AcousticModel::build(&config, &voxels);
        let t1 = Instant::now();
        let engine = build_engine(&model)?;
        let t2 = Instant::now();
        model_s.push((t1 - t0).as_secs_f64());
        engine_s.push((t2 - t1).as_secs_f64());
        setup_s.push((t2 - t0).as_secs_f64());
        built = Some((model, engine));
    }
    let (model, mut engine) = built.expect("at least one set-up");

    let ensembles: Vec<HostComplexMatrix> = (0..ENSEMBLES as u64)
        .map(|i| {
            let phantom = FlowPhantom {
                seed: splitmix64(settings.seed ^ splitmix64(i)),
                ..FlowPhantom::two_vessels(EXTENT_M, DEPTH_M)
            };
            phantom.measurements(&model, FRAMES)
        })
        .collect();
    let reconstructor = Reconstructor::new(
        &GPU.device(),
        ReconstructionPrecision::Int1,
        DopplerMode::MeanRemoval,
    );

    // References: every ensemble on a separately built engine, which is
    // itself spot-checked against ccglib's reference GEMM (exact for int1).
    let mut failures = Vec::new();
    let mut direct = build_engine(&model)?;
    let mut refs = Vec::with_capacity(ENSEMBLES);
    for (i, ensemble) in ensembles.iter().enumerate() {
        let (volumes, _) = reconstructor
            .reconstruct_stream_with(&mut direct, &model, std::slice::from_ref(ensemble), DIMS)
            .map_err(|e| e.to_string())?;
        refs.push(hash_f64s(&volumes.first().ok_or("no volume")?.intensity));
        if i == 0 {
            let prepared = reconstructor.apply_doppler(ensemble);
            let output = direct
                .process_batch(&[&prepared])
                .map_err(|e| e.to_string())?
                .pop()
                .ok_or("engine returned no output")?;
            if let Err(e) = kernel::check_against_reference(
                Precision::Int1,
                model.matrix(),
                &prepared,
                &output.beams,
                32,
            ) {
                failures.push(e);
            }
        }
    }

    let shape = GemmShape::new(voxels.len(), FRAMES, config.k_rows());
    let ops = 8.0 * (shape.m * shape.n * shape.k) as f64;

    if !settings.trace {
        let phase = Phase::run(
            &mut engine,
            &reconstructor,
            &model,
            &ensembles,
            settings.warmup_s,
            settings.seconds,
            None,
        );
        let failed = wrong(&phase.calls, &refs);
        let bps = phase.blocks_per_s();
        let lat = phase.latencies_ms();
        let attempted = phase.calls.len() as u64;
        note(format!(
            "ultrasound-int1: {attempted} volumes, {} latency samples (p99 of the whole window \
             {:.3} ms), error_frac={} (fraction)",
            lat.len(),
            quantile(&lat, 0.99),
            failed as f64 / attempted.max(1) as f64
        ));
        let mut m = Metrics::default();
        m.push("blocks_per_s", bps, "1/s");
        m.push("measured_gops", bps * ops / 1e9, "GOP/s");
        m.push("latency_p50_ms", median(&lat), "ms");
        m.push("latency_p99_ms", sliced_quantile(&lat, 0.99), "ms");
        m.push("setup_s", median(&setup_s), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(Outcome {
            attempted,
            failed,
            check_failures: failures,
            metrics: m,
        });
    }

    let half = settings.seconds / 2.0;
    let plain = Phase::run(
        &mut engine,
        &reconstructor,
        &model,
        &ensembles,
        settings.warmup_s,
        half,
        None,
    );
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let traced = Phase::run(
        &mut engine,
        &reconstructor,
        &model,
        &ensembles,
        settings.warmup_s,
        half,
        Some(&mut tracer),
    );
    let overhead = 1.0 - traced.blocks_per_s() / plain.blocks_per_s();

    // Decomposition of the call: Doppler filtering, the engine call on the
    // filtered ensemble, and the kernel layers inside it.
    let mut layers = KernelLayers::new(GPU, shape, Precision::Int1)?;
    let weights = kernel::prepare_weights(Precision::Int1, model.matrix());
    let replays = if settings.smoke { 4 } else { REPLAYS };
    let mut replay_wrong = 0u64;
    for i in 0..replays {
        let id = (traced.calls.len() + i) as u64;
        let ensemble = &ensembles[i % ENSEMBLES];
        let prepared = tracer.time("app.doppler", id, || reconstructor.apply_doppler(ensemble));
        let output = tracer
            .time("engine.process", id, || engine.process_batch(&[&prepared]))
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("engine returned no output")?;
        let kernel_out = layers.run(&mut tracer, id, &weights, &prepared)?;
        if kernel_out != output.beams {
            replay_wrong += 1;
        }
    }
    if replay_wrong > 0 {
        failures.push(format!(
            "{replay_wrong} of {replays} kernel decompositions differ from the engine output"
        ));
    }
    let _ = engine.finish();

    let us = |name: &str| median(&tracer.durations_us(name));
    let kernel_us = us("gemm.kernel");
    note(format!(
        "ultrasound-int1: {} + {} volumes live, {replays} decomposed; app.reconstruct p50 \
         {:.1} us = engine.process {:.1} us + app.self",
        plain.calls.len(),
        traced.calls.len(),
        us("app.reconstruct"),
        us("engine.process")
    ));
    print_self_times(&tracer);
    write_trace(&tracer, "ultrasound-int1", settings);

    let mut m = Metrics::default();
    for name in [
        "wire.encode_block_us",
        "wire.decode_block_us",
        "wire.encode_beams_us",
        "wire.decode_beams_us",
    ] {
        m.push(name, 0.0, "us");
    }
    m.push("wire.bytes_per_block", 0.0, "bytes");
    m.push("server.latency_p50_ms", 0.0, "ms");
    m.push("server.latency_p99_ms", 0.0, "ms");
    m.push("transport.p50_ms", 0.0, "ms");
    m.push("server.queue_wait_p50_ms", 0.0, "ms");
    m.push("server.throttled_per_block", 0.0, "count/block");
    m.push("pool.swaps_per_block", 0.0, "count/block");
    m.push("pool.ensure_weights_us", 0.0, "us");
    m.push("pool.checkout_us", 0.0, "us");
    m.push("engine.process_us", us("engine.process"), "us");
    m.push("prepare.block_us", us("prepare.block"), "us");
    m.push("gemm.kernel_us", kernel_us, "us");
    m.push("gemm.gops_per_s", ops / kernel_us / 1e3, "GOP/s");
    m.push("gemm.ops", ops, "count");
    m.push("gemm.bytes_computed", layers.bytes_computed, "bytes");
    m.push("par.fanout_us", us("par.fanout"), "us");
    m.push("app.doppler_us", us("app.doppler"), "us");
    m.push(
        "app.self_us",
        us("app.reconstruct") - us("engine.process"),
        "us",
    );
    m.push("setup.serve_s", 0.0, "s");
    m.push("setup.build_engine_s", median(&engine_s), "s");
    m.push("setup.model_build_s", median(&model_s), "s");
    m.push("trace.overhead_frac", overhead, "fraction");
    let all_calls = plain.calls.len() + traced.calls.len();
    Ok(Outcome {
        attempted: (all_calls + replays) as u64,
        failed: wrong(&plain.calls, &refs) + wrong(&traced.calls, &refs) + replay_wrong,
        check_failures: failures,
        metrics: m,
    })
}
