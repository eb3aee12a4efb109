//! The served workloads: an in-process `tcbf_serve::serve` on loopback,
//! driven by two closed-loop tenants on two connections.
//!
//! The client here is built on the public `tcbf_serve::wire` API because
//! `Client::stream_blocks` exposes no per-block times.  It keeps the
//! product client's behaviour: a window equal to the advertised queue
//! depth (clamped to 1..=8), throttled blocks retried under
//! `retry_backoff`, and weights swapped with the window drained (as
//! `stream_blocks` followed by `swap_weights` does).
//!
//! The server's worker loop cannot be reached from outside, so a traced
//! run gets its layer numbers in two parts: the exact per-block round trip
//! and server `latency_s` from the live run, and a single-thread replay of
//! the same blocks, tenants and weights versions through the public calls
//! the worker makes (wire encode/decode, `EnginePool::checkout`,
//! `EngineSlot::ensure_weights`, `Engine::process_batch`, `check_in`).

use crate::kernel::{self, KernelLayers};
use crate::stats::{hash_matrix, mean, median, quantile, rate_per_s, sliced_quantile, Metrics};
use crate::trace::{print_self_times, write_trace, Tracer, NO_BLOCK};
use crate::{note, peak_rss_mb, Outcome, Settings};
use beamform::WeightMatrix;
use ccglib::matrix::HostComplexMatrix;
use ccglib::synth::pseudo_random_matrix;
use ccglib::Precision;
use gpu_sim::fault::splitmix64;
use gpu_sim::Gpu;
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcbf_serve::wire::{read_frame_polling, write_frame};
use tcbf_serve::{
    retry_backoff, serve, ClientMsg, ServeConfig, ServerHandle, ServerMsg, PROTO_VERSION,
};
use tcbf_types::GemmShape;

const GPU: Gpu = Gpu::A100;
const PRECISION: Precision = Precision::Float16;
const TENANTS: usize = 2;
/// How long a client waits for any one reply before giving the block up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket read timeout, the poll interval of the reply deadline.
const POLL: Duration = Duration::from_millis(25);
/// Weights content id of blocks run under the server's initial weights.
const INITIAL: u32 = u32::MAX;

pub struct Spec {
    pub name: &'static str,
    beams: usize,
    receivers: usize,
    samples: usize,
    /// Blocks between weight swaps; `None` keeps the shared initial weights.
    retune_every: Option<u64>,
    /// Distinct weight matrices per tenant, installed in turn.
    weight_sets: usize,
    /// Distinct sample blocks per tenant, sent in turn.
    input_blocks: usize,
    /// Blocks replayed through the layer calls in a traced run.
    replay_blocks: usize,
}

pub const SMALL: Spec = Spec {
    name: "serve-small-f16",
    beams: 16,
    receivers: 64,
    samples: 256,
    retune_every: None,
    weight_sets: 0,
    input_blocks: 32,
    replay_blocks: 1024,
};

pub const RETUNE: Spec = Spec {
    name: "serve-retune-f16",
    beams: 512,
    receivers: 512,
    samples: 64,
    retune_every: Some(64),
    weight_sets: 4,
    input_blocks: 16,
    replay_blocks: 256,
};

impl Spec {
    fn shape(&self) -> GemmShape {
        GemmShape::new(self.beams, self.samples, self.receivers)
    }

    fn config(&self, initial: &HostComplexMatrix) -> ServeConfig {
        ServeConfig {
            gpus: vec![GPU],
            precisions: vec![PRECISION],
            engines_per_precision: 2,
            weights: initial.clone(),
            samples_per_block: self.samples,
            max_sessions: 8,
            queue_depth: 4,
            tenant_max_streams: 4,
            tenant_blocks_per_sec: None,
            workers: 2,
            fault_plan: None,
        }
    }
}

/// Every input of a run, generated from the seed before timing starts.
struct Inputs {
    initial: HostComplexMatrix,
    /// `[tenant][i]`: `receivers × samples` blocks.
    blocks: Vec<Vec<HostComplexMatrix>>,
    /// `[tenant][content]`: `beams × receivers` weights.
    weights: Vec<Vec<HostComplexMatrix>>,
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64) -> Self {
        let key = |parts: [u64; 3]| {
            parts
                .iter()
                .fold(splitmix64(seed), |acc, &p| splitmix64(acc ^ p))
        };
        let weight_scale = 1.0 / (spec.receivers as f32).sqrt();
        let initial =
            pseudo_random_matrix(spec.beams, spec.receivers, key([0, 0, 0]), weight_scale);
        let blocks = (0..TENANTS as u64)
            .map(|t| {
                (0..spec.input_blocks as u64)
                    .map(|i| {
                        pseudo_random_matrix(spec.receivers, spec.samples, key([1, t, i]), 1.0)
                    })
                    .collect()
            })
            .collect();
        let weights = (0..TENANTS as u64)
            .map(|t| {
                (0..spec.weight_sets as u64)
                    .map(|v| {
                        pseudo_random_matrix(
                            spec.beams,
                            spec.receivers,
                            key([2, t, v]),
                            weight_scale,
                        )
                    })
                    .collect()
            })
            .collect();
        Inputs {
            initial,
            blocks,
            weights,
        }
    }

    fn weights_for(&self, tenant: usize, content: u32) -> &HostComplexMatrix {
        if content == INITIAL {
            &self.initial
        } else {
            &self.weights[tenant][content as usize]
        }
    }
}

/// One block as the client saw it.
#[derive(Clone, Copy)]
struct BlockRecord {
    tenant: usize,
    input: usize,
    content: u32,
    /// The session's weights version on the server when the block was sent.
    version: u64,
    /// First hand-off to `send`; a throttled block keeps its first time.
    sent: Instant,
    done: Option<Instant>,
    server_latency_s: f64,
    hash: u64,
    throttles: u32,
    failed: bool,
}

struct TenantLog {
    session_id: u64,
    records: Vec<BlockRecord>,
    error: Option<String>,
    tracer: Option<Tracer>,
}

/// Runs `f` in a span when tracing, bare otherwise.
fn timed<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    block: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(name, block, f),
        None => f(),
    }
}

struct Conn {
    reader: TcpStream,
    writer: TcpStream,
    session_id: u64,
    window: usize,
    next_seq: u64,
}

impl Conn {
    fn open(addr: SocketAddr, tenant: &str, spec: &Spec) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(POLL))
            .map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader,
            writer: stream,
            session_id: 0,
            window: 1,
            next_seq: 0,
        };
        conn.send(&ClientMsg::Hello {
            version: PROTO_VERSION,
            tenant: tenant.to_owned(),
            precision: PRECISION,
            receivers: spec.receivers as u32,
            samples_per_block: spec.samples as u32,
        })?;
        match conn.recv()? {
            ServerMsg::Welcome {
                session_id,
                queue_depth,
                ..
            } => {
                conn.session_id = session_id;
                conn.window = (queue_depth as usize).clamp(1, 8);
                Ok(conn)
            }
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    fn seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), String> {
        self.send_bytes(&msg.encode())
    }

    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), String> {
        write_frame(&mut self.writer, payload).map_err(|e| format!("send: {e}"))
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        match read_frame_polling(&mut self.reader, || Instant::now() >= deadline) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn recv(&mut self) -> Result<ServerMsg, String> {
        let payload = self.recv_bytes()?;
        ServerMsg::decode(&payload).map_err(|e| e.to_string())
    }
}

/// One tenant's closed loop: blocks are sent while `now < end`, then the
/// window drains and the session finishes.
fn drive(
    addr: SocketAddr,
    tenant: usize,
    spec: &Spec,
    inputs: &Inputs,
    end: Instant,
    mut tracer: Option<Tracer>,
) -> TenantLog {
    let mut log = TenantLog {
        session_id: 0,
        records: Vec::with_capacity(1 << 14),
        error: None,
        tracer: None,
    };
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let outcome = (|| -> Result<(), String> {
        let mut conn = Conn::open(addr, &format!("tenant-{tenant}"), spec)?;
        log.session_id = conn.session_id;
        let (mut content, mut version, mut last_swap_at) = (INITIAL, 0u64, None);
        loop {
            while pending.len() < conn.window && Instant::now() < end {
                let sent_blocks = log.records.len() as u64;
                if let Some(every) = spec.retune_every {
                    if sent_blocks.is_multiple_of(every) && last_swap_at != Some(sent_blocks) {
                        if !pending.is_empty() {
                            break;
                        }
                        let next = if content == INITIAL {
                            0
                        } else {
                            (content + 1) % spec.weight_sets as u32
                        };
                        let seq = conn.seq();
                        conn.send(&ClientMsg::SwapWeights {
                            seq,
                            weights: inputs.weights[tenant][next as usize].clone(),
                        })?;
                        match conn.recv()? {
                            ServerMsg::SwapOk { .. } => {}
                            other => return Err(format!("expected SwapOk, got {other:?}")),
                        }
                        (content, version, last_swap_at) = (next, version + 1, Some(sent_blocks));
                    }
                }
                let index = log.records.len();
                let input = index % spec.input_blocks;
                let sent = Instant::now();
                let seq = conn.seq();
                let samples = inputs.blocks[tenant][input].clone();
                let payload = timed(&mut tracer, "client.encode_block", index as u64, || {
                    ClientMsg::Block { seq, samples }.encode()
                });
                timed(&mut tracer, "client.send", index as u64, || {
                    conn.send_bytes(&payload)
                })?;
                log.records.push(BlockRecord {
                    tenant,
                    input,
                    content,
                    version,
                    sent,
                    done: None,
                    server_latency_s: 0.0,
                    hash: 0,
                    throttles: 0,
                    failed: false,
                });
                pending.push((seq, index));
            }
            if pending.is_empty() {
                if Instant::now() >= end {
                    break;
                }
                continue;
            }
            let payload = timed(&mut tracer, "client.recv", NO_BLOCK, || conn.recv_bytes())?;
            let arrived = Instant::now();
            let msg = timed(&mut tracer, "client.decode_reply", NO_BLOCK, || {
                ServerMsg::decode(&payload)
            })
            .map_err(|e| e.to_string())?;
            let (seq, take) = match &msg {
                ServerMsg::Beams { seq, .. }
                | ServerMsg::Throttled { seq, .. }
                | ServerMsg::Error { seq, .. } => (*seq, true),
                _ => (0, false),
            };
            let slot = pending.iter().position(|&(s, _)| take && s == seq);
            let Some(slot) = slot else {
                return Err(format!("unexpected reply {msg:?}"));
            };
            let (_, index) = pending.swap_remove(slot);
            let record = &mut log.records[index];
            match msg {
                ServerMsg::Beams {
                    beams, latency_s, ..
                } => {
                    record.done = Some(arrived);
                    record.server_latency_s = latency_s;
                    // The fingerprint is taken here, in the loop: keeping
                    // every reply for later would take gigabytes.  Its cost
                    // shows as the `client.check` span of a traced run.
                    record.hash = timed(&mut tracer, "client.check", index as u64, || {
                        hash_matrix(&beams)
                    });
                    if let Some(t) = tracer.as_mut() {
                        t.record("block.round_trip", index as u64, record.sent, arrived);
                    }
                }
                ServerMsg::Throttled { .. } => {
                    std::thread::sleep(retry_backoff(
                        record.throttles,
                        conn.session_id ^ index as u64,
                    ));
                    record.throttles += 1;
                    let seq = conn.seq();
                    let samples = inputs.blocks[tenant][record.input].clone();
                    conn.send(&ClientMsg::Block { seq, samples })?;
                    pending.push((seq, index));
                }
                _ => record.failed = true,
            }
        }
        conn.send(&ClientMsg::Finish)?;
        match conn.recv()? {
            ServerMsg::Goodbye { .. } => {}
            other => return Err(format!("expected Goodbye, got {other:?}")),
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        for &(_, index) in &pending {
            log.records[index].failed = true;
        }
        log.error = Some(e);
    }
    log.tracer = tracer;
    log
}

/// One closed-loop phase of both tenants: warm-up, then `[start, end)`
/// measured.
struct Phase {
    logs: Vec<TenantLog>,
    start: Instant,
    end: Instant,
}

impl Phase {
    fn run(
        addr: SocketAddr,
        spec: &Spec,
        inputs: &Inputs,
        settings: &Settings,
        seconds: f64,
        origin: Option<Instant>,
    ) -> Phase {
        let start = Instant::now() + Duration::from_secs_f64(settings.warmup_s);
        let end = start + Duration::from_secs_f64(seconds);
        let logs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|tenant| {
                    let tracer = origin.map(Tracer::new);
                    scope.spawn(move || drive(addr, tenant, spec, inputs, end, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        Phase { logs, start, end }
    }

    fn records(&self) -> impl Iterator<Item = &BlockRecord> {
        self.logs.iter().flat_map(|l| l.records.iter())
    }

    /// `value` of every completed block sent after warm-up, in order of
    /// sending: one exact sample per block.
    fn per_block(&self, value: impl Fn(&BlockRecord, Instant) -> f64) -> Vec<f64> {
        let mut samples: Vec<(Instant, f64)> = self
            .records()
            .filter(|r| r.sent >= self.start && !r.failed)
            .filter_map(|r| r.done.map(|d| (r.sent, value(r, d))))
            .collect();
        samples.sort_by_key(|&(sent, _)| sent);
        samples.into_iter().map(|(_, v)| v).collect()
    }

    fn round_trips_ms(&self) -> Vec<f64> {
        self.per_block(|r, d| (d - r.sent).as_secs_f64() * 1e3)
    }

    /// Completions per second in the measured window.
    fn blocks_per_s(&self) -> f64 {
        let done: Vec<f64> = self
            .records()
            .filter(|r| !r.failed)
            .filter_map(|r| r.done)
            .filter(|&d| d >= self.start && d < self.end)
            .map(|d| (d - self.start).as_secs_f64())
            .collect();
        rate_per_s(&done)
    }

    fn attempted(&self) -> u64 {
        self.records().count() as u64
    }

    fn failed_or_missing(&self) -> u64 {
        self.records()
            .filter(|r| r.failed || r.done.is_none())
            .count() as u64
    }
}

/// Reference fingerprints from a directly built engine, keyed by
/// `(tenant, weights content, input block)`.
type References = BTreeMap<(usize, u32, usize), u64>;

/// Computes the reference output of every `(tenant, content, input)` the
/// phases used on an engine from `build_engine()`, and spot-checks that
/// engine against ccglib's reference GEMM once per weight matrix.
fn references(
    spec: &Spec,
    inputs: &Inputs,
    phases: &[&Phase],
    failures: &mut Vec<String>,
) -> Result<References, String> {
    let keys: BTreeSet<(usize, u32, usize)> = phases
        .iter()
        .flat_map(|p| p.records())
        .map(|r| (r.tenant, r.content, r.input))
        .collect();
    let mut engine = tcbf::BeamformerBuilder::new(GPU)
        .weights(inputs.initial.clone())
        .samples_per_block(spec.samples)
        .precision(PRECISION)
        .build_engine()
        .map_err(|e| e.to_string())?;
    let mut refs = References::new();
    let mut loaded = None;
    for (tenant, content, input) in keys {
        let weights = inputs.weights_for(tenant, content);
        let weights_key = if content == INITIAL {
            (0, INITIAL)
        } else {
            (tenant, content)
        };
        let fresh = loaded != Some(weights_key);
        if fresh {
            engine
                .swap_weights(WeightMatrix::from_matrix(weights.clone()))
                .map_err(|e| e.to_string())?;
            loaded = Some(weights_key);
        }
        let samples = &inputs.blocks[tenant][input];
        let output = engine
            .process_batch(&[samples])
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("engine returned no output")?;
        if fresh {
            if let Err(e) =
                kernel::check_against_reference(PRECISION, weights, samples, &output.beams, 8)
            {
                failures.push(e);
            }
        }
        refs.insert((tenant, content, input), hash_matrix(&output.beams));
    }
    Ok(refs)
}

/// Marks every completed block whose output differs from the reference
/// as failed; returns how many did.
fn verify(phase: &mut Phase, refs: &References) -> u64 {
    let mut wrong = 0;
    for record in phase.logs.iter_mut().flat_map(|l| l.records.iter_mut()) {
        if record.done.is_some() && !record.failed {
            let expected = refs.get(&(record.tenant, record.content, record.input));
            if expected != Some(&record.hash) {
                record.failed = true;
                wrong += 1;
            }
        }
    }
    wrong
}

/// `serve()` calls averaged into one set-up measurement: a single start
/// (pool build, bind, thread spawn) takes well under a millisecond at the
/// small shape and varies from call to call.
const SERVES_PER_SETUP: usize = 8;

/// Measures `serve()` `reps` times, each time as the mean over
/// [`SERVES_PER_SETUP`] servers started one after another (each shut down,
/// untimed, before the next starts), and keeps the last server for the
/// run.  Returns it with the median measurement.
fn start_server(spec: &Spec, inputs: &Inputs, reps: usize) -> Result<(ServerHandle, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..reps.max(1) {
        let mut total = 0.0;
        for _ in 0..SERVES_PER_SETUP {
            if let Some(old) = handle.take() {
                old.shutdown();
            }
            let config = spec.config(&inputs.initial);
            let t0 = Instant::now();
            let started = serve("127.0.0.1:0", config).map_err(|e| e.to_string())?;
            total += t0.elapsed().as_secs_f64();
            handle = Some(started);
        }
        times.push(total / SERVES_PER_SETUP as f64);
    }
    Ok((handle.expect("at least one start"), median(&times)))
}

/// Median time of `BeamformerBuilder::build_engine` at this shape.
fn build_engine_s(spec: &Spec, inputs: &Inputs, reps: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let builder = tcbf::BeamformerBuilder::new(GPU)
            .weights(inputs.initial.clone())
            .samples_per_block(spec.samples)
            .precision(PRECISION);
        let t0 = Instant::now();
        let engine = builder.build_engine().map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
        drop(engine);
    }
    Ok(median(&times))
}

pub fn run(spec: &Spec, settings: &Settings) -> Result<Outcome, String> {
    let inputs = Inputs::generate(spec, settings.seed);
    let (handle, setup_s) = start_server(spec, &inputs, settings.setup_reps)?;
    let addr = handle.addr();
    let ops = 8.0 * (spec.beams * spec.samples * spec.receivers) as f64;
    let mut failures = Vec::new();

    if !settings.trace {
        let mut phase = Phase::run(addr, spec, &inputs, settings, settings.seconds, None);
        let fleet = handle.shutdown();
        let rss_mb = peak_rss_mb();
        let refs = references(spec, &inputs, &[&phase], &mut failures)?;
        let wrong = verify(&mut phase, &refs);
        report_errors(&phase, &mut failures);
        let rtt = phase.round_trips_ms();
        let bps = phase.blocks_per_s();
        let (attempted, failed) = (phase.attempted(), phase.failed_or_missing());
        note(format!(
            "{}: {} blocks in {:.1} s, {} latency samples (p90 {:.3} ms, p99 of the whole \
             window {:.3} ms, p99.9 {:.3} ms), \
             {} throttled replies, {wrong} wrong outputs, error_frac={} (fraction)",
            spec.name,
            attempted,
            settings.seconds,
            rtt.len(),
            quantile(&rtt, 0.9),
            quantile(&rtt, 0.99),
            quantile(&rtt, 0.999),
            phase.records().map(|r| u64::from(r.throttles)).sum::<u64>(),
            failed as f64 / attempted.max(1) as f64
        ));
        note(format!(
            "predicted.aggregate_tops={} predicted.joules={} (gpu-sim model, not measured)",
            fleet.engines.aggregate_tops(),
            fleet.engines.total_joules()
        ));
        let mut m = Metrics::default();
        m.push("blocks_per_s", bps, "1/s");
        m.push("measured_gops", bps * ops / 1e9, "GOP/s");
        m.push("latency_p50_ms", median(&rtt), "ms");
        m.push("latency_p99_ms", sliced_quantile(&rtt, 0.99), "ms");
        m.push("setup_s", setup_s, "s");
        m.push("peak_rss_mb", rss_mb, "MB");
        return Ok(Outcome {
            attempted,
            failed,
            check_failures: failures,
            metrics: m,
        });
    }

    // Traced run: an untraced phase, then the same load with client spans,
    // then the single-thread replay of the traced phase's blocks.
    let half = settings.seconds / 2.0;
    let mut plain = Phase::run(addr, spec, &inputs, settings, half, None);
    let swaps_before = handle.fleet_report().engines.weight_swaps();
    let origin = Instant::now();
    let mut traced = Phase::run(addr, spec, &inputs, settings, half, Some(origin));
    let swaps = handle.fleet_report().engines.weight_swaps() - swaps_before;
    let fleet = handle.shutdown();
    let refs = references(spec, &inputs, &[&plain, &traced], &mut failures)?;
    let wrong = verify(&mut plain, &refs) + verify(&mut traced, &refs);
    report_errors(&plain, &mut failures);
    report_errors(&traced, &mut failures);

    let mut tracer = Tracer::new(origin);
    for log in &mut traced.logs {
        if let Some(t) = log.tracer.take() {
            tracer.absorb(t);
        }
    }
    let replayed = replay(spec, &inputs, &traced, &mut tracer, settings, &mut failures)?;
    let setup_serve_s = setup_s;
    let engine_s = build_engine_s(spec, &inputs, settings.setup_reps)?;

    let rtt = traced.round_trips_ms();
    let server_ms = traced.per_block(|r, _| r.server_latency_s * 1e3);
    let transport_ms =
        traced.per_block(|r, d| ((d - r.sent).as_secs_f64() - r.server_latency_s) * 1e3);
    let completed = traced.records().filter(|r| r.done.is_some()).count().max(1) as f64;
    let throttles: u64 = traced.records().map(|r| u64::from(r.throttles)).sum();
    let us = |name: &str| median(&tracer.durations_us(name));
    let service_us = us("pool.checkout")
        + mean(&tracer.durations_us("pool.ensure_weights"))
        + us("engine.process")
        + us("pool.check_in");
    let (server_p50, server_p99) = (median(&server_ms), sliced_quantile(&server_ms, 0.99));
    let queue_wait = server_p50 - service_us / 1e3;
    let kernel_us = us("gemm.kernel");
    let overhead = 1.0 - traced.blocks_per_s() / plain.blocks_per_s();

    let transport_p50 = median(&transport_ms);
    let live_p50 = median(&rtt);
    note(format!(
        "{}: latency_p50_ms={live_p50:.4} = transport {transport_p50:.4} + queue wait \
         {queue_wait:.4} + replayed service {:.4} (checkout, ensure_weights, process, \
         check_in) + unexplained {:.4} (medians do not add exactly)",
        spec.name,
        service_us / 1e3,
        live_p50 - transport_p50 - queue_wait - service_us / 1e3
    ));
    note(format!(
        "{}: client.check (output fingerprint, in the closed loop) p50 {:.2} us per block, \
         {:.2}% of the CPU time per block of 2 CPUs at the traced rate",
        spec.name,
        us("client.check"),
        us("client.check") * 1e-6 * traced.blocks_per_s() / 2.0 * 100.0
    ));
    note(format!(
        "{}: {} + {} blocks live, {} replayed, {wrong} wrong outputs; replay swaps/block {:.3} \
         vs live {:.3}",
        spec.name,
        plain.attempted(),
        traced.attempted(),
        replayed.blocks,
        replayed.swaps as f64 / replayed.blocks.max(1) as f64,
        swaps as f64 / completed
    ));
    note(format!(
        "predicted.aggregate_tops={} predicted.joules={} (gpu-sim model, not measured)",
        fleet.engines.aggregate_tops(),
        fleet.engines.total_joules()
    ));
    print_self_times(&tracer);
    write_trace(&tracer, spec.name, settings);

    let mut m = Metrics::default();
    m.push("wire.encode_block_us", us("wire.encode_block"), "us");
    m.push("wire.decode_block_us", us("wire.decode_block"), "us");
    m.push("wire.encode_beams_us", us("wire.encode_beams"), "us");
    m.push("wire.decode_beams_us", us("wire.decode_beams"), "us");
    m.push("wire.bytes_per_block", replayed.bytes_per_block, "bytes");
    m.push("server.latency_p50_ms", server_p50, "ms");
    m.push("server.latency_p99_ms", server_p99, "ms");
    m.push("transport.p50_ms", transport_p50, "ms");
    m.push("server.queue_wait_p50_ms", queue_wait, "ms");
    m.push(
        "server.throttled_per_block",
        throttles as f64 / completed,
        "count/block",
    );
    m.push(
        "pool.swaps_per_block",
        swaps as f64 / completed,
        "count/block",
    );
    m.push(
        "pool.ensure_weights_us",
        mean(&tracer.durations_us("pool.ensure_weights")),
        "us",
    );
    m.push("pool.checkout_us", us("pool.checkout"), "us");
    m.push("engine.process_us", us("engine.process"), "us");
    m.push("prepare.block_us", us("prepare.block"), "us");
    m.push("gemm.kernel_us", kernel_us, "us");
    m.push("gemm.gops_per_s", ops / kernel_us / 1e3, "GOP/s");
    m.push("gemm.ops", ops, "count");
    m.push("gemm.bytes_computed", replayed.bytes_computed, "bytes");
    m.push("par.fanout_us", us("par.fanout"), "us");
    m.push("app.doppler_us", 0.0, "us");
    m.push("app.self_us", 0.0, "us");
    m.push("setup.serve_s", setup_serve_s, "s");
    m.push("setup.build_engine_s", engine_s, "s");
    m.push("setup.model_build_s", 0.0, "s");
    m.push("trace.overhead_frac", overhead, "fraction");
    Ok(Outcome {
        attempted: plain.attempted() + traced.attempted() + replayed.blocks,
        failed: plain.failed_or_missing() + traced.failed_or_missing() + replayed.wrong,
        check_failures: failures,
        metrics: m,
    })
}

fn report_errors(phase: &Phase, failures: &mut Vec<String>) {
    for log in &phase.logs {
        if let Some(e) = &log.error {
            failures.push(format!("session {}: {e}", log.session_id));
        }
    }
}

struct Replayed {
    blocks: u64,
    wrong: u64,
    swaps: u64,
    bytes_per_block: f64,
    bytes_computed: f64,
}

/// Replays the traced phase's completed blocks, in completion order, on
/// one thread through the calls the server's reader and worker make, then
/// runs the same block through the kernel layers.  Every replayed output
/// must equal the live one.
fn replay(
    spec: &Spec,
    inputs: &Inputs,
    phase: &Phase,
    tracer: &mut Tracer,
    settings: &Settings,
    failures: &mut Vec<String>,
) -> Result<Replayed, String> {
    let cap = if settings.smoke {
        16
    } else {
        spec.replay_blocks
    };
    let mut order: Vec<(&BlockRecord, u64, Instant)> = phase
        .logs
        .iter()
        .flat_map(|l| {
            l.records
                .iter()
                .filter(|r| !r.failed)
                .filter_map(move |r| r.done.map(|d| (r, l.session_id, d)))
        })
        .collect();
    order.sort_by_key(|&(_, _, done)| done);
    order.truncate(cap);

    let pool = spec
        .config(&inputs.initial)
        .build_pool()
        .map_err(|e| e.to_string())?;
    let mut layers = KernelLayers::new(GPU, spec.shape(), PRECISION)?;
    let mut weights: BTreeMap<(usize, u32), (Arc<WeightMatrix>, ccglib::PreparedOperand)> =
        BTreeMap::new();
    let mut out = Replayed {
        blocks: 0,
        wrong: 0,
        swaps: 0,
        bytes_per_block: 0.0,
        bytes_computed: 0.0,
    };
    let mut bytes = 0usize;
    for (i, &(record, session_id, _)) in order.iter().enumerate() {
        let id = i as u64;
        let (w, prepared) = weights
            .entry((record.tenant, record.content))
            .or_insert_with(|| {
                let host = inputs.weights_for(record.tenant, record.content);
                (
                    Arc::new(WeightMatrix::from_matrix(host.clone())),
                    kernel::prepare_weights(PRECISION, host),
                )
            });
        let msg = ClientMsg::Block {
            seq: id,
            samples: inputs.blocks[record.tenant][record.input].clone(),
        };
        let request = tracer.time("wire.encode_block", id, || msg.encode());
        let samples = match tracer.time("wire.decode_block", id, || ClientMsg::decode(&request)) {
            Ok(ClientMsg::Block { samples, .. }) => samples,
            other => return Err(format!("block decoded as {other:?}")),
        };
        let mut slot = tracer
            .time("pool.checkout", id, || pool.checkout(PRECISION))
            .map_err(|e| e.to_string())?;
        let owner = slot.owner;
        tracer
            .time("pool.ensure_weights", id, || {
                slot.ensure_weights(session_id, record.version, w)
            })
            .map_err(|e| e.to_string())?;
        out.swaps += u64::from(slot.owner != owner);
        let output = tracer
            .time("engine.process", id, || {
                slot.engine.process_batch(&[&samples])
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("pool.check_in", id, || pool.check_in(PRECISION, slot))
            .map_err(|e| e.to_string())?;
        let beams = output
            .into_iter()
            .next()
            .ok_or("engine returned no output")?
            .beams;
        let reply = ServerMsg::Beams {
            seq: id,
            beams,
            latency_s: 0.0,
        };
        let response = tracer.time("wire.encode_beams", id, || reply.encode());
        let beams = match tracer.time("wire.decode_beams", id, || ServerMsg::decode(&response)) {
            Ok(ServerMsg::Beams { beams, .. }) => beams,
            other => return Err(format!("beams decoded as {other:?}")),
        };
        // Both frames carry a 4-byte length prefix.
        bytes += request.len() + response.len() + 8;
        let kernel_out = layers.run(tracer, id, prepared, &samples)?;
        out.blocks += 1;
        if hash_matrix(&beams) != record.hash || hash_matrix(&kernel_out) != record.hash {
            out.wrong += 1;
        }
    }
    if out.wrong > 0 {
        failures.push(format!(
            "{} of {} replayed blocks differ from the live output",
            out.wrong, out.blocks
        ));
    }
    out.bytes_per_block = bytes as f64 / out.blocks.max(1) as f64;
    out.bytes_computed = layers.bytes_computed;
    Ok(out)
}
