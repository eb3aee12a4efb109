//! The layers inside one engine call, timed by calling ccglib and the
//! vendored rayon directly on the same block the engine just processed:
//! operand prepare (transpose and quantise), the GEMM micro-kernel, and the
//! per-call thread fan-out.  The GEMM output is returned so the caller can
//! check that this decomposition reproduces the engine bit for bit.

use crate::trace::Tracer;
use ccglib::matrix::HostComplexMatrix;
use ccglib::{Gemm, GemmInput, Precision, PreparedOperand};
use gpu_sim::{BitOp, Gpu};
use rayon::prelude::*;
use tcbf_types::{Complex32, GemmShape};

pub struct KernelLayers {
    precision: Precision,
    bit_op: BitOp,
    shape: GemmShape,
    fanout_rows: Vec<Complex32>,
    /// Bytes the GEMM reads and writes, computed from the operand sizes of
    /// the last block (not measured).
    pub bytes_computed: f64,
}

/// Quantises a host matrix the way the beamformer does for `precision`.
fn quantise(precision: Precision, host: &HostComplexMatrix) -> GemmInput {
    match precision {
        Precision::Int1 => GemmInput::quantise_int1(host),
        _ => GemmInput::quantise_f16(host),
    }
}

/// The operand the engine caches for its weights.
pub fn prepare_weights(precision: Precision, weights: &HostComplexMatrix) -> PreparedOperand {
    PreparedOperand::new(quantise(precision, weights))
}

impl KernelLayers {
    pub fn new(gpu: Gpu, shape: GemmShape, precision: Precision) -> Result<Self, String> {
        let gemm = Gemm::new(&gpu.device(), shape, precision).map_err(|e| e.to_string())?;
        Ok(KernelLayers {
            precision,
            bit_op: gemm.plan().bit_op(),
            shape,
            fanout_rows: vec![Complex32::ZERO; shape.m * shape.n],
            bytes_computed: 0.0,
        })
    }

    /// Runs one `K × N` block through prepare, kernel and an empty
    /// fan-out over the output rows, each in its own span.
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        block: u64,
        weights: &PreparedOperand,
        samples: &HostComplexMatrix,
    ) -> Result<HostComplexMatrix, String> {
        let precision = self.precision;
        let b = tracer.time("prepare.block", block, || {
            quantise(precision, &samples.transposed())
        });
        let out = tracer
            .time("gemm.kernel", block, || {
                ccglib::gemm::gemm_dispatch_prepared(weights, &b, self.bit_op)
            })
            .map_err(|e| e.to_string())?;
        let n = self.shape.n.max(1);
        let rows = &mut self.fanout_rows;
        tracer.time("par.fanout", block, || {
            rows.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
                std::hint::black_box((i, row));
            })
        });
        let output_bytes = (self.shape.m * self.shape.n * std::mem::size_of::<Complex32>()) as f64;
        self.bytes_computed =
            weights.input().device_bytes() as f64 + b.device_bytes() as f64 + output_bytes;
        Ok(out)
    }
}

/// The first `rows` rows of `m`.
fn top_rows(m: &HostComplexMatrix, rows: usize) -> HostComplexMatrix {
    let rows = rows.min(m.rows());
    HostComplexMatrix::from_fn(rows, m.cols(), |r, c| m.get(r, c))
}

/// Relative error allowed per output component of the f16 kernel, as a
/// share of `Σ_k |a_k|·|b_k|`.  Rounding each operand component to binary16
/// costs at most 2^-11 relative, so each real product at most 2·2^-11; the
/// two products in either component of `a_k·b_k` sum to at most `|a_k||b_k|`
/// (Cauchy–Schwarz), so the quantisation error of a component is at most
/// 2^-10·Σ_k |a_k||b_k|.  Twice that leaves room for f32 accumulation.
const F16_TOLERANCE: f32 = 1.0 / 512.0;

/// Spot-checks an engine output against ccglib's f32 reference GEMM on the
/// first `rows` output rows.  The reference sees the operands as the
/// engine's kernel does: sign-quantised for int1, so the result must be
/// exact; full precision for f16, so each component must be within
/// [`F16_TOLERANCE`] of the sum of operand magnitudes it reduces over.
pub fn check_against_reference(
    precision: Precision,
    weights: &HostComplexMatrix,
    samples: &HostComplexMatrix,
    output: &HostComplexMatrix,
    rows: usize,
) -> Result<(), String> {
    let a = top_rows(weights, rows);
    let b_t = samples.transposed();
    let (a, b_t) = match precision {
        Precision::Int1 => match (quantise(precision, &a), quantise(precision, &b_t)) {
            (GemmInput::Int1(a), GemmInput::Int1(b)) => (a.to_host(), b.to_host()),
            _ => return Err("int1 quantisation produced a non-int1 operand".into()),
        },
        _ => (a, b_t),
    };
    let reference = ccglib::reference_gemm(&a, &b_t).map_err(|e| e.to_string())?;
    if output.rows() < reference.rows() || output.cols() != reference.cols() {
        return Err(format!(
            "{precision} engine output is {}x{}, the reference {}x{}",
            output.rows(),
            output.cols(),
            reference.rows(),
            reference.cols()
        ));
    }
    for i in 0..reference.rows() {
        for j in 0..reference.cols() {
            let (got, want) = (output.get(i, j), reference.get(i, j));
            let diff = (got.re - want.re).abs().max((got.im - want.im).abs());
            let tol = match precision {
                Precision::Int1 => 0.0,
                _ => {
                    F16_TOLERANCE
                        * (0..a.cols())
                            .map(|k| a.get(i, k).abs() * b_t.get(j, k).abs())
                            .sum::<f32>()
                }
            };
            if diff.is_nan() || diff > tol {
                return Err(format!(
                    "{precision} engine output ({i}, {j}) differs from the reference GEMM \
                     by {diff} (tolerance {tol})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccglib::synth::pseudo_random_matrix;

    /// Weights, a block and a direct engine's output at a small shape.
    fn engine_output(
        precision: Precision,
    ) -> (HostComplexMatrix, HostComplexMatrix, HostComplexMatrix) {
        let (beams, receivers, samples) = (8, 64, 16);
        let weights = pseudo_random_matrix(beams, receivers, 7, 1.0 / 8.0);
        let block = pseudo_random_matrix(receivers, samples, 11, 1.0);
        let mut engine = tcbf::BeamformerBuilder::new(Gpu::A100)
            .weights(weights.clone())
            .samples_per_block(samples)
            .precision(precision)
            .build_engine()
            .unwrap();
        let output = engine
            .process_batch(&[&block])
            .unwrap()
            .pop()
            .unwrap()
            .beams;
        (weights, block, output)
    }

    #[test]
    fn f16_engine_passes_and_one_dropped_k_term_fails() {
        let (weights, block, output) = engine_output(Precision::Float16);
        check_against_reference(Precision::Float16, &weights, &block, &output, 8).unwrap();
        // Take out of output (0, 0) its median-sized reduction term.
        let term = |k: usize| weights.get(0, k) * block.get(k, 0);
        let mut ks: Vec<usize> = (0..weights.cols()).collect();
        ks.sort_by(|&x, &y| term(x).abs().total_cmp(&term(y).abs()));
        let k = ks[ks.len() / 2];
        let mut dropped = output.clone();
        dropped.set(0, 0, output.get(0, 0) - term(k));
        assert!(
            check_against_reference(Precision::Float16, &weights, &block, &dropped, 8).is_err()
        );
    }

    #[test]
    fn int1_engine_is_exact() {
        let (weights, block, output) = engine_output(Precision::Int1);
        check_against_reference(Precision::Int1, &weights, &block, &output, 8).unwrap();
        let mut off = output.clone();
        let v = output.get(3, 5);
        off.set(3, 5, tcbf_types::Complex::new(v.re + 1.0, v.im));
        assert!(check_against_reference(Precision::Int1, &weights, &block, &off, 8).is_err());
    }
}
