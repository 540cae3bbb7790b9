//! First-order CPU cost model (an i9-12900-class desktop part).
//!
//! The model prices an HDC workload with three ingredients:
//!
//! * **throughput** — `cores × SIMD lanes × frequency` element ops per
//!   second, where the number of SIMD lanes depends on the element width:
//!   native widths (32/16/8 bit) pack `simd_width / bits` lanes, but
//!   sub-byte elements gain nothing over 8-bit (general-purpose ISAs have no
//!   2-/4-bit arithmetic), and 1-bit only gets a modest XNOR/popcount boost;
//! * **dynamic energy per op** — roughly constant per element op for narrow
//!   data and slightly higher for 32-bit (wider datapaths and more cache
//!   traffic);
//! * **static power** — the package burns its idle share for as long as the
//!   workload runs, which penalizes configurations that execute more
//!   elements.

use crate::workload::HdcWorkload;
use crate::{CostEstimate, HwModelError, Result};
use serde::{Deserialize, Serialize};

/// Analytical CPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Number of physical cores used by the (parallelized) HDC kernels.
    pub cores: u32,
    /// Sustained all-core frequency in hertz.
    pub frequency_hz: f64,
    /// SIMD register width in bits (256 = AVX2).
    pub simd_width_bits: u32,
    /// Dynamic energy per 8-bit element op, in picojoules.
    pub energy_per_op_pj: f64,
    /// Static (package idle + uncore) power in watts.
    pub static_power_w: f64,
}

impl Default for CpuModel {
    /// An Intel i9-12900-class configuration: 16 cores at a 4 GHz sustained
    /// all-core clock with AVX2 and a ~25 W uncore/static share.
    fn default() -> Self {
        Self {
            cores: 16,
            frequency_hz: 4.0e9,
            simd_width_bits: 256,
            energy_per_op_pj: 2.0,
            static_power_w: 25.0,
        }
    }
}

impl CpuModel {
    /// Creates a model, validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::InvalidParameter`] for non-positive sizes.
    pub fn new(
        cores: u32,
        frequency_hz: f64,
        simd_width_bits: u32,
        energy_per_op_pj: f64,
        static_power_w: f64,
    ) -> Result<Self> {
        if cores == 0 || simd_width_bits == 0 {
            return Err(HwModelError::InvalidParameter(
                "cores and SIMD width must be non-zero".into(),
            ));
        }
        if !(frequency_hz > 0.0 && frequency_hz.is_finite()) {
            return Err(HwModelError::InvalidParameter(format!(
                "frequency must be positive, got {frequency_hz}"
            )));
        }
        if !(energy_per_op_pj > 0.0 && energy_per_op_pj.is_finite())
            || !(static_power_w >= 0.0 && static_power_w.is_finite())
        {
            return Err(HwModelError::InvalidParameter("invalid energy/power parameters".into()));
        }
        Ok(Self { cores, frequency_hz, simd_width_bits, energy_per_op_pj, static_power_w })
    }

    /// *Effective* sustained element lanes per core at a given bitwidth.
    ///
    /// HDC encode/train/query kernels are memory- and gather-bound on a CPU,
    /// so real sustained throughput per element is nearly flat across
    /// bitwidths: 32-bit data loses a little to cache pressure, sub-byte data
    /// gains almost nothing because commodity ISAs have no 2-/4-bit
    /// arithmetic and bit-packed 1-bit kernels pay pack/unpack overhead for
    /// their popcount advantage.  The element-count reduction from a smaller
    /// *effective dimensionality* — not the bitwidth — is what actually
    /// speeds up a CPU, which is exactly what Table I's CPU row shows.
    pub fn lanes(&self, bits: u32) -> f64 {
        let scale = f64::from(self.simd_width_bits) / 256.0;
        let base = match bits {
            32 => 8.0,
            16 => 9.0,
            8 => 10.0,
            4 | 2 => 10.0, // no sub-byte arithmetic on commodity CPUs
            1 => 10.5,     // XNOR/popcount minus packing overhead
            _ => 10.0,
        };
        base * scale
    }

    /// Element ops per second at a given bitwidth.
    pub fn ops_per_second(&self, bits: u32) -> f64 {
        f64::from(self.cores) * self.frequency_hz * self.lanes(bits)
    }

    /// Dynamic energy per element op (joules) at a given bitwidth.
    pub fn energy_per_op_j(&self, bits: u32) -> f64 {
        let pj = match bits {
            32 => self.energy_per_op_pj * 1.2,
            16 => self.energy_per_op_pj * 1.1,
            8 => self.energy_per_op_pj,
            4 | 2 => self.energy_per_op_pj, // stored sub-byte, computed as bytes
            1 => self.energy_per_op_pj * 0.95,
            _ => self.energy_per_op_pj,
        };
        pj * 1e-12
    }

    /// Latency and energy of one full training run.
    pub fn training_cost(&self, workload: &HdcWorkload) -> CostEstimate {
        self.cost(workload.training_ops(), workload.bits)
    }

    /// Latency and energy of classifying `samples` queries.
    pub fn inference_cost(&self, workload: &HdcWorkload, samples: usize) -> CostEstimate {
        self.cost(workload.inference_ops(samples), workload.bits)
    }

    fn cost(&self, ops: u64, bits: u32) -> CostEstimate {
        let ops = ops as f64;
        let latency_s = ops / self.ops_per_second(bits);
        let energy_j = ops * self.energy_per_op_j(bits) + latency_s * self.static_power_w;
        CostEstimate { latency_s, energy_j }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(dimension: usize, bits: u32) -> HdcWorkload {
        HdcWorkload::new(dimension, bits, 5, 100, 10_000, 20).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(CpuModel::new(0, 1e9, 256, 2.0, 10.0).is_err());
        assert!(CpuModel::new(8, 0.0, 256, 2.0, 10.0).is_err());
        assert!(CpuModel::new(8, 1e9, 256, 0.0, 10.0).is_err());
        assert!(CpuModel::new(8, 1e9, 256, 2.0, -1.0).is_err());
        assert!(CpuModel::new(8, 1e9, 256, 2.0, 10.0).is_ok());
    }

    #[test]
    fn narrow_widths_do_not_speed_up_a_cpu_much() {
        let cpu = CpuModel::default();
        // 4-bit and 2-bit fall back to byte lanes.
        assert_eq!(cpu.lanes(4), cpu.lanes(8));
        assert_eq!(cpu.lanes(2), cpu.lanes(8));
        // 32-bit has the fewest lanes, 1-bit the most.
        assert!(cpu.lanes(32) < cpu.lanes(8));
        assert!(cpu.lanes(1) > cpu.lanes(8));
    }

    #[test]
    fn latency_scales_with_ops_and_inverse_throughput() {
        let cpu = CpuModel::default();
        let small = cpu.training_cost(&workload(1_000, 8));
        let large = cpu.training_cost(&workload(2_000, 8));
        assert!((large.latency_s / small.latency_s - 2.0).abs() < 1e-9);
        assert!(large.energy_j > small.energy_j);
    }

    #[test]
    fn high_bitwidth_with_matched_accuracy_is_more_efficient_on_cpu() {
        // Table I's CPU row: with the paper's effective dimensionalities the
        // 32-bit configuration beats the 1-bit one because it runs 7x fewer
        // elements and sub-byte arithmetic brings no CPU speedup.
        let cpu = CpuModel::default();
        let cost_32 = cpu.training_cost(&workload(1_200, 32));
        let cost_1 = cpu.training_cost(&workload(8_800, 1));
        let ratio = cost_32.efficiency_over(&cost_1);
        assert!(
            ratio > 1.5 && ratio < 12.0,
            "32-bit CPU should be a few times more energy efficient, got {ratio}"
        );
    }

    #[test]
    fn inference_cost_scales_with_query_count() {
        let cpu = CpuModel::default();
        let w = workload(1_000, 8);
        let one = cpu.inference_cost(&w, 1_000);
        let ten = cpu.inference_cost(&w, 10_000);
        assert!((ten.latency_s / one.latency_s - 10.0).abs() < 1e-9);
    }
}
