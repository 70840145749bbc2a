//! Roofline analysis (paper Fig. 12).
//!
//! The roofline model bounds a kernel's achievable FLOP rate by
//! `min(peak, operational_intensity × DRAM bandwidth)`. Fig. 12 of the
//! paper places the forward and backward aggregation of each framework on
//! the 3090's roofline; this module computes those points from the
//! simulator's kernel profiles.

use crate::kernel::KernelProfile;
use crate::spec::DeviceSpec;
use crate::timeline::SimTime;

/// One kernel's position on the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// FLOPs per byte of DRAM (global-memory) traffic.
    pub operational_intensity: f64,
    /// Achieved GFLOP/s.
    pub achieved_gflops: f64,
    /// The bound at this intensity (memory or compute roof), GFLOP/s.
    pub roof_gflops: f64,
}

impl RooflinePoint {
    /// Places a kernel (profile + its simulated execution time) on the
    /// device's roofline.
    pub fn from_profile(device: &DeviceSpec, profile: &KernelProfile, time: SimTime) -> Self {
        let oi = if profile.bytes_global == 0 {
            f64::INFINITY
        } else {
            profile.flops as f64 / profile.bytes_global as f64
        };
        let achieved = if time == SimTime::ZERO {
            0.0
        } else {
            profile.flops as f64 / time.as_secs_f64() / 1e9
        };
        Self {
            operational_intensity: oi,
            achieved_gflops: achieved,
            roof_gflops: roof(device, oi),
        }
    }

    /// Fraction of the roof the kernel achieves, in `[0, 1]`-ish (small
    /// model error can nudge it slightly above 1).
    pub fn efficiency(&self) -> f64 {
        if self.roof_gflops == 0.0 {
            0.0
        } else {
            self.achieved_gflops / self.roof_gflops
        }
    }
}

/// The roofline bound at a given operational intensity, in GFLOP/s.
pub fn roof(device: &DeviceSpec, operational_intensity: f64) -> f64 {
    let mem_roof = operational_intensity * device.bw_global / 1e9;
    let compute_roof = device.peak_flops / 1e9;
    mem_roof.min(compute_roof)
}

/// The intensity at which the memory roof meets the compute roof
/// (the "ridge point"), in FLOP/byte.
pub fn ridge_point(device: &DeviceSpec) -> f64 {
    device.peak_flops / device.bw_global
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3090()
    }

    #[test]
    fn ridge_point_for_3090() {
        // 29.15 TFLOP/s over 938 GB/s ≈ 31 FLOP/byte.
        let r = ridge_point(&dev());
        assert!((r - 31.08).abs() < 0.5, "{r}");
    }

    #[test]
    fn roof_is_memory_bound_below_ridge() {
        let d = dev();
        let low = roof(&d, 1.0);
        assert!((low - 938.0).abs() < 1.0, "{low}");
        let high = roof(&d, 1000.0);
        assert!((high - 29_150.0).abs() < 1.0, "{high}");
    }

    #[test]
    fn point_from_profile() {
        let d = dev();
        let p = KernelProfile {
            flops: 2_000_000,
            bytes_global: 1_000_000,
            ..Default::default()
        };
        let pt = RooflinePoint::from_profile(&d, &p, SimTime::from_micros(10));
        assert!((pt.operational_intensity - 2.0).abs() < 1e-9);
        // 2 MFLOP in 10 us = 200 GFLOP/s.
        assert!((pt.achieved_gflops - 200.0).abs() < 1.0);
        assert!(pt.roof_gflops > pt.achieved_gflops);
        assert!(pt.efficiency() > 0.0 && pt.efficiency() < 1.0);
    }

    #[test]
    fn zero_time_and_zero_bytes_edge_cases() {
        let d = dev();
        let p = KernelProfile {
            flops: 100,
            bytes_global: 0,
            ..Default::default()
        };
        let pt = RooflinePoint::from_profile(&d, &p, SimTime::ZERO);
        assert!(pt.operational_intensity.is_infinite());
        assert_eq!(pt.achieved_gflops, 0.0);
    }
}
