//! Output checks against the CPU references, and the Report digest that
//! shows whether the model moved.

use npar_sim::{Report, SimStats};

/// FNV-1a over bytes: stable across processes and platforms.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of everything a Report models: cycles and seconds, launch
/// counts, and every per-kernel metric and stall bucket. The host-side
/// `Report::sim` statistics are zeroed first, as npar-serve does, so the
/// digest is a pure function of the modeled execution.
pub fn report_digest(report: &Report) -> u64 {
    let mut r = report.clone();
    r.sim = SimStats::default();
    let text = serde_json::to_string(&r).expect("Report renders as JSON");
    fnv(text.as_bytes(), FNV_SEED)
}

/// Fold a sequence of digests (order matters).
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_SEED, |h, d| fnv(&d.to_le_bytes(), h))
}

pub fn exact<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("index {i}: {:?} != {:?}", got[i], want[i])),
    }
}

/// Element-wise `|got - want| <= tol * max(1, |want|)`.
pub fn close(got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| (a - b).abs() > tol * b.abs().max(1.0) || a.is_nan())
    {
        None => Ok(()),
        Some(i) => Err(format!("index {i}: {} vs {}", got[i], want[i])),
    }
}

pub fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_host_stats_only() {
        let mut a = Report {
            cycles: 10.0,
            ..Default::default()
        };
        let d = report_digest(&a);
        a.sim.wall_seconds = 3.0;
        assert_eq!(report_digest(&a), d);
        a.device_launches = 1;
        assert_ne!(report_digest(&a), d);
    }

    #[test]
    fn checks_name_the_first_mismatch() {
        assert!(exact(&[1, 2], &[1, 2]).is_ok());
        assert!(exact(&[1, 3], &[1, 2]).unwrap_err().contains("index 1"));
        assert!(close(&[1.0 + 1e-9], &[1.0], 1e-6).is_ok());
        assert!(close(&[1.1], &[1.0], 1e-6).is_err());
        assert!(close(&[f64::NAN], &[1.0], 1e-6).is_err());
        assert_ne!(fold([1, 2]), fold([2, 1]));
    }
}
