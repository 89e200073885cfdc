//! Simulator error types.

use std::fmt;

use crate::check::CheckReport;

/// Errors surfaced by the simulator's host-side API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A launch configuration violates a device limit, or the device
    /// itself fails [`crate::DeviceConfig::validate`].
    InvalidLaunch(String),
    /// The hazard checker found problems in the launched kernels: always
    /// for structural faults (divergent barriers, invalid device-side
    /// launches), and for every recorded hazard under
    /// [`crate::check::CheckLevel::Strict`]. The kernels' functional
    /// effects were already applied when this is returned.
    Hazard(CheckReport),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::Hazard(report) => write!(f, "hazards detected: {report}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::InvalidLaunch("block too big".into());
        assert!(e.to_string().contains("block too big"));
    }
}
