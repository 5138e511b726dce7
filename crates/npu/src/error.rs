use std::error::Error;
use std::fmt;

/// Errors from configuring or driving the NPU.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NpuError {
    /// The configuration word stream failed to decode.
    InvalidConfig(String),
    /// A network does not fit the NPU's structures.
    CapacityExceeded {
        /// Which structure overflowed.
        structure: &'static str,
        /// Entries required by the network.
        needed: usize,
        /// Entries available in hardware.
        available: usize,
    },
    /// An enqueue hit a full FIFO (callers should check occupancy first;
    /// the core model stalls the instruction instead).
    FifoFull(&'static str),
}

impl fmt::Display for NpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NpuError::InvalidConfig(why) => write!(f, "invalid npu configuration: {why}"),
            NpuError::CapacityExceeded {
                structure,
                needed,
                available,
            } => write!(
                f,
                "network needs {needed} {structure} entries but hardware has {available}"
            ),
            NpuError::FifoFull(name) => write!(f, "{name} fifo is full"),
        }
    }
}

impl Error for NpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_message_names_structure() {
        let e = NpuError::CapacityExceeded {
            structure: "weight cache",
            needed: 600,
            available: 512,
        };
        assert!(e.to_string().contains("weight cache"));
        assert!(e.to_string().contains("600"));
    }
}
