//! How the core's queue instructions connect to an NPU model.

use npu::NpuSim;

/// What sits on the other side of the `enq`/`deq` queues.
#[derive(Debug)]
pub enum NpuAttachment {
    /// No NPU: queue instructions behave as 1-cycle no-ops (useful for
    /// pure-CPU baselines whose traces contain no queue instructions
    /// anyway).
    None,
    /// The cycle-accurate NPU, on the core's clock (paper:
    /// "the NPU operates at the same frequency and voltage as the main
    /// core").
    Cycle(Box<NpuSim>),
    /// A hypothetical zero-latency, zero-energy NPU (the paper's
    /// "Core + Ideal NPU" bars in Figure 8): outputs become available the
    /// cycle the invocation's last input arrives.
    Ideal {
        /// Inputs per invocation.
        n_inputs: usize,
        /// Outputs per invocation.
        n_outputs: usize,
        /// Inputs received toward the current invocation.
        pending_inputs: usize,
    },
}

impl NpuAttachment {
    /// An ideal NPU for a region with the given arity.
    pub fn ideal(n_inputs: usize, n_outputs: usize) -> Self {
        NpuAttachment::Ideal {
            n_inputs,
            n_outputs,
            pending_inputs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_attachment_constructor() {
        let a = NpuAttachment::ideal(9, 1);
        match a {
            NpuAttachment::Ideal {
                n_inputs,
                n_outputs,
                pending_inputs,
            } => {
                assert_eq!((n_inputs, n_outputs, pending_inputs), (9, 1, 0));
            }
            _ => panic!("wrong variant"),
        }
    }
}
