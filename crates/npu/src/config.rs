//! The NPU configuration: trained network + normalization, and its `u32`
//! wire encoding.

use crate::NpuError;
use ann::{Mlp, Normalizer, Scratch, SigmoidLut, Topology};
use serde::{Deserialize, Serialize};

const MAGIC: u32 = 0x4E50_5531; // "NPU1"
const MAX_LAYERS: usize = 16;
const MAX_LAYER_SIZE: usize = 4096;

/// Everything the compiler ships to the NPU for one transformed region:
/// the network topology, its synaptic weights, and the input/output
/// normalization ranges the scaling unit applies (paper Sections 4.3, 6.2).
///
/// The wire format ([`encode`](Self::encode)/[`decode`](Self::decode)) is a
/// stream of `u32` words — exactly what a sequence of `enq.c` instructions
/// transports, and what `deq.c` reads back when the OS saves NPU state on a
/// context switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuConfig {
    mlp: Mlp,
    input_norm: Normalizer,
    output_norm: Normalizer,
}

impl NpuConfig {
    /// Bundles a trained network with its normalization ranges.
    ///
    /// # Panics
    ///
    /// Panics if the normalizer dimensions do not match the topology.
    pub fn new(mlp: Mlp, input_norm: Normalizer, output_norm: Normalizer) -> Self {
        assert_eq!(
            input_norm.dims(),
            mlp.topology().inputs(),
            "input normalizer dims mismatch"
        );
        assert_eq!(
            output_norm.dims(),
            mlp.topology().outputs(),
            "output normalizer dims mismatch"
        );
        NpuConfig {
            mlp,
            input_norm,
            output_norm,
        }
    }

    /// The trained network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.mlp.topology()
    }

    /// Input scaling ranges.
    pub fn input_norm(&self) -> &Normalizer {
        &self.input_norm
    }

    /// Output scaling ranges.
    pub fn output_norm(&self) -> &Normalizer {
        &self.output_norm
    }

    /// Functionally evaluates the configuration on raw application values:
    /// normalize, run the network with the hardware's LUT sigmoid,
    /// denormalize.
    ///
    /// These are the values one NPU invocation produces. The
    /// cycle-accurate [`NpuSim`](crate::NpuSim) models only *when* it
    /// produces them: its timing never depends on the values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the input dimensionality.
    pub fn evaluate(&self, inputs: &[f32]) -> Vec<f32> {
        let mut x = inputs.to_vec();
        let mut y = vec![0.0; self.topology().outputs()];
        self.evaluate_block(
            &mut Scratch::<1>::new(),
            &mut x,
            &mut y,
            SigmoidLut::hardware(),
        );
        y
    }

    /// Evaluates up to `W` invocations packed back to back in `inputs`
    /// (raw application values, normalized in place) into `outputs`
    /// (invocation-major, `n_outputs` each): the scaling unit's
    /// normalization, the `W`-lane forward kernel with `lut` as the
    /// sigmoid unit, then denormalization. An invocation's outputs do not
    /// depend on `W` or on its position in the block, so every caller
    /// ([`evaluate`](Self::evaluate), [`BatchEvaluator`](crate::BatchEvaluator),
    /// LUT-precision studies) computes the same values.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is not a whole number of invocations, holds more
    /// than `W` of them, or `inputs` does not hold exactly their inputs.
    pub fn evaluate_block<const W: usize>(
        &self,
        scratch: &mut Scratch<W>,
        inputs: &mut [f32],
        outputs: &mut [f32],
        lut: &SigmoidLut,
    ) {
        let n_in = self.topology().inputs();
        let n_out = self.topology().outputs();
        let lanes = outputs.len() / n_out;
        assert!(lanes <= W, "block larger than the lane count");
        assert_eq!(outputs.len(), lanes * n_out, "output block size mismatch");
        assert_eq!(inputs.len(), lanes * n_in, "invocation input size mismatch");
        let mut rows: [&[f32]; W] = [&[]; W];
        for (lane, row) in inputs.chunks_mut(n_in).enumerate() {
            self.input_norm.normalize(row);
            rows[lane] = row;
        }
        scratch.forward_block(&self.mlp, &rows[..lanes], outputs, |x| lut.eval(x));
        for row in outputs.chunks_mut(n_out) {
            self.output_norm.denormalize(row);
        }
    }

    /// Serializes to the `u32` configuration word stream.
    ///
    /// Layout: magic, layer count, layer sizes, input ranges (min,max as
    /// f32 bits per dimension), output ranges, then weights in canonical
    /// (layer-major, neuron-major, source-major, bias last) order. The
    /// NPU's static bus/PE schedule is re-derived deterministically from
    /// the topology on configuration, which carries the same information
    /// as shipping the schedule itself.
    pub fn encode(&self) -> Vec<u32> {
        let t = self.topology();
        let mut words = Vec::new();
        words.push(MAGIC);
        words.push(t.layers().len() as u32);
        for &n in t.layers() {
            words.push(n as u32);
        }
        for &(lo, hi) in self.input_norm.ranges() {
            words.push(lo.to_bits());
            words.push(hi.to_bits());
        }
        for &(lo, hi) in self.output_norm.ranges() {
            words.push(lo.to_bits());
            words.push(hi.to_bits());
        }
        for matrix in self.mlp.weight_matrices() {
            for &w in matrix {
                words.push(w.to_bits());
            }
        }
        words
    }

    /// Number of configuration words [`encode`](Self::encode) produces.
    pub fn encoded_len(&self) -> usize {
        let t = self.topology();
        2 + t.layers().len() + 2 * (t.inputs() + t.outputs()) + t.weight_count()
    }

    /// Deserializes a configuration word stream.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidConfig`] on a bad magic word, impossible
    /// layer structure, or truncated stream.
    pub fn decode(words: &[u32]) -> Result<Self, NpuError> {
        let mut it = words.iter().copied();
        let mut next = |what: &str| {
            it.next()
                .ok_or_else(|| NpuError::InvalidConfig(format!("truncated at {what}")))
        };
        if next("magic")? != MAGIC {
            return Err(NpuError::InvalidConfig("bad magic word".into()));
        }
        let n_layers = next("layer count")? as usize;
        if !(2..=MAX_LAYERS).contains(&n_layers) {
            return Err(NpuError::InvalidConfig(format!(
                "layer count {n_layers} out of range"
            )));
        }
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let n = next("layer size")? as usize;
            if n == 0 || n > MAX_LAYER_SIZE {
                return Err(NpuError::InvalidConfig(format!(
                    "layer size {n} out of range"
                )));
            }
            layers.push(n);
        }
        let topology = Topology::new(layers).map_err(|e| NpuError::InvalidConfig(e.to_string()))?;

        let read_ranges = |dims: usize,
                           next: &mut dyn FnMut(&str) -> Result<u32, NpuError>|
         -> Result<Normalizer, NpuError> {
            let mut ranges = Vec::with_capacity(dims);
            for _ in 0..dims {
                let lo = f32::from_bits(next("range min")?);
                let hi = f32::from_bits(next("range max")?);
                ranges.push((lo, hi));
            }
            Ok(Normalizer::new(ranges))
        };
        let input_norm = read_ranges(topology.inputs(), &mut next)?;
        let output_norm = read_ranges(topology.outputs(), &mut next)?;

        let mut matrices = Vec::new();
        for pair in topology.layers().windows(2) {
            let count = (pair[0] + 1) * pair[1];
            let mut m = Vec::with_capacity(count);
            for _ in 0..count {
                m.push(f32::from_bits(next("weight")?));
            }
            matrices.push(m);
        }
        if it.next().is_some() {
            return Err(NpuError::InvalidConfig(
                "trailing words after configuration".into(),
            ));
        }
        Ok(NpuConfig::new(
            Mlp::from_weights(topology, matrices),
            input_norm,
            output_norm,
        ))
    }

    /// Total length of the configuration stream whose prefix is `words`,
    /// once enough of the header is visible to compute it. `Ok(None)`
    /// means the header itself is still incomplete. This is how a
    /// receiver of `enq.c` words knows when a full configuration has
    /// arrived and can be [`decode`](Self::decode)d.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidConfig`] as soon as the prefix is
    /// provably malformed (bad magic, impossible layer structure).
    pub fn stream_len(words: &[u32]) -> Result<Option<usize>, NpuError> {
        if words.is_empty() {
            return Ok(None);
        }
        if words[0] != MAGIC {
            return Err(NpuError::InvalidConfig("bad magic word".into()));
        }
        if words.len() < 2 {
            return Ok(None);
        }
        let n_layers = words[1] as usize;
        if !(2..=MAX_LAYERS).contains(&n_layers) {
            return Err(NpuError::InvalidConfig(format!(
                "layer count {n_layers} out of range"
            )));
        }
        if words.len() < 2 + n_layers {
            return Ok(None);
        }
        let layers: Vec<usize> = words[2..2 + n_layers].iter().map(|&w| w as usize).collect();
        if layers.iter().any(|&n| n == 0 || n > MAX_LAYER_SIZE) {
            return Err(NpuError::InvalidConfig("layer size out of range".into()));
        }
        let weights: usize = layers.windows(2).map(|w| (w[0] + 1) * w[1]).sum();
        let ranges = 2 * (layers[0] + layers[n_layers - 1]);
        Ok(Some(2 + n_layers + ranges + weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> NpuConfig {
        let t = Topology::new(vec![3, 4, 2]).unwrap();
        NpuConfig::new(
            Mlp::seeded(t, 77),
            Normalizer::new(vec![(0.0, 1.0), (-2.0, 2.0), (5.0, 9.0)]),
            Normalizer::new(vec![(-1.0, 1.0), (0.0, 100.0)]),
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let config = sample_config();
        let words = config.encode();
        assert_eq!(words.len(), config.encoded_len());
        let decoded = NpuConfig::decode(&words).unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut words = sample_config().encode();
        words[0] = 0xDEAD_BEEF;
        assert!(matches!(
            NpuConfig::decode(&words),
            Err(NpuError::InvalidConfig(_))
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let words = sample_config().encode();
        for cut in [1, 5, words.len() - 1] {
            assert!(
                NpuConfig::decode(&words[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut words = sample_config().encode();
        words.push(0);
        assert!(NpuConfig::decode(&words).is_err());
    }

    #[test]
    fn bad_config_stream_is_rejected_early() {
        // One bad word is enough: a receiver of `enq.c` words need not
        // wait for the rest of the stream.
        assert!(matches!(
            NpuConfig::stream_len(&[0x1234_5678]),
            Err(NpuError::InvalidConfig(_))
        ));
        let words = sample_config().encode();
        assert_eq!(NpuConfig::stream_len(&words[..1]).unwrap(), None);
        assert_eq!(
            NpuConfig::stream_len(&words[..5]).unwrap(),
            Some(words.len())
        );
    }

    #[test]
    fn evaluate_applies_normalization() {
        let t = Topology::new(vec![1, 1]).unwrap();
        // Identity-ish network: output = sigmoid(w * x + b).
        let mlp = Mlp::from_weights(t, vec![vec![0.0, 0.0]]); // constant sigmoid(0) = 0.5
        let config = NpuConfig::new(
            mlp,
            Normalizer::new(vec![(0.0, 1.0)]),
            Normalizer::new(vec![(10.0, 20.0)]),
        );
        let y = config.evaluate(&[0.3]);
        assert!((y[0] - 15.0).abs() < 0.05); // 0.5 denormalized into [10, 20]
    }

    #[test]
    #[should_panic(expected = "input normalizer dims mismatch")]
    fn new_validates_dims() {
        let t = Topology::new(vec![2, 1]).unwrap();
        let _ = NpuConfig::new(
            Mlp::zeroed(t),
            Normalizer::identity(3),
            Normalizer::identity(1),
        );
    }
}
