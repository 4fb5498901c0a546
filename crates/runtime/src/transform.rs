//! The preprocessing transform of the live runtime.
//!
//! Stands in for JPEG decode + augmentation: an invertible byte-mixing pass
//! whose CPU cost is proportional to the sample size (times a configurable
//! work factor), so preprocessing-thread decisions have real, measurable
//! consequences. Invertibility gives tests an exact end-to-end integrity
//! check: applying the same passes again restores the canonical bytes.

/// Preprocess `input`, producing the "decoded" sample. `work_factor`
/// repeats the mixing pass (with a per-pass key) to emulate heavier
/// augmentation pipelines.
pub fn preprocess(input: &[u8], work_factor: u32) -> Vec<u8> {
    let mut out = input.to_vec();
    mix_passes(&mut out, work_factor);
    out
}

/// The `work_factor` mixing passes (at least one) over `buf`, in place.
fn mix_passes(buf: &mut [u8], work_factor: u32) {
    for pass in 0..work_factor.max(1) {
        mix(buf, pass);
    }
}

/// One in-place mixing pass: XOR with a position- and pass-keyed stream.
/// XOR passes are self-inverse and commute, so applying the same set of
/// passes again restores the input.
fn mix(buf: &mut [u8], pass: u32) {
    let mut key = 0x9E37u16 ^ (pass as u16).wrapping_mul(0x58F1);
    for (i, b) in buf.iter_mut().enumerate() {
        key = key.rotate_left(3) ^ (i as u16).wrapping_mul(0x2545);
        *b ^= (key >> 4) as u8;
    }
}

/// Invert [`preprocess`] in place: the passes are self-inverse, so this
/// runs the same passes again. The engine's consumers own each cooked
/// buffer and restore it here before fingerprinting it, with no copy.
pub fn invert_in_place(buf: &mut [u8], work_factor: u32) {
    mix_passes(buf, work_factor);
}

/// Invert [`preprocess`] into a fresh buffer.
pub fn invert(output: &[u8], work_factor: u32) -> Vec<u8> {
    let mut out = output.to_vec();
    invert_in_place(&mut out, work_factor);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::sample_bytes;
    use lobster_data::SampleId;

    #[test]
    fn transform_is_invertible() {
        let original = sample_bytes(SampleId(42), 1027);
        for wf in [1u32, 2, 5, 8] {
            let mut cooked = preprocess(&original, wf);
            assert_eq!(invert(&cooked, wf), original, "work_factor {wf}");
            invert_in_place(&mut cooked, wf);
            assert_eq!(cooked, original, "work_factor {wf}, in place");
        }
    }

    #[test]
    fn transform_changes_the_bytes() {
        let original = sample_bytes(SampleId(7), 512);
        for wf in [1u32, 2, 3] {
            let cooked = preprocess(&original, wf);
            assert_ne!(cooked, original, "work_factor {wf} must not be identity");
            assert_eq!(cooked.len(), original.len());
        }
    }

    #[test]
    fn transform_is_deterministic() {
        let original = sample_bytes(SampleId(9), 256);
        assert_eq!(preprocess(&original, 3), preprocess(&original, 3));
    }

    #[test]
    fn zero_work_factor_clamps_to_one() {
        let original = sample_bytes(SampleId(1), 64);
        assert_eq!(preprocess(&original, 0), preprocess(&original, 1));
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(preprocess(&[], 3).is_empty());
    }
}
