//! Property-based tests for the kernel definitions.

use proptest::prelude::*;
use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::verify::verify_words;
use triarch_simcore::Verification;

proptest! {
    /// Transposing twice is the identity for any dimensions.
    #[test]
    fn double_transpose_identity(rows in 1usize..48, cols in 1usize..48, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        let t = w.reference_transpose();
        let back = CornerTurnWorkload::from_data(cols, rows, t).unwrap().reference_transpose();
        prop_assert_eq!(back, w.source());
    }

    /// The tiled golden check accepts exactly the reference transpose:
    /// it agrees with a full comparison against it for any shape and any
    /// single corrupted word.
    #[test]
    fn verify_transpose_equals_full_comparison(
        rows in 1usize..80,
        cols in 1usize..80,
        spot in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        let reference = w.reference_transpose();
        prop_assert_eq!(w.verify_transpose(&reference), Verification::BitExact);
        let mut bad = reference.clone();
        bad[spot % reference.len()] ^= 0x8000_0001;
        prop_assert_eq!(w.verify_transpose(&bad), verify_words(&bad, &reference));
    }

    /// Every source element appears exactly once in the transpose.
    #[test]
    fn transpose_is_a_permutation(rows in 1usize..24, cols in 1usize..24, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        let mut a = w.source();
        let mut b = w.reference_transpose();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Beam-steering output length and determinism for arbitrary shapes.
    #[test]
    fn beam_steering_shape_and_determinism(
        elements in 1usize..200,
        directions in 1usize..6,
        dwells in 1usize..6,
        seed in any::<u64>(),
    ) {
        let w = BeamSteeringWorkload::new(elements, directions, dwells, seed).unwrap();
        let out = w.reference_output();
        prop_assert_eq!(out.len(), elements * directions * dwells);
        prop_assert_eq!(&out, &w.reference_output());
    }

    /// The per-output phase equation matches the batch output at every
    /// index (cross-validation of the two code paths).
    #[test]
    fn beam_steering_pointwise_matches_batch(
        elements in 1usize..64,
        seed in any::<u64>(),
    ) {
        let w = BeamSteeringWorkload::new(elements, 2, 2, seed).unwrap();
        let out = w.reference_output();
        let mut idx = 0;
        for dwell in 0..w.dwells() {
            let dwell_base = (dwell as i32).wrapping_mul(w.dwell_stride());
            for d in 0..w.directions() {
                let mut acc = w.steer_bias();
                for e in 0..w.elements() {
                    prop_assert_eq!(out[idx], w.phase(e, d, dwell_base, &mut acc));
                    idx += 1;
                }
            }
        }
    }
}
