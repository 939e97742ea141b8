//! Property-based tests: compression must be lossless for arbitrary inputs.

use gear_compress::{
    compress, compress_blocks, compress_with, compressed_size, decompress, decompress_with,
    Level, FRAME_OVERHEAD,
};
use gear_par::Pool;
use proptest::prelude::*;

fn any_level() -> impl Strategy<Value = Level> {
    prop_oneof![Just(Level::Fast), Just(Level::Default), Just(Level::Best)]
}

proptest! {
    /// Arbitrary bytes survive a compress/decompress roundtrip at any level.
    #[test]
    fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096), level in any_level()) {
        let framed = compress(&data, level);
        prop_assert_eq!(decompress(&framed).unwrap(), data);
    }

    /// Highly repetitive input roundtrips and shrinks.
    #[test]
    fn roundtrip_repetitive(byte in any::<u8>(), reps in 64usize..4096, level in any_level()) {
        let data = vec![byte; reps];
        let framed = compress(&data, level);
        prop_assert!(framed.len() < data.len() + FRAME_OVERHEAD);
        prop_assert_eq!(decompress(&framed).unwrap(), data);
    }

    /// The frame never expands input by more than the fixed header.
    #[test]
    fn bounded_expansion(data in proptest::collection::vec(any::<u8>(), 0..2048), level in any_level()) {
        let framed = compress(&data, level);
        prop_assert!(framed.len() <= data.len() + FRAME_OVERHEAD);
    }

    /// `compressed_size` agrees exactly with `compress().len()`.
    #[test]
    fn size_estimate_exact(data in proptest::collection::vec(any::<u8>(), 0..2048), level in any_level()) {
        prop_assert_eq!(compressed_size(&data, level), compress(&data, level).len());
    }

    /// The match finder keeps its tables from call to call: whatever a
    /// thread compressed before, each input yields the frame (and the
    /// count-only size) a thread that never compressed anything gives. The
    /// four-letter alphabet makes every input share hash chains with its
    /// predecessors.
    #[test]
    fn earlier_inputs_on_the_thread_never_change_a_frame(
        inputs in proptest::collection::vec(
            (proptest::collection::vec(0u8..4, 0..1500), any_level()),
            1..8,
        ),
    ) {
        for (data, level) in &inputs {
            let fresh = std::thread::scope(|scope| {
                scope.spawn(|| compress(data, *level)).join().expect("compressor panicked")
            });
            prop_assert_eq!(&compress(data, *level), &fresh);
            prop_assert_eq!(compressed_size(data, *level), fresh.len());
        }
    }

    /// Corrupting any single payload byte is detected (never mis-decodes
    /// silently to the original).
    #[test]
    fn corruption_never_silently_accepted(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut framed = compress(&data, Level::Default);
        let i = FRAME_OVERHEAD + idx.index(framed.len() - FRAME_OVERHEAD);
        framed[i] ^= flip;
        match decompress(&framed) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, data, "corruption silently produced original"),
        }
    }

    /// The decoder never panics on fully arbitrary bytes — truncated,
    /// garbage, or adversarial headers all come back as `Err`, and bytes
    /// that happen to start with a valid magic still decode safely.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        mut frame in proptest::collection::vec(any::<u8>(), 0..512),
        magic in 0u8..3,
    ) {
        // Bias a third of the cases toward each frame magic so header
        // parsing (not just magic rejection) is exercised.
        if frame.len() >= 4 {
            match magic {
                1 => frame[..4].copy_from_slice(b"GZc1"),
                2 => frame[..4].copy_from_slice(b"GZc2"),
                _ => {}
            }
        }
        let _ = decompress(&frame);
        let _ = decompress_with(&frame, &Pool::new(4));
    }

    /// Corrupting any single byte of a multi-block frame — header, table,
    /// or payload — never panics and never silently decodes to the input.
    #[test]
    fn block_frame_corruption_never_panics(
        data in proptest::collection::vec(any::<u8>(), 256..2048),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        // Small block size forces the multi-block format on modest input.
        let mut framed = compress_blocks(&data, Level::Fast, 128, &Pool::serial());
        let i = idx.index(framed.len());
        framed[i] ^= flip;
        match decompress(&framed) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, data, "corruption silently produced original"),
        }
    }

    /// 1, 2, and 8 workers produce byte-identical frames, and a frame
    /// compressed at any worker count decodes at any other.
    #[test]
    fn cross_worker_bit_identity(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        level in any_level(),
    ) {
        let serial = compress_with(&data, level, &Pool::serial());
        for workers in [2usize, 8] {
            let pool = Pool::new(workers);
            prop_assert_eq!(&compress_with(&data, level, &pool), &serial);
            prop_assert_eq!(decompress_with(&serial, &pool).unwrap(), data.clone());
        }
        prop_assert_eq!(decompress(&serial).unwrap(), data);
    }

    /// Same property through the explicit block entry point: a block size
    /// small enough to split these inputs, swept across worker counts.
    #[test]
    fn cross_worker_bit_identity_blocks(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        block_size in 64usize..512,
    ) {
        let serial = compress_blocks(&data, Level::Fast, block_size, &Pool::serial());
        for workers in [2usize, 8] {
            let pool = Pool::new(workers);
            prop_assert_eq!(&compress_blocks(&data, Level::Fast, block_size, &pool), &serial);
            prop_assert_eq!(decompress_with(&serial, &pool).unwrap(), data.clone());
        }
        prop_assert_eq!(decompress(&serial).unwrap(), data);
    }
}
