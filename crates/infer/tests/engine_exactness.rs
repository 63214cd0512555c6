//! Bit-exactness of the integer engine's served logits.
//!
//! Each case lowers the seeded `Vgg::small(3, 16, 10)` at one per-layer
//! bit schedule and pins an FNV-1a digest of the `f32` bits of
//! `CompiledNet::run`'s logits, at batch 1 and at batch 8. The four
//! schedules between them put every container (nibble, u8, u16) under
//! both pooled and unpooled convolutions, so any change to the gather,
//! the integer GEMM, the requantization arithmetic or the fused pool that
//! moves a single logit bit fails here. The digests were recorded from
//! the engine before the gather, requantization and pool were fused into
//! one layer pass.
//!
//! Both models lower through the same `CompiledNet`. The ResNet cases pin
//! a seeded `ResNet::tiny` the same way, at four schedules that include a
//! 2-bit junction, so the residual junction — which runs in the second
//! conv's output pass and encodes straight into the next stage's codes —
//! and the global average pool are held bit for bit as well. Their
//! digests were recorded from the engine before the junction moved onto
//! the code chain, when it still ran on float tensors.

use adq_infer::{CompileOptions, CompiledNet};
use adq_nn::{QuantModel, ResNet, Vgg};
use adq_quant::BitWidth;
use adq_tensor::{init, Tensor};

/// FNV-1a (64-bit) over the little-endian bytes of each logit's bits.
fn digest(logits: &Tensor) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in logits.data() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `(batch-1 digest, batch-8 digest)` of the model at `bits`.
fn digests(bits: [u32; 7]) -> (u64, u64) {
    let mut model = Vgg::small(3, 16, 10, 11);
    for (index, &b) in bits.iter().enumerate() {
        model.set_bits_of(index, Some(BitWidth::new(b).unwrap()));
    }
    let mut rng = init::rng(12);
    let calibration = init::normal(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    let compiled = CompiledNet::compile(&model, &calibration, CompileOptions::default()).unwrap();
    let images = init::normal(&[8, 3, 16, 16], 0.0, 1.0, &mut rng);
    let one = images.index_axis0(0).reshaped(&[1, 3, 16, 16]).unwrap();
    (digest(&compiled.run(&one)), digest(&compiled.run(&images)))
}

fn check(bits: [u32; 7], want: (u64, u64)) {
    let got = digests(bits);
    assert_eq!(
        got, want,
        "logit digests at bits {bits:?} moved: got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn uniform_int8_logits_are_unchanged() {
    check([8; 7], (0xd732_7b2a_babe_16b6, 0x3e24_0621_77e7_6191));
}

#[test]
fn table2_mixed_schedule_logits_are_unchanged() {
    check(
        [16, 4, 3, 2, 3, 3, 16],
        (0xeab9_7ae1_410c_7788, 0x7ab2_9bd3_9ac1_3568),
    );
}

#[test]
fn widening_then_narrowing_schedule_logits_are_unchanged() {
    check(
        [2, 4, 8, 16, 8, 4, 2],
        (0xbee4_e55f_68be_71f2, 0x59c6_55cf_049e_cb15),
    );
}

#[test]
fn uniform_int16_logits_are_unchanged() {
    check([16; 7], (0xa7b5_1eee_724a_c683, 0xf5c0_a15e_ab65_0cbd));
}

/// `(batch-1 digest, batch-8 digest)` of the seeded `ResNet::tiny(3, 8,
/// 4)` at `bits`, in layer order `[stem, (conv1, conv2, junction) × 2,
/// fc]`. Block 0 has an identity skip, block 1 a strided projection.
fn resnet_digests(bits: [u32; 8]) -> (u64, u64) {
    let mut model = ResNet::tiny(3, 8, 4, 21);
    for (index, &b) in bits.iter().enumerate() {
        model.set_bits_of(index, Some(BitWidth::new(b).unwrap()));
    }
    let mut rng = init::rng(22);
    let calibration = init::normal(&[16, 3, 8, 8], 0.0, 1.0, &mut rng);
    let compiled = CompiledNet::compile(&model, &calibration, CompileOptions::default()).unwrap();
    let images = init::normal(&[8, 3, 8, 8], 0.0, 1.0, &mut rng);
    let one = images.index_axis0(0).reshaped(&[1, 3, 8, 8]).unwrap();
    (digest(&compiled.run(&one)), digest(&compiled.run(&images)))
}

fn check_resnet(bits: [u32; 8], want: (u64, u64)) {
    let got = resnet_digests(bits);
    assert_eq!(
        got, want,
        "ResNet logit digests at bits {bits:?} moved: got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn resnet_uniform_int8_logits_are_unchanged() {
    check_resnet([8; 8], (0x0cd0_2f45_774f_d49f, 0x8085_0355_d03e_9b07));
}

#[test]
fn resnet_uniform_int16_logits_are_unchanged() {
    check_resnet([16; 8], (0x76f5_5f87_4c18_1dbc, 0x7d8b_7132_f6bc_f5ba));
}

#[test]
fn resnet_mixed_schedule_with_a_2_bit_junction_logits_are_unchanged() {
    check_resnet(
        [16, 4, 8, 2, 4, 3, 2, 16],
        (0x43a5_3540_f652_02ca, 0x930a_60af_75e9_1f83),
    );
}

#[test]
fn resnet_widening_then_narrowing_schedule_logits_are_unchanged() {
    check_resnet(
        [2, 4, 8, 16, 8, 4, 3, 2],
        (0x5b0c_8862_5993_8468, 0x1ee7_4a56_467e_1e84),
    );
}
