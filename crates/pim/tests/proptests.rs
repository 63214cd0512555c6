//! Property-based tests: the PIM datapath must be bit-exact against
//! integer reference arithmetic for every precision and input (DESIGN.md §7).

use adq_pim::BitSerialMac;
use adq_quant::HwPrecision;
use proptest::prelude::*;

fn precision_strategy() -> impl Strategy<Value = HwPrecision> {
    prop_oneof![
        Just(HwPrecision::B2),
        Just(HwPrecision::B4),
        Just(HwPrecision::B8),
        Just(HwPrecision::B16),
    ]
}

proptest! {
    #[test]
    fn bit_serial_mac_is_exact(
        precision in precision_strategy(),
        seed in 0u64..10_000,
        len in 0usize..32,
    ) {
        let limit = (1u64 << precision.bits()) - 1;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % (limit + 1)
        };
        let weights: Vec<u64> = (0..len).map(|_| next()).collect();
        let acts: Vec<u64> = (0..len).map(|_| next()).collect();
        let mac = BitSerialMac::new(precision);
        let (value, stats) = mac.dot(&weights, &acts);
        prop_assert_eq!(value, BitSerialMac::dot_reference(&weights, &acts));
        // activity invariants
        let k = u64::from(precision.bits());
        prop_assert_eq!(stats.cycles, k);
        prop_assert_eq!(stats.cell_ops, len as u64 * k * k);
    }

    #[test]
    fn mac_energy_monotone_in_macs(macs_a in 0u64..1_000_000, macs_b in 0u64..1_000_000) {
        use adq_pim::PimEnergyModel;
        let model = PimEnergyModel::paper_table4();
        let (lo, hi) = if macs_a <= macs_b { (macs_a, macs_b) } else { (macs_b, macs_a) };
        prop_assert!(model.macs_uj(lo, HwPrecision::B8) <= model.macs_uj(hi, HwPrecision::B8));
    }
}
