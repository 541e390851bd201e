//! splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA 2014): the workspace's one integer mixer. It routes
//! keys to partitions, spreads them over DRAM-cache sub-shards, derives a
//! bloom filter's second hash and draws the fault plan's decisions, so a
//! change here moves all four at once.

/// The golden-ratio increment splitmix64 adds before mixing (and by which
/// a splitmix64 stream advances its state).
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: add [`SPLITMIX64_GAMMA`] to `x`, then mix it with
/// [`splitmix64_finalize`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    splitmix64_finalize(x.wrapping_add(SPLITMIX64_GAMMA))
}

/// splitmix64's finalizer alone: a bijection of `u64` that decorrelates
/// neighbouring inputs (sequential key ids land far apart).
#[inline]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers pin the outputs bit for bit: partition routing,
    /// cache shards, bloom probes and fault streams hang on them.
    /// `splitmix64(0)` is the first output of the reference generator
    /// seeded with 0.
    #[test]
    fn outputs_match_the_known_answers() {
        let known = [
            (0, 0xe220_a839_7b1d_cdaf, 0),
            (1, 0x910a_2dec_8902_5cc1, 0x5692_161d_100b_05e5),
            (42, 0xbdd7_3226_2feb_6e95, 0xa759_ea27_d472_7622),
            (u64::MAX, 0xe4d9_7177_1b65_2c20, 0xb4d0_55fc_f2cb_bd7b),
        ];
        for (x, step, finalized) in known {
            assert_eq!(splitmix64(x), step, "splitmix64({x:#x})");
            assert_eq!(splitmix64_finalize(x), finalized, "finalize({x:#x})");
        }
    }
}
