//! Pins the host's libm: `ln`, `exp`, `powf`, `sin` and `cos` over a
//! fixed table drawn from the ranges the simulator's calls see. Every
//! golden digest rests on these five functions rounding as they do here;
//! a host whose libm rounds one input differently fails this test, by
//! name, before it fails `GOLDEN_HEAVY_FAULT_DIGEST`.

/// FNV-1a over the results' bits, in table order.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `n` points spread evenly over `[lo, hi]`.
fn spread(lo: f64, hi: f64, n: u32) -> impl Iterator<Item = f64> {
    (0..n).map(move |k| lo + (hi - lo) * f64::from(k) / f64::from(n - 1))
}

/// The inputs, by function, and where the simulator meets them.
fn table() -> Vec<(&'static str, f64, f64)> {
    let mut t = Vec::new();
    // `SimRng`: the polar method's ln s for s in (0, 1), −ln U, and the
    // Gumbel branch's ln(−ln U) for −ln U up to ≈ 40.
    t.extend(spread(0.001, 0.999, 64).map(|x| ("ln", x, 0.0)));
    t.extend(spread(0.01, 40.0, 32).map(|x| ("ln", x, 0.0)));
    // `SimRng::lognormal` (exp of a normal), `interference.rs`'s
    // occupancy `exp(−a)` for a ≥ 0.
    t.extend(spread(-10.0, 10.0, 64).map(|x| ("exp", x, 0.0)));
    t.extend(spread(-20.0, 0.0, 32).map(|x| ("exp", x, 0.0)));
    // `SimRng`: the gamma boost `u^(1/shape)` and GEV's `(−ln U)^(−ξ)`.
    for (k, u) in spread(0.001, 0.999, 32).enumerate() {
        t.push(("powf", u, 1.0 / (1.0 + (k % 8) as f64)));
    }
    for (k, x) in spread(0.01, 40.0, 32).enumerate() {
        t.push(("powf", x, -0.5 + (k % 11) as f64 / 10.0));
    }
    // `websearch.rs`: sin(0.1 i) over a tier's children; `diurnal.rs`:
    // cos of a day's phase.
    t.extend((0..128).map(|i| ("sin", f64::from(i) * 0.1, 0.0)));
    t.extend(spread(0.0, std::f64::consts::TAU, 96).map(|x| ("cos", x, 0.0)));
    t
}

#[test]
fn host_libm_rounds_as_the_golden_digests_expect() {
    let values = table().into_iter().map(|(f, x, y)| match f {
        "ln" => x.ln(),
        "exp" => x.exp(),
        "powf" => x.powf(y),
        "sin" => x.sin(),
        _ => x.cos(),
    });
    assert_eq!(
        digest(values),
        LIBM_DIGEST,
        "this host's libm rounds ln/exp/powf/sin/cos differently: the golden digests will not hold"
    );
}

/// FNV-1a of the table on x86-64 Linux (glibc), where the golden digests were recorded.
const LIBM_DIGEST: u64 = 0x4f80_6e13_944c_8487;
