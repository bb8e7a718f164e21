//! Property-based tests for the arithmetic substrate.

use eva_math::modulus::Modulus;
use eva_math::ntt::{negacyclic_multiply_naive, NttTables};
use eva_math::primes::generate_ntt_primes;
use eva_math::{Complex, SpecialFft};
use proptest::prelude::*;

fn arb_modulus() -> impl Strategy<Value = Modulus> {
    // A spread of interesting prime moduli between 2 and 61 bits.
    prop::sample::select(vec![
        3u64,
        257,
        65537,
        (1 << 30) - 35,
        (1 << 40) - 87,
        (1 << 50) - 27,
        2_305_843_009_213_693_951, // 2^61 - 1
    ])
    .prop_map(|q| Modulus::new(q).unwrap())
}

proptest! {
    #[test]
    fn barrett_reduction_matches_u128_remainder(q in arb_modulus(), z in any::<u128>()) {
        prop_assert_eq!(q.reduce_u128(z) as u128, z % q.value() as u128);
    }

    #[test]
    fn modular_mul_is_commutative_and_associative(
        q in arb_modulus(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let (a, b, c) = (q.reduce(a), q.reduce(b), q.reduce(c));
        prop_assert_eq!(q.mul(a, b), q.mul(b, a));
        prop_assert_eq!(q.mul(q.mul(a, b), c), q.mul(a, q.mul(b, c)));
        // Distributivity over addition.
        prop_assert_eq!(q.mul(a, q.add(b, c)), q.add(q.mul(a, b), q.mul(a, c)));
    }

    #[test]
    fn modular_inverse_is_two_sided(q in arb_modulus(), a in 1u64..u64::MAX) {
        let a = q.reduce(a);
        if a != 0 {
            if let Some(inv) = q.inv(a) {
                prop_assert_eq!(q.mul(a, inv), 1);
                prop_assert_eq!(q.mul(inv, a), 1);
            }
        }
    }

    #[test]
    fn shoup_multiplication_matches_barrett(q in arb_modulus(), a in any::<u64>(), c in any::<u64>()) {
        let a = q.reduce(a);
        let c = q.reduce(c);
        let pre = q.shoup(c);
        prop_assert_eq!(q.mul_shoup(a, &pre), q.mul(a, c));
    }
}

/// Strict reference forward NTT: the pre-lazy Longa–Naehrig loop that reduces
/// to canonical `[0, q)` after every butterfly. The lazy Harvey kernels in
/// `NttTables` must produce bit-identical output.
fn forward_reference(values: &mut [u64], q: &Modulus, psi: u64) {
    let n = values.len();
    let log_n = n.trailing_zeros();
    let bit_reverse = |mut v: usize, bits: u32| {
        let mut r = 0usize;
        for _ in 0..bits {
            r = (r << 1) | (v & 1);
            v >>= 1;
        }
        r
    };
    // roots[bitrev(i)] = psi^i
    let mut roots = vec![0u64; n];
    let mut power = 1u64;
    for i in 0..n {
        roots[i] = power;
        power = q.mul(power, psi);
    }
    let roots: Vec<u64> = (0..n).map(|i| roots[bit_reverse(i, log_n)]).collect();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        for i in 0..m {
            let j1 = 2 * i * t;
            let s = roots[m + i];
            for j in j1..j1 + t {
                let u = values[j];
                let v = q.mul(values[j + t], s);
                values[j] = q.add(u, v);
                values[j + t] = q.sub(u, v);
            }
        }
        m <<= 1;
    }
}

/// Strict reference inverse NTT (canonical reduction after every butterfly).
fn inverse_reference(values: &mut [u64], q: &Modulus, psi: u64) {
    let n = values.len();
    let log_n = n.trailing_zeros();
    let bit_reverse = |mut v: usize, bits: u32| {
        let mut r = 0usize;
        for _ in 0..bits {
            r = (r << 1) | (v & 1);
            v >>= 1;
        }
        r
    };
    let psi_inv = q.inv(psi).unwrap();
    let mut roots = vec![0u64; n];
    let mut power = 1u64;
    for i in 0..n {
        roots[i] = power;
        power = q.mul(power, psi_inv);
    }
    let roots: Vec<u64> = (0..n).map(|i| roots[bit_reverse(i, log_n)]).collect();
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let h = m >> 1;
        let mut j1 = 0usize;
        for i in 0..h {
            let s = roots[h + i];
            for j in j1..j1 + t {
                let u = values[j];
                let v = values[j + t];
                values[j] = q.add(u, v);
                values[j + t] = q.mul(q.sub(u, v), s);
            }
            j1 += 2 * t;
        }
        t <<= 1;
        m = h;
    }
    let inv_n = q.inv(n as u64).unwrap();
    for v in values.iter_mut() {
        *v = q.mul(*v, inv_n);
    }
}

/// Recovers the 2N-th root ψ the tables were built from: the forward
/// transform of the polynomial X lists powers of ψ, and slot 0 holds ψ itself
/// (the bit-reversed ordering starts at ψ^1).
fn find_matching_psi(tables: &NttTables, degree: usize) -> u64 {
    let q = *tables.modulus();
    let mut probe = vec![0u64; degree];
    probe[1] = 1;
    tables.forward(&mut probe);
    let psi = probe[0];
    // Sanity: ψ must be a primitive 2N-th root of unity.
    assert_eq!(q.pow(psi, degree as u64), q.value() - 1);
    psi
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The lazy Harvey NTT must be bit-identical to the strict reference path
    // across the full parameter envelope the CKKS backend uses: 30/40/50/60
    // bit moduli and ring degrees 64..=4096.
    #[test]
    fn lazy_ntt_bit_identical_to_strict_reference(
        bits in prop::sample::select(vec![30u32, 40, 50, 60]),
        log_degree in 6u32..=12,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let degree = 1usize << log_degree;
        let q_val = generate_ntt_primes(degree, &[bits]).unwrap()[0];
        let q = Modulus::new(q_val).unwrap();
        let tables = NttTables::new(degree, q).unwrap();
        let psi = find_matching_psi(&tables, degree);

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let input: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q_val)).collect();

        let mut lazy = input.clone();
        tables.forward(&mut lazy);
        let mut strict = input.clone();
        forward_reference(&mut strict, &q, psi);
        prop_assert_eq!(&lazy, &strict);

        let mut lazy_back = lazy.clone();
        tables.inverse(&mut lazy_back);
        let mut strict_back = strict.clone();
        inverse_reference(&mut strict_back, &q, psi);
        prop_assert_eq!(&lazy_back, &strict_back);
        prop_assert_eq!(&lazy_back, &input);
    }

    // Lazy range invariants hold for arbitrary canonical inputs: forward_lazy
    // stays under 4q, inverse_lazy stays under 2q, and correcting the lazy
    // outputs reproduces the canonical transforms exactly.
    #[test]
    fn lazy_transforms_respect_range_invariants(
        bits in prop::sample::select(vec![30u32, 50, 60]),
        log_degree in 6u32..=11,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let degree = 1usize << log_degree;
        let q_val = generate_ntt_primes(degree, &[bits]).unwrap()[0];
        let q = Modulus::new(q_val).unwrap();
        let tables = NttTables::new(degree, q).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let input: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q_val)).collect();

        let mut lazy = input.clone();
        tables.forward_lazy(&mut lazy);
        prop_assert!(lazy.iter().all(|&v| (v as u128) < 4 * q_val as u128));
        let mut canonical = input.clone();
        tables.forward(&mut canonical);
        let corrected: Vec<u64> = lazy.iter().map(|&v| q.reduce_twice(v)).collect();
        prop_assert_eq!(corrected, canonical.clone());

        let mut lazy_inv = canonical.clone();
        tables.inverse_lazy(&mut lazy_inv);
        prop_assert!(lazy_inv.iter().all(|&v| (v as u128) < 2 * q_val as u128));
        let mut canonical_inv = canonical;
        tables.inverse(&mut canonical_inv);
        let corrected: Vec<u64> = lazy_inv.iter().map(|&v| q.reduce_once(v)).collect();
        prop_assert_eq!(corrected, canonical_inv);
    }

    // The branch-free lazy scalar ops agree with the canonical ops.
    #[test]
    fn lazy_scalar_ops_match_canonical(q in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (q.reduce(a), q.reduce(b));
        let s = q.add_lazy(a, b);
        prop_assert!(s < 2 * q.value());
        prop_assert_eq!(q.reduce_once(s), q.add(a, b));
        let d = q.sub_lazy(a, b);
        prop_assert!(d < 2 * q.value());
        prop_assert_eq!(q.reduce_once(d), q.sub(a, b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ntt_roundtrip_and_convolution(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let degree = 128usize;
        let q_val = generate_ntt_primes(degree, &[45]).unwrap()[0];
        let q = Modulus::new(q_val).unwrap();
        let ntt = NttTables::new(degree, q).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q_val)).collect();
        let b: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q_val)).collect();

        // Round trip.
        let mut fa = a.clone();
        ntt.forward(&mut fa);
        let mut back = fa.clone();
        ntt.inverse(&mut back);
        prop_assert_eq!(&back, &a);

        // Convolution theorem against the naive negacyclic product.
        let mut fb = b.clone();
        ntt.forward(&mut fb);
        let mut prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        ntt.inverse(&mut prod);
        prop_assert_eq!(prod, negacyclic_multiply_naive(&a, &b, &q));
    }

    #[test]
    fn canonical_embedding_roundtrip(values in prop::collection::vec(-1000.0f64..1000.0, 32)) {
        let fft = SpecialFft::new(128);
        let original: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        let mut work = original.clone();
        fft.embed_inverse(&mut work);
        fft.embed(&mut work);
        for (a, b) in work.iter().zip(&original) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn embedding_is_linear(values in prop::collection::vec(-100.0f64..100.0, 16), scale in 1.0f64..8.0) {
        // embed_inverse(scale * v) == scale * embed_inverse(v)
        let fft = SpecialFft::new(64);
        let mut a: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        let mut b: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v * scale)).collect();
        fft.embed_inverse(&mut a);
        fft.embed_inverse(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.re * scale - y.re).abs() < 1e-6);
            prop_assert!((x.im * scale - y.im).abs() < 1e-6);
        }
    }
}
