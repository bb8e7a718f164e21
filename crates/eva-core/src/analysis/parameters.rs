//! Encryption parameter selection (paper Section 6.2).
//!
//! Given a validated program, this pass computes the vector of prime bit sizes
//! for the coefficient modulus: the special prime, one prime per entry of the
//! longest output rescale chain, and enough primes to hold the output's scale
//! times the desired output scale. It then chooses the smallest ring degree
//! that fits the total at 128-bit security and is large enough to pack the
//! program's vector size.

use crate::analysis::scale::{analyze_levels, analyze_scales, ChainEntry};
use crate::error::EvaError;
use crate::program::Program;
use eva_math::primes::{
    generate_ntt_primes, max_coeff_modulus_bits, nominal_prime_bits, MAX_PRIME_BITS,
};

/// The encryption parameters the compiler hands to the backend: the ring
/// degree and the **actual** NTT-friendly primes the compiler resolved its
/// bit sizes to. The exact-scale pass re-annotates the program against these
/// values, so the backend must build its context from the very same primes
/// (not regenerate its own) for the compiler's scale predictions to hold
/// bit-exactly. The primes are the chain's only description: bit sizes are
/// derived from them ([`nominal_prime_bits`]), and one validator,
/// `eva_ckks::CkksParameters::from_primes`, checks them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParameterSpec {
    /// Ring degree `N`.
    pub degree: usize,
    /// The data primes, ordered bottom-of-the-chain first: RESCALE and
    /// MODSWITCH consume primes from the **back** of this list.
    pub data_primes: Vec<u64>,
    /// The special key-switching prime.
    pub special_prime: u64,
    /// Whether the chosen degree satisfies the 128-bit security bound for the
    /// total modulus (always true for specs produced by [`select_parameters`]).
    pub secure: bool,
}

impl ParameterSpec {
    /// Nominal bit sizes of the data primes, in chain order. Only meaningful
    /// for a validated chain (every prime at least 2).
    pub fn data_prime_bits(&self) -> Vec<u32> {
        self.data_primes
            .iter()
            .map(|&q| nominal_prime_bits(q))
            .collect()
    }

    /// Nominal bit size of the special prime.
    pub fn special_prime_bits(&self) -> u32 {
        nominal_prime_bits(self.special_prime)
    }

    /// The paper's bit-size vector in application order: special prime first,
    /// then the rescale chain of the critical output, then the leftover primes
    /// covering the output scale (Table 6's `r` is this vector's length).
    pub fn bit_vector_paper_order(&self) -> Vec<u32> {
        let mut bits = vec![self.special_prime_bits()];
        bits.extend(self.data_prime_bits().iter().rev());
        bits
    }

    /// The modulus chain length `r` reported in the paper's Table 6 (data
    /// primes plus the special prime).
    pub fn chain_length(&self) -> usize {
        self.data_primes.len() + 1
    }

    /// Total `log2 Q` (sum of all nominal prime bit sizes, including the
    /// special one).
    pub fn total_bits(&self) -> u32 {
        self.bit_vector_paper_order().iter().sum()
    }
}

/// Splits `total_bits` into as few factors as possible, each at most
/// `max_bits`, distributing the remainder evenly so no factor is degenerate.
fn split_scale_bits(total_bits: u32, max_bits: u32) -> Vec<u32> {
    if total_bits == 0 {
        return Vec::new();
    }
    let count = total_bits.div_ceil(max_bits).max(1);
    let base = total_bits / count;
    let remainder = total_bits % count;
    (0..count)
        .map(|i| if i < remainder { base + 1 } else { base })
        .map(|bits| bits.max(2))
        .collect()
}

/// Selects encryption parameters for a validated, transformed program.
///
/// # Errors
///
/// Returns [`EvaError::ParameterSelection`] if the program has no cipher
/// output or needs more modulus bits than any supported ring degree provides
/// at 128-bit security.
pub fn select_parameters(program: &mut Program) -> Result<ParameterSpec, EvaError> {
    let scales = analyze_scales(program)?;
    let chains = analyze_levels(program)?;

    // For every output, gather its rescale chain (without MODSWITCH entries)
    // and the primes needed to hold output_scale * desired_scale.
    let mut best: Option<(usize, Vec<u32>, Vec<u32>)> = None;
    for output in program.outputs() {
        let node = output.node;
        if !program.node(node).ty.is_cipher() {
            continue;
        }
        // Every chain entry consumes a prime at execution time. Positions where
        // only MODSWITCH nodes appear on the paths to this output still need a
        // prime; size it like a full rescale prime so the chain can never run
        // dry (a slight over-approximation relative to the paper's formula,
        // which drops the `∞` entries).
        let rescale_bits: Vec<u32> = chains[node]
            .iter()
            .map(|entry| match entry {
                ChainEntry::Rescale(bits) => *bits,
                ChainEntry::ModSwitch => MAX_PRIME_BITS,
            })
            .collect();
        // Nominal scales are integral f64s at this point; ceil makes the cast
        // safe even for exact (re-compiled) annotations.
        let needed_bits = (scales[node] + output.scale_log2).ceil() as u32;
        let tail_bits = split_scale_bits(needed_bits, MAX_PRIME_BITS);
        let length = rescale_bits.len() + tail_bits.len();
        let is_better = match &best {
            None => true,
            Some((best_len, _, _)) => length > *best_len,
        };
        if is_better {
            best = Some((length, rescale_bits, tail_bits));
        }
    }
    let (_, rescale_bits, tail_bits) = best
        .ok_or_else(|| EvaError::ParameterSelection("program has no Cipher-typed output".into()))?;

    // Bottom of the chain first: the leftover primes, then the rescale chain in
    // reverse application order (the first rescale consumes the last prime),
    // then the special prime.
    let mut all_bits = tail_bits;
    all_bits.extend(rescale_bits.iter().rev());
    all_bits.push(MAX_PRIME_BITS);
    let total: u32 = all_bits.iter().sum();

    // Smallest degree that is secure for `total` bits and can pack the
    // vector. Primes are resolved per candidate degree (NTT-friendliness
    // depends on it), and the security bound is re-checked against the
    // *exact* log2 Q of the resolved chain: the closest-prime search may
    // land primes a hair above 2^s, and a chain that fills the nominal
    // budget exactly could otherwise overshoot the standard's table by a
    // fraction of a bit.
    let min_degree_for_slots = (2 * program.vec_size()).max(1024);
    let mut selected = None;
    for candidate in [1024usize, 2048, 4096, 8192, 16384, 32768, 65536] {
        if candidate < min_degree_for_slots {
            continue;
        }
        let Some(max) = max_coeff_modulus_bits(candidate) else {
            continue;
        };
        if total > max {
            continue;
        }
        // Resolve the bit sizes to the actual NTT-friendly primes now, so the
        // exact-scale pass and the backend agree on the chain down to the bit.
        let primes = generate_ntt_primes(candidate, &all_bits).map_err(|e| {
            EvaError::ParameterSelection(format!(
                "prime generation failed for degree {candidate}: {e}"
            ))
        })?;
        let exact_bits: f64 = primes.iter().map(|&q| (q as f64).log2()).sum();
        if exact_bits > f64::from(max) {
            continue;
        }
        selected = Some((candidate, primes));
        break;
    }
    let (degree, primes) = selected.ok_or_else(|| {
        EvaError::ParameterSelection(format!(
            "program needs {total} modulus bits and {} slots, which no supported \
             ring degree provides at 128-bit security",
            program.vec_size()
        ))
    })?;
    let special_prime = *primes.last().expect("chain is non-empty");
    let data_primes = primes[..primes.len() - 1].to_vec();

    Ok(ParameterSpec {
        degree,
        data_primes,
        special_prime,
        secure: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::types::{Opcode, ValueType};

    #[test]
    fn split_scale_bits_respects_maximum() {
        assert_eq!(split_scale_bits(0, 60), Vec::<u32>::new());
        assert_eq!(split_scale_bits(60, 60), vec![60]);
        assert_eq!(split_scale_bits(61, 60), vec![31, 30]);
        assert_eq!(split_scale_bits(150, 60), vec![50, 50, 50]);
        let chunks = split_scale_bits(179, 60);
        assert_eq!(chunks.iter().sum::<u32>(), 179);
        assert!(chunks.iter().all(|&c| c <= 60));
    }

    #[test]
    fn parameters_for_single_rescale_program() {
        // x (30) squared -> 60, rescaled by 60 -> 0... use 25-bit inputs like the
        // paper's examples: x^2 at 50 bits, rescale by 50 (waterline would not allow
        // 60 here, but parameter selection only reads what is in the graph).
        let mut p = Program::new("square", 8);
        let x = p.input_cipher("x", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let relin = p.push_instruction(Opcode::Relinearize, vec![prod], ValueType::Cipher);
        let rescaled = p.push_instruction(Opcode::Rescale(60), vec![relin], ValueType::Cipher);
        p.output("out", rescaled, 30);
        // Output scale after rescale: 0 bits; desired 30 -> one 30-bit tail prime.
        let spec = select_parameters(&mut p).unwrap();
        assert_eq!(spec.data_prime_bits(), vec![30, 60]);
        assert_eq!(spec.special_prime_bits(), 60);
        assert_eq!(spec.chain_length(), 3);
        assert_eq!(spec.total_bits(), 150);
        assert_eq!(spec.degree, 8192, "150 bits fit degree 8192 but not 4096");
        assert_eq!(spec.bit_vector_paper_order(), vec![60, 60, 30]);
        // The bit sizes are the primes' nominal sizes: the closest-prime
        // search may land just above 2^s.
        for &q in &spec.data_primes {
            assert_eq!(q % (2 * 8192), 1, "prime must be NTT-friendly");
        }
    }

    #[test]
    fn degree_grows_with_vector_size() {
        let mut p = Program::new("wide", 16384);
        let x = p.input_cipher("x", 30);
        let y = p.instruction(Opcode::Negate, &[x]);
        p.output("out", y, 30);
        let spec = select_parameters(&mut p).unwrap();
        assert!(spec.degree >= 32768, "need at least 2 * 16384 slots");
    }

    #[test]
    fn oversized_programs_are_rejected() {
        // Repeated squaring with 40 rescales needs ~2400 bits of modulus, far
        // beyond what degree 65536 offers at 128-bit security.
        let mut p = Program::new("deep", 8);
        let x = p.input_cipher("x", 60);
        let mut acc = x;
        for _ in 0..40 {
            let prod = p.instruction(Opcode::Multiply, &[acc, acc]);
            let relin = p.push_instruction(Opcode::Relinearize, vec![prod], ValueType::Cipher);
            acc = p.push_instruction(Opcode::Rescale(60), vec![relin], ValueType::Cipher);
        }
        p.output("out", acc, 30);
        let err = select_parameters(&mut p).unwrap_err();
        assert!(matches!(err, EvaError::ParameterSelection(_)));
    }

    #[test]
    fn plain_only_output_is_rejected() {
        let mut p = Program::new("plain", 8);
        let v = p.input_vector("v", 30);
        let w = p.instruction(Opcode::Add, &[v, v]);
        p.output("out", w, 30);
        assert!(select_parameters(&mut p).is_err());
    }
}
