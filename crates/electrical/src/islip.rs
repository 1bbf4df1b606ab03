//! The iSLIP allocation algorithm (McKeown), used for switch allocation
//! in the baseline router (Table 2).
//!
//! Classic grant/accept with rotating pointers: each output grants to the
//! first requesting input at or after its grant pointer; each input
//! accepts grants starting from its accept pointer, up to its capacity
//! (the crossbar input speedup). Pointers advance past accepted partners
//! only for first-iteration matches, preserving iSLIP's desynchronization
//! property.
//!
//! Request and grant sets are bitmasks and the match list is a
//! caller-owned buffer, so a call allocates nothing.

use crate::bits::{low_bits, rotated, Bits};

/// Most inputs or outputs an allocator may have: request sets are `u32`
/// bitmasks.
const MAX_PORTS: usize = 32;

/// A persistent iSLIP allocator over `n_in` inputs and `n_out` outputs.
#[derive(Debug, Clone)]
pub struct Islip {
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
}

impl Islip {
    /// Creates an allocator with all pointers at zero.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or above 32.
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(n_in > 0 && n_out > 0, "iSLIP dimensions must be positive");
        assert!(
            n_in <= MAX_PORTS && n_out <= MAX_PORTS,
            "iSLIP supports at most {MAX_PORTS} inputs and outputs"
        );
        Islip {
            grant_ptr: vec![0; n_out],
            accept_ptr: vec![0; n_in],
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.accept_ptr.len()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.grant_ptr.len()
    }

    /// Runs `iterations` of iSLIP over the request matrix.
    ///
    /// Bit `o` of `requests[i]` is set when input `i` requests output
    /// `o`. Each output is matched to at most one input; each input to
    /// at most `in_capacity` outputs. `matches` is cleared and then
    /// receives the `(input, output)` matches in acceptance order.
    ///
    /// # Panics
    ///
    /// Panics if a request names an out-of-range output or
    /// `requests.len() != inputs()`.
    pub fn allocate(
        &mut self,
        requests: &[u32],
        in_capacity: usize,
        iterations: usize,
        matches: &mut Vec<(usize, usize)>,
    ) {
        assert_eq!(requests.len(), self.inputs(), "one request mask per input");
        let n_out = self.outputs();
        let out_bits = low_bits(n_out);
        // Column view: `requesters[o]` holds the inputs requesting `o`.
        let mut requesters = [0u64; MAX_PORTS];
        for (inp, &req) in requests.iter().enumerate() {
            let req = u64::from(req);
            assert!(
                req & !out_bits == 0,
                "request to out-of-range output in mask {req:#b}"
            );
            for out in Bits(req) {
                requesters[out] |= 1 << inp;
            }
        }
        matches.clear();
        let mut in_count = [0usize; MAX_PORTS];
        // Inputs at capacity, and outputs already matched.
        let mut full: u64 = if in_capacity == 0 {
            low_bits(self.inputs())
        } else {
            0
        };
        let mut out_matched: u64 = 0;

        for iter in 0..iterations.max(1) {
            // Grant phase: each unmatched output picks one requesting,
            // non-saturated input, round-robin from its pointer.
            // `granted[i]` holds the outputs granting input `i`.
            let mut granted = [0u64; MAX_PORTS];
            for out in Bits(out_bits & !out_matched) {
                if let Some(inp) = rotated(requesters[out] & !full, self.grant_ptr[out]).next() {
                    granted[inp] |= 1 << out;
                }
            }

            // Accept phase: each input accepts up to its remaining
            // capacity, round-robin over outputs from its pointer.
            let mut accepted_any = false;
            for (inp, &grants) in granted[..self.inputs()].iter().enumerate() {
                for out in rotated(grants, self.accept_ptr[inp]) {
                    if in_count[inp] >= in_capacity {
                        break;
                    }
                    out_matched |= 1 << out;
                    in_count[inp] += 1;
                    matches.push((inp, out));
                    accepted_any = true;
                    if iter == 0 {
                        // Pointer update rule: one past the accepted
                        // partner, first iteration only.
                        self.grant_ptr[out] = (inp + 1) % self.inputs();
                        self.accept_ptr[inp] = (out + 1) % n_out;
                    }
                }
                if in_count[inp] >= in_capacity {
                    full |= 1 << inp;
                }
            }
            if !accepted_any {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::rng::SimRng;

    fn run(a: &mut Islip, requests: &[u32], cap: usize, iters: usize) -> Vec<(usize, usize)> {
        let mut m = Vec::new();
        a.allocate(requests, cap, iters, &mut m);
        m
    }

    fn sorted(mut v: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn simple_one_to_one() {
        let mut a = Islip::new(2, 2);
        let m = run(&mut a, &[0b01, 0b10], 1, 1);
        assert_eq!(sorted(m), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn conflicting_requests_pick_one() {
        let mut a = Islip::new(2, 2);
        let m = run(&mut a, &[0b01, 0b01], 1, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 0);
    }

    #[test]
    fn pointer_rotation_gives_fairness() {
        // Two inputs fight for output 0 repeatedly; each should win about
        // half the time thanks to the grant pointer update.
        let mut a = Islip::new(2, 1);
        let mut wins = [0usize; 2];
        for _ in 0..10 {
            let m = run(&mut a, &[0b1, 0b1], 1, 1);
            wins[m[0].0] += 1;
        }
        assert_eq!(wins[0], 5);
        assert_eq!(wins[1], 5);
    }

    #[test]
    fn input_capacity_enforced() {
        let mut a = Islip::new(1, 4);
        let m = run(&mut a, &[0b1111], 2, 4);
        assert_eq!(m.len(), 2, "input capacity caps the matches");
    }

    #[test]
    fn input_speedup_four_matches_four_outputs() {
        let mut a = Islip::new(2, 4);
        let m = run(&mut a, &[0b1111, 0], 4, 4);
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|&(i, _)| i == 0));
    }

    #[test]
    fn multiple_iterations_fill_the_match() {
        // With one iteration, input 0 may grab output 0 and output 1's
        // grant to input 0 is wasted while input 1 sits idle; a second
        // iteration recovers the match.
        let mut a = Islip::new(2, 2);
        let m = run(&mut a, &[0b11, 0b11], 1, 2);
        assert_eq!(m.len(), 2, "two iterations find the perfect matching");
    }

    #[test]
    fn no_requests_no_matches() {
        let mut a = Islip::new(3, 3);
        assert!(run(&mut a, &[0, 0, 0], 4, 2).is_empty());
    }

    #[test]
    fn matches_are_conflict_free() {
        let mut a = Islip::new(5, 4);
        let reqs: Vec<u32> = (0..5)
            .map(|i| (0..4).filter(|o| (i + o) % 2 == 0).map(|o| 1 << o).sum())
            .collect();
        for _ in 0..20 {
            let m = run(&mut a, &reqs, 4, 3);
            let mut outs: Vec<usize> = m.iter().map(|&(_, o)| o).collect();
            outs.sort_unstable();
            outs.dedup();
            assert_eq!(outs.len(), m.len(), "each output matched at most once");
        }
    }

    #[test]
    fn the_match_buffer_is_reused() {
        let mut a = Islip::new(2, 2);
        let mut m = vec![(9, 9); 3];
        a.allocate(&[0b01, 0], 1, 1, &mut m);
        assert_eq!(m, vec![(0, 0)], "stale entries are cleared");
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_request_panics() {
        let mut a = Islip::new(1, 1);
        let _ = run(&mut a, &[1 << 5], 1, 1);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn oversized_allocator_rejected() {
        let _ = Islip::new(33, 4);
    }

    /// Pins the router's switch-allocator shape (5 inputs, 4 outputs,
    /// speedup 4, 2 iterations) over 10k seeded random request matrices:
    /// an FNV-1a digest of every match list, in order, and of both
    /// pointer arrays after each call. The digest was recorded from the
    /// list-based allocator this bitmask form replaced.
    #[test]
    fn seeded_request_matrices_match_the_recorded_digest() {
        let mut rng = SimRng::seed_from_u64(0x15_11F0);
        let mut a = Islip::new(5, 4);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: usize| {
            digest ^= v as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        };
        let mut matches = Vec::new();
        let mut total = 0;
        for _ in 0..10_000 {
            let reqs: Vec<u32> = (0..5).map(|_| (rng.next_u64() & 0xF) as u32).collect();
            a.allocate(&reqs, 4, 2, &mut matches);
            total += matches.len();
            for &(i, o) in &matches {
                eat(i);
                eat(o);
            }
            eat(0xFF);
            for &p in a.grant_ptr.iter().chain(&a.accept_ptr) {
                eat(p);
            }
        }
        assert_eq!(total, 38_741);
        assert_eq!(digest, 0x139f_1679_75a0_c046);
    }
}
