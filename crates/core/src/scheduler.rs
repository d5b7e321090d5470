//! Compression-order optimization — the paper's Algorithm 1.
//!
//! Per process, compression is serial and the async write stream is
//! serial, so for a queue `q` of fields with predicted compression
//! times `Pc(ℓ)` and write times `Pw(ℓ)` the finish time follows the
//! recurrence (procedure TIME):
//!
//! ```text
//! tc ← tc + Pc(ℓ)
//! tw ← Pw(ℓ) + max(tc, tw)
//! ```
//!
//! That is the makespan of the two-machine flow shop F2‖C_max
//! (compression is machine 1, the write stream machine 2). Total
//! compression time is order-invariant; ordering only changes how much
//! write time hides under compute. Where the paper inserts each field
//! greedily at its best position, an O(n³) heuristic, the order here is
//! exact: Johnson's rule (S. M. Johnson, "Optimal two- and three-stage
//! production schedules with setup times included", Naval Research
//! Logistics Quarterly, 1954), O(n log n). Under the per-rank model a
//! reordered queue never finishes after any other order.

/// Finish time of a queue under the pipeline recurrence (TIME in
/// Algorithm 1). `queue` holds field indices into `pc`/`pw`.
pub fn queue_time(queue: &[usize], pc: &[f64], pw: &[f64]) -> f64 {
    let mut tc = 0.0f64;
    let mut tw = 0.0f64;
    for &l in queue {
        tc += pc[l];
        tw = pw[l] + tc.max(tw);
    }
    tw
}

/// The order minimizing [`queue_time`] (SCHEDULING OPTIMIZATOR in
/// Algorithm 1) by Johnson's rule: fields with `Pc < Pw` by ascending
/// `Pc`, then the rest by descending `Pw`; ties keep field order.
pub fn optimize_order(pc: &[f64], pw: &[f64]) -> Vec<usize> {
    assert_eq!(pc.len(), pw.len());
    let (mut order, mut rest): (Vec<usize>, Vec<usize>) =
        (0..pc.len()).partition(|&l| pc[l] < pw[l]);
    order.sort_by(|&a, &b| pc[a].total_cmp(&pc[b]));
    rest.sort_by(|&a, &b| pw[b].total_cmp(&pw[a]));
    order.extend(rest);
    order
}

/// Convenience: identity order (methods without reordering).
pub fn identity_order(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_recurrence_basic() {
        // One field: tc = 2, tw = 3 + max(2,0) = 5.
        assert_eq!(queue_time(&[0], &[2.0], &[3.0]), 5.0);
    }

    #[test]
    fn time_overlap_hides_writes() {
        // Two equal fields: comp 1 each, write 1 each.
        // Order [0,1]: tc=1, tw=2; tc=2, tw=1+max(2,2)=3.
        assert_eq!(queue_time(&[0, 1], &[1.0, 1.0], &[1.0, 1.0]), 3.0);
    }

    #[test]
    fn reorder_beats_bad_order() {
        // A field with a tiny write and one with a huge write: writing
        // the huge one first lets it overlap the other's compression.
        let pc = vec![1.0, 1.0];
        let pw = vec![0.1, 5.0];
        let bad = queue_time(&[0, 1], &pc, &pw); // small write first
        let good = queue_time(&[1, 0], &pc, &pw); // big write first
        assert!(good < bad, "good {good} bad {bad}");
        let opt = optimize_order(&pc, &pw);
        assert_eq!(queue_time(&opt, &pc, &pw), good);
    }

    #[test]
    fn optimizer_matches_bruteforce_small() {
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in permutations(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        let mut x = 42u64;
        let mut rng = move |levels: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % levels) as f64 / 100.0 + 0.01
        };
        for n in 1..=7 {
            let perms = permutations(n);
            for instance in 0..150 {
                // Every other instance draws from 4 values, so equal
                // `Pc`, equal `Pw` and `Pc == Pw` all occur.
                let levels = if instance % 2 == 0 { 1000 } else { 4 };
                let pc: Vec<f64> = (0..n).map(|_| rng(levels)).collect();
                let pw: Vec<f64> = (0..n).map(|_| rng(levels)).collect();
                let best = perms
                    .iter()
                    .map(|p| queue_time(p, &pc, &pw))
                    .fold(f64::INFINITY, f64::min);
                let opt = queue_time(&optimize_order(&pc, &pw), &pc, &pw);
                assert!(
                    (opt - best).abs() <= 1e-12 * best,
                    "n={n} pc={pc:?} pw={pw:?}: {opt} vs optimum {best}"
                );
            }
        }
    }

    #[test]
    fn total_compression_time_is_order_invariant() {
        let pc = vec![1.0, 2.0, 3.0];
        let pw = vec![0.5, 0.5, 0.5];
        // Last write ends at least sum(pc) regardless of order; the
        // compression contribution to TIME is the same.
        let sum: f64 = pc.iter().sum();
        for q in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            assert!(queue_time(&q, &pc, &pw) >= sum);
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(queue_time(&[], &[], &[]), 0.0);
        assert_eq!(optimize_order(&[], &[]), Vec::<usize>::new());
        assert_eq!(optimize_order(&[1.0], &[1.0]), vec![0]);
    }
}
