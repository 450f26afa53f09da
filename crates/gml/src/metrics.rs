//! Evaluation metrics: accuracy, F1, MRR, Hits@K.

/// Fraction of predictions equal to the label.
pub fn accuracy(pred: &[usize], truth: &[u32]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let hits = pred.iter().zip(truth).filter(|&(&p, &t)| p == t as usize).count();
    hits as f64 / pred.len() as f64
}

/// Macro-averaged F1 over `n_classes` classes.
pub fn macro_f1(pred: &[usize], truth: &[u32], n_classes: usize) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    if n_classes == 0 {
        return 0.0;
    }
    let mut tp = vec![0usize; n_classes];
    let mut fp = vec![0usize; n_classes];
    let mut fnn = vec![0usize; n_classes];
    for (&p, &t) in pred.iter().zip(truth) {
        let t = t as usize;
        if p == t {
            tp[p] += 1;
        } else {
            if p < n_classes {
                fp[p] += 1;
            }
            fnn[t] += 1;
        }
    }
    let mut f1_sum = 0.0;
    let mut seen = 0usize;
    for c in 0..n_classes {
        let support = tp[c] + fnn[c];
        if support == 0 {
            continue;
        }
        seen += 1;
        let prec = if tp[c] + fp[c] > 0 { tp[c] as f64 / (tp[c] + fp[c]) as f64 } else { 0.0 };
        let rec = tp[c] as f64 / support as f64;
        if prec + rec > 0.0 {
            f1_sum += 2.0 * prec * rec / (prec + rec);
        }
    }
    if seen == 0 {
        0.0
    } else {
        f1_sum / seen as f64
    }
}

/// Ranking outcome for one query: the 1-based rank of the true item.
/// Fractional when the true item ties with other candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank(pub f64);

/// 1-based rank of the true candidate among scores (higher score = better).
/// Ties take the mean of the ranks they span, so a scorer that cannot tell
/// candidates apart ranks the true one in the middle, not first. A NaN
/// score for the true candidate ranks last.
pub fn rank_of(true_idx: usize, scores: &[f32]) -> Rank {
    let target = scores[true_idx];
    if target.is_nan() {
        return Rank(scores.len() as f64);
    }
    let better = scores.iter().filter(|&&s| s > target).count();
    let tied = scores.iter().filter(|&&s| s == target).count();
    Rank(better as f64 + (tied as f64 + 1.0) / 2.0)
}

/// Mean reciprocal rank.
pub fn mrr(ranks: &[Rank]) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    ranks.iter().map(|r| 1.0 / r.0).sum::<f64>() / ranks.len() as f64
}

/// Fraction of queries whose true item ranks in the top `k`.
pub fn hits_at(k: usize, ranks: &[Rank]) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    ranks.iter().filter(|r| r.0 <= k as f64).count() as f64 / ranks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn macro_f1_perfect_and_empty_classes() {
        // Perfect predictions -> macro F1 = 1 regardless of unused classes.
        assert!((macro_f1(&[0, 1, 0], &[0, 1, 0], 5) - 1.0).abs() < 1e-12);
        // All-wrong single class.
        assert_eq!(macro_f1(&[1, 1], &[0, 0], 2), 0.0);
    }

    #[test]
    fn rank_and_mrr_and_hits() {
        let scores = vec![0.1, 0.9, 0.5, 0.7];
        assert_eq!(rank_of(1, &scores), Rank(1.0));
        assert_eq!(rank_of(2, &scores), Rank(3.0));
        assert_eq!(rank_of(0, &scores), Rank(4.0));
        let ranks = vec![Rank(1.0), Rank(3.0), Rank(12.0)];
        assert!((mrr(&ranks) - (1.0 + 1.0 / 3.0 + 1.0 / 12.0) / 3.0).abs() < 1e-12);
        assert!((hits_at(10, &ranks) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(hits_at(1, &ranks), 1.0 / 3.0);
    }

    #[test]
    fn rank_ties_take_the_mean_rank() {
        assert_eq!(rank_of(1, &[0.5, 0.5, 0.5]), Rank(2.0));
        assert_eq!(rank_of(0, &[0.5, 0.9, 0.5, 0.1]), Rank(2.5));
    }

    #[test]
    fn constant_scorer_ranks_mid_list() {
        // 40 candidates, all scored 0: the true one sits mid-list, so a
        // scorer that knows nothing earns no hit in the top 10.
        let scores = vec![0.0f32; 40];
        let ranks: Vec<Rank> = (0..40).map(|i| rank_of(i, &scores)).collect();
        assert!(ranks.iter().all(|&r| r == Rank(20.5)));
        assert_eq!(hits_at(10, &ranks), 0.0);
        assert!(mrr(&ranks) < 0.05);
    }

    #[test]
    fn nan_target_ranks_last() {
        let scores = vec![0.3, f32::NAN, 0.1, 0.2];
        assert_eq!(rank_of(1, &scores), Rank(4.0));
        assert_eq!(hits_at(1, &[rank_of(0, &[f32::NAN, 0.0])]), 0.0);
        // A NaN elsewhere never outranks a number.
        assert_eq!(rank_of(0, &scores), Rank(1.0));
    }
}
