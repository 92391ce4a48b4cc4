//! Correctness checks run on every run of every workload. Each returns
//! the violations it found; the run fails (non-zero exit) on any.
//!
//! * the budget ledger against what the wire acked, live and after the
//!   `recovery_s` restart;
//! * the recovered dataset epoch and row count against the acked
//!   mutations;
//! * the (α, β) accuracy guarantee of answered WCQs against true answers
//!   the benchmark computes from its own copy of the data.

/// Relative tolerance of the ledger equalities.
pub const REL_TOL: f64 = 1e-9;

/// False-alarm probability of the accuracy check: a run fails only when
/// that many misses (or more) would occur with probability at most this
/// if every answer met its (α, β) guarantee.
pub const ACCURACY_FALSE_ALARM: f64 = 1e-6;

/// A tenant's ledger as the server (or the recovered server) reports it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLedger {
    /// The tenant's total budget `B`.
    pub budget: f64,
    /// Spent budget.
    pub spent: f64,
    /// Allowance released by closed sessions.
    pub reclaimed: f64,
}

/// A tenant's ledger as the clients observed it on the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireLedger {
    /// Sessions whose open was acked (`201`).
    pub opened: u64,
    /// Sessions whose close was acked.
    pub closed: u64,
    /// Answers acked (`200`).
    pub answers: u64,
    /// Σε over acked answers.
    pub epsilon: f64,
}

impl WireLedger {
    /// Component-wise sum.
    pub fn add(&mut self, o: &WireLedger) {
        self.opened += o.opened;
        self.closed += o.closed;
        self.answers += o.answers;
        self.epsilon += o.epsilon;
    }
}

fn close_enough(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The budget invariants for one tenant:
/// `spent ≤ B`, `spent == Σ acked ε`, and — every session being closed —
/// `granted == spent + reclaimed`, where each acked open granted `slice`.
pub fn ledger(
    when: &str,
    tenant: &str,
    server: &ServerLedger,
    wire: &WireLedger,
    slice: f64,
) -> Vec<String> {
    let mut v = Vec::new();
    if server.spent > server.budget * (1.0 + REL_TOL) {
        v.push(format!(
            "{when}: {tenant} spent {} above its budget {}",
            server.spent, server.budget
        ));
    }
    if !close_enough(server.spent, wire.epsilon) {
        v.push(format!(
            "{when}: {tenant} spent {} but the wire acked Σε = {} over {} answers",
            server.spent, wire.epsilon, wire.answers
        ));
    }
    if wire.opened != wire.closed {
        v.push(format!(
            "{when}: {tenant} has {} acked opens but {} acked closes",
            wire.opened, wire.closed
        ));
    }
    let granted = wire.opened as f64 * slice;
    if !close_enough(granted, server.spent + server.reclaimed) {
        v.push(format!(
            "{when}: {tenant} granted {granted} != spent {} + reclaimed {}",
            server.spent, server.reclaimed
        ));
    }
    v
}

/// What the writer's acked mutations imply about a tenant's data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataState {
    /// Dataset epoch.
    pub epoch: u64,
    /// Row count.
    pub rows: u64,
}

/// The recovered dataset must sit at exactly the acked epoch and row
/// count.
pub fn recovered_data(tenant: &str, acked: DataState, recovered: DataState) -> Vec<String> {
    let mut v = Vec::new();
    if acked.epoch != recovered.epoch {
        v.push(format!(
            "recovered: {tenant} at epoch {} but the last acked mutation left epoch {}",
            recovered.epoch, acked.epoch
        ));
    }
    if acked.rows != recovered.rows {
        v.push(format!(
            "recovered: {tenant} holds {} rows but the acked mutations imply {}",
            recovered.rows, acked.rows
        ));
    }
    v
}

/// One answered WCQ: the noisy counts, the true counts, and its α.
#[derive(Debug, Clone)]
pub struct WcqAnswer {
    /// Noisy answer from the wire.
    pub noisy: Vec<f64>,
    /// True answer from the benchmark's own copy of the data.
    pub truth: Vec<f64>,
    /// Requested α.
    pub alpha: f64,
}

/// Outcome of the accuracy check.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Answers checked.
    pub answers: usize,
    /// Answers whose max error exceeded α.
    pub over_alpha: usize,
    /// The allowed share: β plus the binomial margin.
    pub allowed: f64,
}

impl Accuracy {
    /// Share of answers whose max error exceeded α.
    pub fn share(&self) -> f64 {
        if self.answers == 0 {
            0.0
        } else {
            self.over_alpha as f64 / self.answers as f64
        }
    }
}

/// `P(X ≥ k)` for `X ~ Binomial(n, p)`, summed in log space.
pub fn binomial_tail(n: usize, p: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // ln pmf(i), built up from ln pmf(0) = n·ln(1−p).
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    let mut ln_pmf = n as f64 * lq;
    let mut tail = 0.0;
    for i in 0..n {
        if i >= k {
            tail += ln_pmf.exp();
        }
        ln_pmf += ((n - i) as f64).ln() - ((i + 1) as f64).ln() + lp - lq;
    }
    tail + ln_pmf.exp()
}

/// The smallest miss count that fails `n` answers at failure
/// probability `beta`: `P(X ≥ k) ≤ ACCURACY_FALSE_ALARM` (`n + 1` when
/// even `n` misses are that likely — too few answers to judge).
pub fn critical_misses(n: usize, beta: f64) -> usize {
    (0..=n)
        .find(|&k| binomial_tail(n, beta, k) <= ACCURACY_FALSE_ALARM)
        .unwrap_or(n + 1)
}

/// The (α, β) guarantee over a set of answers: the share of answers
/// whose max error exceeds α may exceed β only by the binomial margin
/// of [`critical_misses`] — chance alone reaches it with probability at
/// most [`ACCURACY_FALSE_ALARM`]. A shape mismatch (an answer of the
/// wrong length) is itself a violation.
pub fn accuracy(answers: &[WcqAnswer], beta: f64) -> (Accuracy, Vec<String>) {
    let mut v = Vec::new();
    let mut over = 0;
    for (i, a) in answers.iter().enumerate() {
        if a.noisy.len() != a.truth.len() {
            v.push(format!(
                "WCQ answer {i} has {} counts, the query has {}",
                a.noisy.len(),
                a.truth.len()
            ));
            continue;
        }
        let err = a
            .noisy
            .iter()
            .zip(&a.truth)
            .map(|(n, t)| (n - t).abs())
            .fold(0.0, f64::max);
        if err > a.alpha {
            over += 1;
        }
    }
    let n = answers.len();
    let critical = critical_misses(n, beta);
    let acc = Accuracy {
        answers: n,
        over_alpha: over,
        allowed: (critical - 1) as f64 / n.max(1) as f64,
    };
    if over >= critical {
        v.push(format!(
            "{over} of {n} WCQ answers ({:.4}) erred beyond α; at β the most chance allows is {:.4}",
            acc.share(),
            acc.allowed
        ));
    }
    (acc, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLICE: f64 = 10.0;

    fn balanced() -> (ServerLedger, WireLedger) {
        let eps = [0.25, 0.5, 0.125];
        let spent: f64 = eps.iter().sum();
        let wire = WireLedger {
            opened: 2,
            closed: 2,
            answers: eps.len() as u64,
            epsilon: spent,
        };
        let server = ServerLedger {
            budget: 100.0,
            spent,
            reclaimed: 2.0 * SLICE - spent,
        };
        (server, wire)
    }

    #[test]
    fn a_balanced_ledger_passes() {
        let (s, w) = balanced();
        assert!(ledger("live", "t", &s, &w, SLICE).is_empty());
    }

    #[test]
    fn canary_acked_sum_off_by_one_answer_is_rejected() {
        let (s, mut w) = balanced();
        // The wire saw one more answer than the server charged.
        w.answers += 1;
        w.epsilon += 0.5;
        let v = ledger("live", "t", &s, &w, SLICE);
        assert!(v.iter().any(|m| m.contains("acked Σε")), "{v:?}");
    }

    #[test]
    fn overspend_and_leaked_grants_are_rejected() {
        let (mut s, w) = balanced();
        s.budget = 0.5;
        assert!(!ledger("live", "t", &s, &w, SLICE).is_empty());
        let (mut s, w) = balanced();
        s.reclaimed -= 1.0;
        let v = ledger("live", "t", &s, &w, SLICE);
        assert!(v.iter().any(|m| m.contains("granted")), "{v:?}");
        let (s, mut w) = balanced();
        w.closed -= 1;
        assert!(!ledger("live", "t", &s, &w, SLICE).is_empty());
    }

    #[test]
    fn canary_recovered_epoch_one_short_is_rejected() {
        let acked = DataState {
            epoch: 41,
            rows: 32_561,
        };
        assert!(recovered_data("adult", acked, acked).is_empty());
        let short = DataState { epoch: 40, ..acked };
        let v = recovered_data("adult", acked, short);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("epoch"));
        let fewer = DataState {
            rows: 32_545,
            ..acked
        };
        assert_eq!(recovered_data("adult", acked, fewer).len(), 1);
    }

    fn answer(shift: f64) -> WcqAnswer {
        let truth = vec![100.0, 250.0, 0.0, 7.0];
        WcqAnswer {
            noisy: truth.iter().map(|t| t + 3.0 + shift).collect(),
            truth,
            alpha: 10.0,
        }
    }

    #[test]
    fn accurate_answers_pass() {
        let answers = vec![answer(0.0); 50];
        let (acc, v) = accuracy(&answers, 0.05);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(acc.over_alpha, 0);
    }

    #[test]
    fn canary_wcq_answers_shifted_by_two_alpha_are_rejected() {
        // A systematic 2α shift (say, a broken reconstruction) puts
        // every answer beyond α. One answer alone cannot be judged at
        // β = 0.05 (chance misses it one time in twenty), so the canary
        // is a run's worth of answers.
        let a = answer(0.0);
        let shifted = answer(2.0 * a.alpha);
        assert!(accuracy(std::slice::from_ref(&shifted), 0.05).1.is_empty());
        let (acc, v) = accuracy(&vec![shifted; 20], 0.05);
        assert_eq!(acc.over_alpha, 20);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn binomial_tail_matches_closed_forms() {
        assert!((binomial_tail(1, 0.05, 1) - 0.05).abs() < 1e-12);
        assert!((binomial_tail(2, 0.5, 1) - 0.75).abs() < 1e-12);
        assert!((binomial_tail(10, 0.3, 0) - 1.0).abs() < 1e-12);
        assert!((binomial_tail(10, 0.3, 10) - 0.3f64.powi(10)).abs() < 1e-15);
        assert_eq!(binomial_tail(3, 0.3, 4), 0.0);
    }

    #[test]
    fn the_binomial_margin_tolerates_chance_misses() {
        // 200 answers at β = 0.05 expect 10 misses; chance reaches the
        // critical count with probability at most 1e-6.
        let k = critical_misses(200, 0.05);
        assert!(k > 20 && k < 40, "critical count {k}");
        let mut answers = vec![answer(0.0); 200];
        for a in answers.iter_mut().take(k - 1) {
            *a = answer(20.0);
        }
        assert!(accuracy(&answers, 0.05).1.is_empty());
        answers[k - 1] = answer(20.0);
        assert!(!accuracy(&answers, 0.05).1.is_empty());
        assert!(binomial_tail(200, 0.05, k) <= ACCURACY_FALSE_ALARM);
        assert!(binomial_tail(200, 0.05, k - 1) > ACCURACY_FALSE_ALARM);
    }

    #[test]
    fn a_wrong_shape_is_a_violation() {
        let mut a = answer(0.0);
        a.noisy.pop();
        assert_eq!(accuracy(&[a], 0.05).1.len(), 1);
    }
}
