//! Closed-form per-protocol STL estimators (paper, Section 5.2).
//!
//! For a transaction `t` with `m(t)` reads and `n(t)` writes, the initial
//! throughput loss once it holds all of its locks is
//!
//! ```text
//! Λ_t = Σ_reads λ_w(D(r_i))  +  Σ_writes (λ_w(D(q_i)) + λ_r(D(q_i)))
//! ```
//!
//! (a read lock blocks writers of that item; a write lock blocks everyone).
//! The per-protocol estimators then combine `STL'` evaluations over the
//! measured lock-hold times with the measured abort / rejection / backoff
//! probabilities:
//!
//! * **2PL**  `STL_2PL = STL'(Λ_t, U_2PL) + P_A/(1−P_A) · STL'(Λ_t, U'_2PL)`
//!   (a deadlock victim wastes `U'_2PL` of blocking and then tries again);
//! * **T/O**  with `p_ok = (1−P_r)^m (1−P'_w)^n`:
//!   `STL_T/O = STL'(Λ_t, U_T/O) + (1−p_ok)/p_ok · STL'(Λ*_t, U'_T/O)`,
//!   where `Λ*_t` is the conditional loss given that at least one request was
//!   rejected, obtained from the balance equation in the paper;
//! * **PA**   with `p_ok = (1−P_B)^m (1−P'_B)^n`:
//!   `STL_PA = STL'(Λ_t, U_PA) + (1−p_ok) · STL'(Λ⁺_t, U'_PA)`
//!   (PA never restarts; a backoff only adds one extra negotiation period).

use crate::stl::StlModel;

/// The shape of the transaction being costed: the per-item throughputs of the
/// items it reads and writes (λ_r(j), λ_w(j) in grants per second).
#[derive(Debug, Clone, Default)]
pub struct TxnShape {
    /// `(λ_r(j), λ_w(j))` of each item in the read set.
    pub read_items: Vec<(f64, f64)>,
    /// `(λ_r(j), λ_w(j))` of each item in the write set.
    pub write_items: Vec<(f64, f64)>,
}

impl TxnShape {
    /// Number of read requests, `m(t)`.
    pub fn m(&self) -> usize {
        self.read_items.len()
    }

    /// Number of write requests, `n(t)`.
    pub fn n(&self) -> usize {
        self.write_items.len()
    }

    /// The unconditional initial loss Λ_t.
    pub fn lambda_t(&self) -> f64 {
        self.summary().lambda_t()
    }

    /// Collapse the shape to the four quantities the estimators consume.
    pub fn summary(&self) -> ShapeSummary {
        ShapeSummary::of(self)
    }
}

/// A [`TxnShape`] collapsed to the four numbers the estimators actually
/// depend on: the request counts `m(t)` / `n(t)` and the aggregate initial
/// losses of the read and write sets. Two shapes with equal summaries
/// produce bit-identical estimates under every protocol — the property the
/// selection cache's memoization keys rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeSummary {
    /// Number of read requests, `m(t)`.
    pub m: usize,
    /// Number of write requests, `n(t)`.
    pub n: usize,
    /// `Σ_reads λ_w(D(r_i))`: the loss a read lock on each item inflicts.
    pub read_loss: f64,
    /// `Σ_writes (λ_r(D(q_i)) + λ_w(D(q_i)))`: the loss from write locks.
    pub write_loss: f64,
}

impl ShapeSummary {
    /// Summarise a full shape.
    pub fn of(shape: &TxnShape) -> ShapeSummary {
        ShapeSummary {
            m: shape.read_items.len(),
            n: shape.write_items.len(),
            read_loss: shape.read_items.iter().map(|&(_, lw)| lw).sum(),
            write_loss: shape.write_items.iter().map(|&(lr, lw)| lr + lw).sum(),
        }
    }

    /// The unconditional initial loss Λ_t.
    pub fn lambda_t(&self) -> f64 {
        self.read_loss + self.write_loss
    }

    /// The expected per-request loss with each request weighted by its
    /// probability of being accepted: used in the Λ*/Λ⁺ balance equations.
    fn weighted_loss(&self, p_read_ok: f64, p_write_ok: f64) -> f64 {
        p_read_ok * self.read_loss + p_write_ok * self.write_loss
    }

    /// The conditional loss given that at least one request was denied:
    /// solves `weighted = (1 − p_ok)·Λ* + p_ok·Λ_t` for Λ*, clamped at ≥ 0.
    fn conditional_loss(&self, p_read_ok: f64, p_write_ok: f64) -> f64 {
        let p_ok = p_read_ok.powi(self.m as i32) * p_write_ok.powi(self.n as i32);
        if p_ok >= 1.0 - 1e-12 {
            return self.lambda_t();
        }
        let weighted = self.weighted_loss(p_read_ok, p_write_ok);
        ((weighted - p_ok * self.lambda_t()) / (1.0 - p_ok)).max(0.0)
    }
}

/// Measured parameters of one protocol, as collected by the metrics layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    /// Mean lock-hold time of a request whose transaction was not aborted /
    /// not backed off (seconds): `U_2PL`, `U_T/O` or `U_PA`.
    pub u_ok: f64,
    /// Mean lock-hold (or blocking) time of a request whose transaction was
    /// aborted (2PL, T/O) or backed off (PA), in seconds.
    pub u_denied: f64,
    /// 2PL: probability that a transaction aborts due to deadlock (`P_A`).
    /// Unused by the other estimators.
    pub p_abort: f64,
    /// T/O: `P_r` (read rejection); PA: `P_B` (read backoff).
    pub p_read_denial: f64,
    /// T/O: `P'_w` (write rejection); PA: `P'_B` (write backoff).
    pub p_write_denial: f64,
}

impl Default for ProtocolParams {
    fn default() -> Self {
        ProtocolParams {
            u_ok: 0.0,
            u_denied: 0.0,
            p_abort: 0.0,
            p_read_denial: 0.0,
            p_write_denial: 0.0,
        }
    }
}

fn clamp_prob(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// An `STL'(λ_loss, U)` evaluator: [`StlModel::stl_prime`] itself, or a memo
/// table in front of it. The estimators call it at most twice each.
pub type StlFn<'a> = dyn FnMut(f64, f64) -> f64 + 'a;

/// Estimated STL if the transaction runs under 2PL.
pub fn stl_2pl(model: &StlModel, shape: &TxnShape, params: &ProtocolParams) -> f64 {
    stl_2pl_summary(model, &shape.summary(), params)
}

/// [`stl_2pl`] on a pre-computed summary.
pub fn stl_2pl_summary(model: &StlModel, summary: &ShapeSummary, params: &ProtocolParams) -> f64 {
    stl_2pl_with(&mut |loss, u| model.stl_prime(loss, u), summary, params)
}

/// [`stl_2pl_summary`] over any `STL'` evaluator.
pub(crate) fn stl_2pl_with(
    stl: &mut StlFn<'_>,
    summary: &ShapeSummary,
    params: &ProtocolParams,
) -> f64 {
    let lambda_t = summary.lambda_t();
    let p_a = clamp_prob(params.p_abort);
    let base = stl(lambda_t, params.u_ok);
    if p_a >= 1.0 - 1e-9 {
        // The transaction essentially never gets through: the loss is
        // unbounded in the model; report a very large value so 2PL is never
        // selected in this regime.
        return f64::MAX / 4.0;
    }
    plus_weighted(base, p_a / (1.0 - p_a), || stl(lambda_t, params.u_denied))
}

/// `base + weight · denied()`, skipping the second `STL'` evaluation when its
/// weight is exactly zero — every selection on a workload with no denials.
/// `STL'` returns a finite value ≥ +0, for which `base + 0.0·x` is `base`
/// to the bit.
fn plus_weighted(base: f64, weight: f64, denied: impl FnOnce() -> f64) -> f64 {
    if weight == 0.0 {
        base
    } else {
        base + weight * denied()
    }
}

/// Estimated STL if the transaction runs under Basic T/O.
pub fn stl_to(model: &StlModel, shape: &TxnShape, params: &ProtocolParams) -> f64 {
    stl_to_summary(model, &shape.summary(), params)
}

/// [`stl_to`] on a pre-computed summary.
pub fn stl_to_summary(model: &StlModel, summary: &ShapeSummary, params: &ProtocolParams) -> f64 {
    stl_to_with(&mut |loss, u| model.stl_prime(loss, u), summary, params)
}

/// [`stl_to_summary`] over any `STL'` evaluator.
pub(crate) fn stl_to_with(
    stl: &mut StlFn<'_>,
    summary: &ShapeSummary,
    params: &ProtocolParams,
) -> f64 {
    let p_read_ok = 1.0 - clamp_prob(params.p_read_denial);
    let p_write_ok = 1.0 - clamp_prob(params.p_write_denial);
    let p_ok = p_read_ok.powi(summary.m as i32) * p_write_ok.powi(summary.n as i32);
    let lambda_t = summary.lambda_t();
    let base = stl(lambda_t, params.u_ok);
    if p_ok <= 1e-9 {
        return f64::MAX / 4.0;
    }
    plus_weighted(base, (1.0 - p_ok) / p_ok, || {
        let lambda_star = summary.conditional_loss(p_read_ok, p_write_ok);
        stl(lambda_star, params.u_denied)
    })
}

/// Estimated STL if the transaction runs under PA.
pub fn stl_pa(model: &StlModel, shape: &TxnShape, params: &ProtocolParams) -> f64 {
    stl_pa_summary(model, &shape.summary(), params)
}

/// [`stl_pa`] on a pre-computed summary.
pub fn stl_pa_summary(model: &StlModel, summary: &ShapeSummary, params: &ProtocolParams) -> f64 {
    stl_pa_with(&mut |loss, u| model.stl_prime(loss, u), summary, params)
}

/// [`stl_pa_summary`] over any `STL'` evaluator.
pub(crate) fn stl_pa_with(
    stl: &mut StlFn<'_>,
    summary: &ShapeSummary,
    params: &ProtocolParams,
) -> f64 {
    let p_read_ok = 1.0 - clamp_prob(params.p_read_denial);
    let p_write_ok = 1.0 - clamp_prob(params.p_write_denial);
    let p_ok = p_read_ok.powi(summary.m as i32) * p_write_ok.powi(summary.n as i32);
    // PA never restarts: the base term is always paid, and with probability
    // (1 − p_ok) one extra backoff-negotiation period of loss is added.
    let base = stl(summary.lambda_t(), params.u_ok);
    plus_weighted(base, 1.0 - p_ok, || {
        let lambda_plus = summary.conditional_loss(p_read_ok, p_write_ok);
        stl(lambda_plus, params.u_denied)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StlModel {
        StlModel {
            lambda_a: 120.0,
            lambda_r: 6.0,
            lambda_w: 4.0,
            q_r: 0.6,
            k: 4.0,
        }
    }

    fn shape(reads: usize, writes: usize) -> TxnShape {
        TxnShape {
            read_items: vec![(6.0, 4.0); reads],
            write_items: vec![(6.0, 4.0); writes],
        }
    }

    #[test]
    fn lambda_t_adds_read_and_write_losses() {
        let s = shape(2, 1);
        // reads: 2 × λ_w = 8; writes: 1 × (λ_r + λ_w) = 10.
        assert!((s.lambda_t() - 18.0).abs() < 1e-12);
        assert_eq!(s.m(), 2);
        assert_eq!(s.n(), 1);
    }

    #[test]
    fn conditional_loss_equals_unconditional_when_never_denied() {
        let s = shape(2, 2).summary();
        assert!((s.conditional_loss(1.0, 1.0) - s.lambda_t()).abs() < 1e-12);
    }

    #[test]
    fn conditional_loss_is_smaller_when_denials_remove_requests() {
        // With some requests denied, the conditional loss (locks actually
        // granted before the denial) is below the full Λ_t.
        let s = shape(3, 3).summary();
        let cond = s.conditional_loss(0.7, 0.7);
        assert!(cond < s.lambda_t());
        assert!(cond >= 0.0);
    }

    #[test]
    fn summary_collapses_shape_to_aggregate_losses() {
        let s = shape(2, 3);
        let sum = s.summary();
        assert_eq!(sum.m, 2);
        assert_eq!(sum.n, 3);
        // reads: 2 × λ_w = 8; writes: 3 × (λ_r + λ_w) = 30.
        assert!((sum.read_loss - 8.0).abs() < 1e-12);
        assert!((sum.write_loss - 30.0).abs() < 1e-12);
        assert_eq!(sum.lambda_t(), s.lambda_t());
    }

    #[test]
    fn summary_estimators_match_shape_estimators_bit_for_bit() {
        let m = model();
        let s = shape(3, 2);
        let sum = s.summary();
        let p = ProtocolParams {
            u_ok: 0.05,
            u_denied: 0.08,
            p_abort: 0.1,
            p_read_denial: 0.2,
            p_write_denial: 0.3,
        };
        assert_eq!(
            stl_2pl(&m, &s, &p).to_bits(),
            stl_2pl_summary(&m, &sum, &p).to_bits()
        );
        assert_eq!(
            stl_to(&m, &s, &p).to_bits(),
            stl_to_summary(&m, &sum, &p).to_bits()
        );
        assert_eq!(
            stl_pa(&m, &s, &p).to_bits(),
            stl_pa_summary(&m, &sum, &p).to_bits()
        );
    }

    #[test]
    fn stl_2pl_grows_with_abort_probability() {
        let m = model();
        let s = shape(2, 2);
        let p0 = ProtocolParams {
            u_ok: 0.05,
            u_denied: 0.08,
            p_abort: 0.0,
            ..Default::default()
        };
        let p_low = ProtocolParams {
            p_abort: 0.05,
            ..p0
        };
        let p_high = ProtocolParams { p_abort: 0.4, ..p0 };
        let v0 = stl_2pl(&m, &s, &p0);
        let v1 = stl_2pl(&m, &s, &p_low);
        let v2 = stl_2pl(&m, &s, &p_high);
        assert!(v0 < v1 && v1 < v2, "{v0} {v1} {v2}");
        // Certain deadlock ⇒ effectively infinite cost.
        let v3 = stl_2pl(&m, &s, &ProtocolParams { p_abort: 1.0, ..p0 });
        assert!(v3 > 1e100);
    }

    #[test]
    fn stl_to_grows_with_rejection_probability_and_txn_size() {
        let m = model();
        let base = ProtocolParams {
            u_ok: 0.05,
            u_denied: 0.05,
            p_read_denial: 0.1,
            p_write_denial: 0.1,
            ..Default::default()
        };
        let small = stl_to(&m, &shape(1, 1), &base);
        let large = stl_to(&m, &shape(4, 4), &base);
        assert!(
            large > 4.0 * small,
            "restart probability compounds with size: {small} vs {large}"
        );
        let low_rej = stl_to(
            &m,
            &shape(2, 2),
            &ProtocolParams {
                p_read_denial: 0.01,
                p_write_denial: 0.01,
                ..base
            },
        );
        let high_rej = stl_to(
            &m,
            &shape(2, 2),
            &ProtocolParams {
                p_read_denial: 0.4,
                p_write_denial: 0.4,
                ..base
            },
        );
        assert!(high_rej > low_rej);
        // Certain rejection ⇒ effectively infinite cost.
        let never = stl_to(
            &m,
            &shape(2, 2),
            &ProtocolParams {
                p_read_denial: 1.0,
                p_write_denial: 1.0,
                ..base
            },
        );
        assert!(never > 1e100);
    }

    #[test]
    fn stl_pa_pays_backoff_once_not_recursively() {
        let m = model();
        let params = ProtocolParams {
            u_ok: 0.05,
            u_denied: 0.05,
            p_read_denial: 0.5,
            p_write_denial: 0.5,
            ..Default::default()
        };
        let s = shape(3, 3);
        let pa = stl_pa(&m, &s, &params);
        let to = stl_to(&m, &s, &params);
        assert!(
            pa < to,
            "with equal denial probabilities PA (no restart) must cost less: {pa} vs {to}"
        );
        assert!(pa.is_finite());
    }

    #[test]
    fn zero_probabilities_make_all_three_equal_baseline() {
        // With no aborts/rejections/backoffs and identical hold times the
        // three estimators agree: they all reduce to STL'(Λ_t, U).
        let m = model();
        let s = shape(2, 1);
        let p = ProtocolParams {
            u_ok: 0.07,
            u_denied: 0.0,
            ..Default::default()
        };
        let a = stl_2pl(&m, &s, &p);
        let b = stl_to(&m, &s, &p);
        let c = stl_pa(&m, &s, &p);
        assert!((a - b).abs() < 1e-9);
        assert!((b - c).abs() < 1e-9);
    }

    #[test]
    fn longer_hold_times_cost_more_for_every_protocol() {
        let m = model();
        let s = shape(2, 2);
        let short = ProtocolParams {
            u_ok: 0.02,
            u_denied: 0.02,
            p_abort: 0.1,
            p_read_denial: 0.1,
            p_write_denial: 0.1,
        };
        let long = ProtocolParams {
            u_ok: 0.2,
            u_denied: 0.2,
            ..short
        };
        assert!(stl_2pl(&m, &s, &long) > stl_2pl(&m, &s, &short));
        assert!(stl_to(&m, &s, &long) > stl_to(&m, &s, &short));
        assert!(stl_pa(&m, &s, &long) > stl_pa(&m, &s, &short));
    }
}
