//! The recursive STL′ function (paper, Section 5.1).
//!
//! `STL'(λ_loss, U)` is the expected system throughput loss over a period of
//! `U` seconds that starts with a blocked throughput of `λ_loss` (locks per
//! second that cannot be granted because of the locks the transaction under
//! consideration holds). While the period runs, other requests keep acquiring
//! locks at rate `λ_A − λ_loss`; each such acquisition belongs to a
//! transaction that is itself blocked with probability
//! `1 − (1 − λ_loss/λ_A)^(K−1)` (one of its other `K−1` requests hits a
//! blocked item), in which case the newly locked item becomes unavailable too
//! and the loss rate rises by `λ_new = λ̄_w + (1 − Q_r)·λ̄_r` (a read lock
//! blocks writers, a write lock blocks everyone; averaged over the read
//! fraction).
//!
//! The recursion
//!
//! ```text
//! STL'(λ, U) = λ_A·U                                    if λ ≥ λ_A
//! STL'(λ, U) = e^(−β·U)·λ·U
//!            + ∫₀ᵁ β·e^(−β·x)·(λ·x + STL'(λ + λ_new, U − x)) dx
//! where β = (λ_A − λ)·(1 − (1 − λ/λ_A)^(K−1))
//! ```
//!
//! is evaluated bottom-up on a `(level, time)` grid — the dynamic-programming
//! evaluation the paper refers to — with linear interpolation in the time
//! dimension.

/// Time cells per DP level.
const TIME_STEPS: usize = 48;
/// Cap on the escalation levels evaluated before saturation is assumed.
const MAX_LEVELS: usize = 64;

/// System-wide parameters of the STL model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StlModel {
    /// Total system throughput λ_A (lock grants per second over all queues).
    pub lambda_a: f64,
    /// Average per-queue read-lock throughput λ̄_r.
    pub lambda_r: f64,
    /// Average per-queue write-lock throughput λ̄_w.
    pub lambda_w: f64,
    /// Fraction of requests that are reads, Q_r.
    pub q_r: f64,
    /// Average number of requests per transaction, K.
    pub k: f64,
}

impl StlModel {
    /// The loss-rate increment λ_new added each time a blocked transaction
    /// acquires one more lock.
    pub fn lambda_new(&self) -> f64 {
        self.lambda_w + (1.0 - self.q_r) * self.lambda_r
    }

    /// The blocking rate β(λ_loss): the rate at which lock acquisitions by
    /// *blocked* transactions occur when the current loss is `lambda_loss`.
    pub fn lambda_block(&self, lambda_loss: f64) -> f64 {
        if self.lambda_a <= 0.0 {
            return 0.0;
        }
        let loss = lambda_loss.clamp(0.0, self.lambda_a);
        let p_blocked = 1.0 - (1.0 - loss / self.lambda_a).powf((self.k - 1.0).max(0.0));
        (self.lambda_a - loss) * p_blocked
    }

    /// Evaluate `STL'(λ_loss, U)` (throughput-loss · time, i.e. "lost lock
    /// grants") for a blocking period of `u` seconds.
    ///
    /// `u` and `lambda_loss` outside their meaningful ranges are clamped; the
    /// result is always in `[0, λ_A·U]`.
    pub fn stl_prime(&self, lambda_loss: f64, u: f64) -> f64 {
        if !u.is_finite() || u <= 0.0 || self.lambda_a <= 0.0 {
            return 0.0;
        }
        let lambda_loss = lambda_loss.max(0.0);
        if lambda_loss >= self.lambda_a {
            return self.lambda_a * u;
        }
        let delta = self.lambda_new().max(1e-12);
        // Number of escalation levels before the loss saturates at λ_A.
        let levels = (((self.lambda_a - lambda_loss) / delta).ceil() as usize + 1).min(MAX_LEVELS);
        let dt = u / TIME_STEPS as f64;

        // f[level][i] = STL'(λ_loss + level·Δ, i·dt), two rows at a time:
        // `upper` is the level above the one being filled into `current`.
        // Top level (saturated): λ_A · t.
        let mut saturated = [0.0f64; TIME_STEPS + 1];
        for (i, cell) in saturated.iter_mut().enumerate() {
            *cell = self.lambda_a * (i as f64 * dt);
        }
        let mut upper = saturated;
        let mut current = [0.0f64; TIME_STEPS + 1];
        for level in (0..levels).rev() {
            let lambda = (lambda_loss + level as f64 * delta).min(self.lambda_a);
            if lambda >= self.lambda_a {
                upper = saturated;
                continue;
            }
            let beta = self.lambda_block(lambda);
            // Escalation integral, trapezoid over the grid cells:
            // ∫₀ᵗ β e^{-βx} (λ x + f_upper(t − x)) dx. Evaluated naively this
            // is O(steps) per time point (O(steps²) per level); both pieces
            // admit exact O(1) per-step recurrences, making the whole grid
            // O(levels · steps):
            //   * the λx piece has no dependence on t beyond the upper
            //     limit — a running prefix sum `own` of its trapezoid;
            //   * the f_upper piece is a convolution against e^{-βx}; its
            //     trapezoid satisfies
            //       C_i = e^{-β·dt}·C_{i−1}
            //             + ½·dt·β·(upper[i] + e^{-β·dt}·upper[i−1]),
            //     which reproduces the summed trapezoid exactly (shift the
            //     summation index to see the identity).
            let decay = (-beta * dt).exp();
            // g1(x) = β e^{-βx} λ x, the λx integrand. Each cell needs it at
            // both trapezoid ends; the left end is the previous cell's right
            // end, so it is carried, and the one `exp` a cell pays is shared
            // with its no-escalation term.
            let mut g1_prev = beta * (-beta * 0.0).exp() * lambda * 0.0;
            current[0] = 0.0;
            let mut own = 0.0f64;
            let mut conv = 0.0f64;
            for i in 1..=TIME_STEPS {
                let t = i as f64 * dt;
                let survive = (-beta * t).exp();
                // No-escalation term.
                let mut value = survive * lambda * t;
                if beta > 0.0 {
                    let g1 = beta * survive * lambda * t;
                    own += 0.5 * (g1_prev + g1) * dt;
                    g1_prev = g1;
                    conv = decay * conv + 0.5 * dt * beta * (upper[i] + decay * upper[i - 1]);
                    value += own + conv;
                }
                current[i] = value.min(self.lambda_a * t);
            }
            std::mem::swap(&mut upper, &mut current);
        }
        upper[TIME_STEPS]
    }
}

/// The parent kernel, kept verbatim as the bit-for-bit reference of
/// [`StlModel::stl_prime`]: three `exp` calls per grid cell and one `Vec`
/// per level.
#[cfg(test)]
impl StlModel {
    fn stl_prime_reference(&self, lambda_loss: f64, u: f64) -> f64 {
        if !u.is_finite() || u <= 0.0 || self.lambda_a <= 0.0 {
            return 0.0;
        }
        let lambda_loss = lambda_loss.max(0.0);
        if lambda_loss >= self.lambda_a {
            return self.lambda_a * u;
        }
        let delta = self.lambda_new().max(1e-12);
        let levels = (((self.lambda_a - lambda_loss) / delta).ceil() as usize + 1).min(MAX_LEVELS);
        let dt = u / TIME_STEPS as f64;
        let mut upper: Vec<f64> = (0..=TIME_STEPS)
            .map(|i| self.lambda_a * (i as f64 * dt))
            .collect();
        for level in (0..levels).rev() {
            let lambda = (lambda_loss + level as f64 * delta).min(self.lambda_a);
            if lambda >= self.lambda_a {
                upper = (0..=TIME_STEPS)
                    .map(|i| self.lambda_a * (i as f64 * dt))
                    .collect();
                continue;
            }
            let beta = self.lambda_block(lambda);
            let mut current = vec![0.0f64; TIME_STEPS + 1];
            let decay = (-beta * dt).exp();
            let g1 = |x: f64| beta * (-beta * x).exp() * lambda * x;
            let mut own = 0.0f64;
            let mut conv = 0.0f64;
            for i in 1..=TIME_STEPS {
                let t = i as f64 * dt;
                let mut value = (-beta * t).exp() * lambda * t;
                if beta > 0.0 {
                    own += 0.5 * (g1((i - 1) as f64 * dt) + g1(t)) * dt;
                    conv = decay * conv + 0.5 * dt * beta * (upper[i] + decay * upper[i - 1]);
                    value += own + conv;
                }
                current[i] = value.min(self.lambda_a * t);
            }
            upper = current;
        }
        upper[TIME_STEPS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StlModel {
        StlModel {
            lambda_a: 100.0,
            lambda_r: 6.0,
            lambda_w: 4.0,
            q_r: 0.6,
            k: 4.0,
        }
    }

    #[test]
    fn lambda_new_mixes_read_and_write_losses() {
        let m = model();
        // λ_w + (1 − Q_r)·λ_r = 4 + 0.4·6 = 6.4.
        assert!((m.lambda_new() - 6.4).abs() < 1e-12);
    }

    #[test]
    fn lambda_block_is_zero_at_zero_and_at_saturation() {
        let m = model();
        assert_eq!(m.lambda_block(0.0), 0.0);
        assert!(m.lambda_block(m.lambda_a) < 1e-9);
        assert!(m.lambda_block(m.lambda_a * 2.0) < 1e-9, "clamped above λ_A");
        let mid = m.lambda_block(30.0);
        assert!(mid > 0.0 && mid < m.lambda_a);
    }

    #[test]
    fn stl_prime_zero_duration_is_zero() {
        let m = model();
        assert_eq!(m.stl_prime(10.0, 0.0), 0.0);
        assert_eq!(m.stl_prime(10.0, -5.0), 0.0);
        assert_eq!(m.stl_prime(10.0, f64::NAN), 0.0);
    }

    #[test]
    fn stl_prime_saturates_at_lambda_a_times_u() {
        let m = model();
        assert!((m.stl_prime(150.0, 2.0) - 200.0).abs() < 1e-9);
        assert!((m.stl_prime(100.0, 0.5) - 50.0).abs() < 1e-9);
        // Any value is bounded by λ_A·U.
        for loss in [1.0, 10.0, 50.0, 90.0] {
            for u in [0.01, 0.1, 1.0] {
                assert!(m.stl_prime(loss, u) <= m.lambda_a * u + 1e-9);
            }
        }
    }

    #[test]
    fn stl_prime_is_at_least_the_unescalated_loss() {
        // With escalation, loss can only grow beyond λ_loss · U... but the
        // recursion replaces, not adds, during escalated periods, so the true
        // lower bound is the no-escalation term; check monotonicity in λ_loss
        // and U instead, plus a loose lower bound of e^{-βU}·λ·U.
        let m = model();
        let loss = 20.0;
        let u = 0.5;
        let beta = m.lambda_block(loss);
        let lower = (-beta * u).exp() * loss * u;
        assert!(m.stl_prime(loss, u) >= lower - 1e-9);
    }

    #[test]
    fn stl_prime_monotone_in_loss_and_duration() {
        let m = model();
        let mut prev = 0.0;
        for loss in [0.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let v = m.stl_prime(loss, 0.2);
            assert!(v + 1e-9 >= prev, "monotone in λ_loss: {v} vs {prev}");
            prev = v;
        }
        let mut prev = 0.0;
        for u in [0.0, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let v = m.stl_prime(15.0, u);
            assert!(v + 1e-9 >= prev, "monotone in U: {v} vs {prev}");
            prev = v;
        }
    }

    #[test]
    fn stl_prime_with_no_contention_is_roughly_linear() {
        // With K = 1 no other transaction is ever blocked (λ_block = 0), so
        // the loss is exactly λ_loss · U.
        let m = StlModel {
            lambda_a: 100.0,
            lambda_r: 5.0,
            lambda_w: 5.0,
            q_r: 0.5,
            k: 1.0,
        };
        let v = m.stl_prime(12.0, 0.3);
        assert!((v - 12.0 * 0.3).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn longer_holds_cause_superlinear_loss_under_contention() {
        // With contention (K large), doubling the hold time more than doubles
        // the loss because escalation compounds.
        let m = StlModel {
            lambda_a: 200.0,
            lambda_r: 10.0,
            lambda_w: 10.0,
            q_r: 0.5,
            k: 8.0,
        };
        let short = m.stl_prime(20.0, 0.2);
        let long = m.stl_prime(20.0, 0.4);
        assert!(
            long > 2.0 * short,
            "escalation should compound: {short} vs {long}"
        );
    }

    #[test]
    fn one_exp_kernel_is_bit_identical_to_the_reference() {
        let mut rng = simkit::rng::SimRng::new(0x5711);
        let mut escalated = 0usize;
        for case in 0..4000u32 {
            let lambda_a = 1.0 + 999.0 * rng.next_f64();
            let m = StlModel {
                lambda_a,
                lambda_r: lambda_a * 0.2 * rng.next_f64(),
                lambda_w: lambda_a * 0.2 * rng.next_f64(),
                q_r: rng.next_f64(),
                // Every eighth model has K = 1: nobody else is ever blocked.
                k: if case % 8 == 0 {
                    1.0
                } else {
                    1.0 + 9.0 * rng.next_f64()
                },
            };
            // Every fifth loss is saturated (λ ≥ λ_A), every seventh hold
            // time is vanishing (U → 0).
            let loss = if case % 5 == 0 {
                lambda_a * (1.0 + rng.next_f64())
            } else {
                lambda_a * rng.next_f64()
            };
            let u = if case % 7 == 0 {
                1e-12 * rng.next_f64()
            } else {
                2.0 * rng.next_f64()
            };
            let (fast, reference) = (m.stl_prime(loss, u), m.stl_prime_reference(loss, u));
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "case {case}: {m:?} λ={loss} U={u}: {fast} vs {reference}"
            );
            if loss < lambda_a && m.lambda_block(loss) > 0.0 {
                escalated += 1;
            }
        }
        assert!(escalated > 2000, "only {escalated} cases ran the DP proper");
    }

    #[test]
    fn degenerate_system_throughput_yields_zero() {
        let m = StlModel {
            lambda_a: 0.0,
            lambda_r: 0.0,
            lambda_w: 0.0,
            q_r: 0.5,
            k: 2.0,
        };
        assert_eq!(m.stl_prime(5.0, 1.0), 0.0);
        assert_eq!(m.lambda_block(1.0), 0.0);
    }
}
