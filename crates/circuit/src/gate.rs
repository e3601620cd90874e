//! Gate library.
//!
//! The gate set covers everything needed for Sycamore-style random circuits
//! (√X, √Y, √W single-qubit layers and fSim two-qubit couplers) plus the
//! standard gates used by the examples and the verification suite.
//!
//! Every gate exposes its unitary as a row-major matrix of `Complex64`
//! values: 2×2 for single-qubit gates, 4×4 for two-qubit gates, with the
//! basis ordered `|q1 q0⟩` = `|00⟩, |01⟩, |10⟩, |11⟩` where `q0` is the first
//! qubit the gate is applied to.

use qtn_tensor::{c64, Complex64};
use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// A quantum gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Square root of X (Sycamore single-qubit gate).
    SqrtX,
    /// Square root of Y (Sycamore single-qubit gate).
    SqrtY,
    /// Square root of W where W = (X+Y)/√2 (Sycamore single-qubit gate).
    SqrtW,
    /// Z-axis rotation by an angle (radians).
    Rz(f64),
    /// X-axis rotation by an angle (radians).
    Rx(f64),
    /// Y-axis rotation by an angle (radians).
    Ry(f64),
    /// Controlled-Z.
    Cz,
    /// Controlled-X (CNOT), first qubit is the control.
    Cnot,
    /// iSWAP.
    ISwap,
    /// fSim(θ, φ): the Sycamore coupler gate.
    FSim {
        /// Swap angle θ in radians (Sycamore ≈ π/2).
        theta: f64,
        /// Conditional phase φ in radians (Sycamore ≈ π/6).
        phi: f64,
    },
    /// An arbitrary single-qubit unitary (row-major 2×2).
    Unitary1(Box<[Complex64; 4]>),
    /// An arbitrary two-qubit unitary (row-major 4×4).
    Unitary2(Box<[Complex64; 16]>),
}

impl Gate {
    /// Number of qubits this gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::T
            | Gate::SqrtX
            | Gate::SqrtY
            | Gate::SqrtW
            | Gate::Rz(_)
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Unitary1(_) => 1,
            Gate::Cz | Gate::Cnot | Gate::ISwap | Gate::FSim { .. } | Gate::Unitary2(_) => 2,
        }
    }

    /// The Sycamore fSim gate with θ = π/2, φ = π/6.
    pub fn sycamore_fsim() -> Gate {
        Gate::FSim { theta: PI / 2.0, phi: PI / 6.0 }
    }

    /// Names of the gate's free (sweepable) parameters, in the order
    /// `param_index` arguments address them. Empty for non-parameterized
    /// gates; the rotation gates expose `theta`, `FSim` exposes
    /// `theta` and `phi`.
    pub fn param_names(&self) -> &'static [&'static str] {
        match self {
            Gate::Rz(_) | Gate::Rx(_) | Gate::Ry(_) => &["theta"],
            Gate::FSim { .. } => &["theta", "phi"],
            _ => &[],
        }
    }

    /// Current values of the gate's free parameters, aligned with
    /// [`Gate::param_names`].
    pub fn params(&self) -> Vec<f64> {
        match self {
            Gate::Rz(t) | Gate::Rx(t) | Gate::Ry(t) => vec![*t],
            Gate::FSim { theta, phi } => vec![*theta, *phi],
            _ => Vec::new(),
        }
    }

    /// The same gate with parameter `param_index` replaced by `value`
    /// (radians). Returns `None` when the gate has no such parameter —
    /// every other parameter keeps its current value, so rebinding one
    /// `FSim` angle preserves the other.
    pub fn with_param(&self, param_index: usize, value: f64) -> Option<Gate> {
        match (self, param_index) {
            (Gate::Rz(_), 0) => Some(Gate::Rz(value)),
            (Gate::Rx(_), 0) => Some(Gate::Rx(value)),
            (Gate::Ry(_), 0) => Some(Gate::Ry(value)),
            (Gate::FSim { phi, .. }, 0) => Some(Gate::FSim { theta: value, phi: *phi }),
            (Gate::FSim { theta, .. }, 1) => Some(Gate::FSim { theta: *theta, phi: value }),
            _ => None,
        }
    }

    /// Row-major unitary matrix of the gate (length 4 for single-qubit,
    /// 16 for two-qubit gates).
    pub fn matrix(&self) -> Vec<Complex64> {
        self.with_matrix(<[Complex64]>::to_vec)
    }

    /// Call `f` on [`Self::matrix`] without allocating: raw unitaries lend
    /// their own storage, named gates build theirs on the stack.
    pub(crate) fn with_matrix<R>(&self, f: impl FnOnce(&[Complex64]) -> R) -> R {
        let o = Complex64::ONE;
        let z = Complex64::ZERO;
        let i = Complex64::I;
        // A two-qubit matrix from its nonzero entries.
        let sparse = |entries: &[(usize, Complex64)]| {
            let mut m = [z; 16];
            for &(at, value) in entries {
                m[at] = value;
            }
            m
        };
        match self {
            Gate::I => f(&[o, z, z, o]),
            Gate::X => f(&[z, o, o, z]),
            Gate::Y => f(&[z, -i, i, z]),
            Gate::Z => f(&[o, z, z, -o]),
            Gate::H => {
                let h = c64(FRAC_1_SQRT_2, 0.0);
                f(&[h, h, h, -h])
            }
            Gate::S => f(&[o, z, z, i]),
            Gate::T => f(&[o, z, z, Complex64::from_polar(1.0, PI / 4.0)]),
            Gate::SqrtX => f(&sqrt_x()),
            Gate::SqrtY => {
                // 1/2 [[1+i, -1-i], [1+i, 1+i]]
                let p = c64(0.5, 0.5);
                f(&[p, -p, p, p])
            }
            Gate::SqrtW => {
                // W = (X+Y)/√2 is X conjugated by a π/4 rotation about Z, so
                // √W = Rz(π/4)·√X·Rz(-π/4). Building it from exact factors
                // keeps the matrix unitary to machine precision.
                f(&mat2_mul(&mat2_mul(&rz(PI / 4.0), &sqrt_x()), &rz(-PI / 4.0)))
            }
            Gate::Rz(theta) => f(&rz(*theta)),
            Gate::Rx(theta) => {
                let c = c64((theta / 2.0).cos(), 0.0);
                let s = c64(0.0, -(theta / 2.0).sin());
                f(&[c, s, s, c])
            }
            Gate::Ry(theta) => {
                let c = c64((theta / 2.0).cos(), 0.0);
                let s = c64((theta / 2.0).sin(), 0.0);
                f(&[c, -s, s, c])
            }
            Gate::Unitary1(m) => f(&m[..]),
            Gate::Cz => f(&sparse(&[(0, o), (5, o), (10, o), (15, -o)])),
            // Control = first qubit: basis order |q0 q1> with q0 the first
            // argument as the most significant bit, so 10 <-> 11.
            Gate::Cnot => f(&sparse(&[(0, o), (5, o), (11, o), (14, o)])),
            Gate::ISwap => f(&sparse(&[(0, o), (6, i), (9, i), (15, o)])),
            Gate::FSim { theta, phi } => {
                let c = c64(theta.cos(), 0.0);
                let s = c64(0.0, -theta.sin());
                let ph = Complex64::from_polar(1.0, -phi);
                f(&sparse(&[(0, o), (5, c), (6, s), (9, s), (10, c), (15, ph)]))
            }
            Gate::Unitary2(m) => f(&m[..]),
        }
    }

    /// Check that the gate's matrix is unitary to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let m = self.matrix();
        let n = if self.arity() == 1 { 2 } else { 4 };
        // U U^dagger == I
        for r in 0..n {
            for c in 0..n {
                let mut acc = Complex64::ZERO;
                for k in 0..n {
                    acc += m[r * n + k] * m[c * n + k].conj();
                }
                let expect = if r == c { Complex64::ONE } else { Complex64::ZERO };
                if (acc - expect).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// `√X = 1/2 [[1+i, 1-i], [1-i, 1+i]]`.
fn sqrt_x() -> [Complex64; 4] {
    let p = c64(0.5, 0.5);
    let m = c64(0.5, -0.5);
    [p, m, m, p]
}

/// `Rz(θ) = diag(e^{-iθ/2}, e^{iθ/2})`.
fn rz(theta: f64) -> [Complex64; 4] {
    let e_m = Complex64::from_polar(1.0, -theta / 2.0);
    let e_p = Complex64::from_polar(1.0, theta / 2.0);
    [e_m, Complex64::ZERO, Complex64::ZERO, e_p]
}

/// Multiply two row-major 2×2 complex matrices.
fn mat2_mul(a: &[Complex64], b: &[Complex64]) -> [Complex64; 4] {
    let mut out = [Complex64::ZERO; 4];
    for r in 0..2 {
        for c in 0..2 {
            out[r * 2 + c] = a[r * 2] * b[c] + a[r * 2 + 1] * b[2 + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixed_gates_are_unitary() {
        let gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::SqrtX,
            Gate::SqrtY,
            Gate::SqrtW,
            Gate::Rz(0.7),
            Gate::Rx(1.3),
            Gate::Ry(-2.1),
            Gate::Cz,
            Gate::Cnot,
            Gate::ISwap,
            Gate::sycamore_fsim(),
            Gate::FSim { theta: 0.4, phi: 1.1 },
        ];
        for g in gates {
            assert!(g.is_unitary(1e-10), "{g:?} is not unitary");
        }
    }

    #[test]
    fn arity_is_correct() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::SqrtW.arity(), 1);
        assert_eq!(Gate::Cz.arity(), 2);
        assert_eq!(Gate::sycamore_fsim().arity(), 2);
    }

    #[test]
    fn sqrt_x_squares_to_x() {
        let s = Gate::SqrtX.matrix();
        let sq = mat2_mul(&s, &s);
        let x = Gate::X.matrix();
        for (a, b) in sq.iter().zip(x.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn sqrt_y_squares_to_y() {
        let s = Gate::SqrtY.matrix();
        let sq = mat2_mul(&s, &s);
        let y = Gate::Y.matrix();
        for (a, b) in sq.iter().zip(y.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn sqrt_w_squares_to_w() {
        let s = Gate::SqrtW.matrix();
        let sq = mat2_mul(&s, &s);
        // W = (X + Y)/sqrt(2)
        let x = Gate::X.matrix();
        let y = Gate::Y.matrix();
        let w: Vec<Complex64> =
            x.iter().zip(y.iter()).map(|(a, b)| (*a + *b).scale(FRAC_1_SQRT_2)).collect();
        for (a, b) in sq.iter().zip(w.iter()) {
            assert!((*a - *b).abs() < 1e-12, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let h = Gate::H.matrix();
        let sq = mat2_mul(&h, &h);
        let id = Gate::I.matrix();
        for (a, b) in sq.iter().zip(id.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn fsim_at_zero_angles_is_identity() {
        let m = Gate::FSim { theta: 0.0, phi: 0.0 }.matrix();
        for r in 0..4 {
            for c in 0..4 {
                let expect = if r == c { Complex64::ONE } else { Complex64::ZERO };
                assert!((m[r * 4 + c] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fsim_theta_pi_over_2_swaps_with_phase() {
        let m = Gate::FSim { theta: PI / 2.0, phi: 0.0 }.matrix();
        // |01> -> -i |10>
        assert!((m[6] - c64(0.0, -1.0)).abs() < 1e-12);
        assert!((m[9] - c64(0.0, -1.0)).abs() < 1e-12);
        assert!(m[5].abs() < 1e-12);
    }

    #[test]
    fn cnot_flips_target_when_control_set() {
        let m = Gate::Cnot.matrix();
        // |10> (index 2) -> |11> (index 3): column 2 has a 1 in row 3.
        assert_eq!(m[3 * 4 + 2], Complex64::ONE);
        assert_eq!(m[2 * 4 + 3], Complex64::ONE);
        assert_eq!(m[0], Complex64::ONE);
        assert_eq!(m[5], Complex64::ONE);
    }

    #[test]
    fn param_accessors_cover_the_parameterized_gates() {
        assert_eq!(Gate::Rz(0.3).param_names(), &["theta"]);
        assert_eq!(Gate::Rz(0.3).params(), vec![0.3]);
        assert_eq!(Gate::FSim { theta: 0.4, phi: 1.1 }.param_names(), &["theta", "phi"]);
        assert_eq!(Gate::FSim { theta: 0.4, phi: 1.1 }.params(), vec![0.4, 1.1]);
        assert!(Gate::H.param_names().is_empty());
        assert!(Gate::Cz.params().is_empty());
    }

    #[test]
    fn with_param_replaces_one_angle_and_keeps_the_rest() {
        assert_eq!(Gate::Rx(0.1).with_param(0, 2.5), Some(Gate::Rx(2.5)));
        assert_eq!(
            Gate::FSim { theta: 0.4, phi: 1.1 }.with_param(1, -0.2),
            Some(Gate::FSim { theta: 0.4, phi: -0.2 })
        );
        assert_eq!(
            Gate::FSim { theta: 0.4, phi: 1.1 }.with_param(0, 0.9),
            Some(Gate::FSim { theta: 0.9, phi: 1.1 })
        );
        assert_eq!(Gate::Ry(0.1).with_param(1, 2.5), None, "Ry has a single parameter");
        assert_eq!(Gate::H.with_param(0, 1.0), None, "H has no parameters");
    }

    #[test]
    fn rz_composition() {
        let a = Gate::Rz(0.3).matrix();
        let b = Gate::Rz(0.5).matrix();
        let ab = mat2_mul(&a, &b);
        let direct = Gate::Rz(0.8).matrix();
        for (x, y) in ab.iter().zip(direct.iter()) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }
}
