"""Space-time-dual tensors of the self-dual kicked Ising circuit.

Each site column of the circuit, read sideways with its ZZ gates cut open,
is a map on the t temporal qubits, its dual site layer T(z)[tau_out, tau_in]
(|+> at the bottom of the column, <z| at the top).  Bit k of tau_out is the
site's spin at step k, step 0 the most significant bit, so

    T(z) = diag(a_z) B_t(j),
    a_z(s) = 2^-1/2 K[z, s_(t-1)] prod_(k>=1) K[s_k, s_(k-1)] exp(-i g (t - 2 popcount s)),

K = kick_matrix(h), and B_t(j) (bond_phases) is the ZZ bond between two
temporal registers.  At the self-dual point each layer is proportional to a
unitary.  A bath segment's temporal map U(z) is the product of its sites'
layers.  The three-index tensor W[sigma, tau_left, tau_right], from two
temporal bond registers to the subsystem register, is the same product over
the subsystem sites for the bits of sigma, transposed to (tau_left, s) and
closed on the right bond by B_t(j).

W at the minimal depth t0 = ceil(n_a/2) plays the role of the reduced
tensor: every consumer contracts it between objects invariant under unitary
rotations of the temporal legs, which makes the depth-t0 construction
interchangeable with any gauge-fixed reduction (checked by the
time-factorization tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PI4 = np.pi / 4


class TensorConventionError(RuntimeError):
    """Raised when an object that must be unitary/isometric is not."""


def min_depth(n_a: int) -> int:
    """Minimal temporal depth t0 = ceil(n_a / 2)."""
    return (n_a + 1) // 2


def kick_matrix(h: float) -> np.ndarray:
    """exp(-i h sigma_y); equals X @ H at the self-dual point h = pi/4."""
    return np.array([[np.cos(h), -np.sin(h)], [np.sin(h), np.cos(h)]], dtype=complex)


@dataclass(frozen=True)
class WTensor:
    """data[sigma, tau_left, tau_right] with sigma on 2^n_a, tau on 2^t_legs."""

    n_a: int
    t_legs: int
    data: np.ndarray

    def isometry_defect(self) -> float:
        M = self.data.reshape(2**self.n_a, -1)
        G = M @ M.conj().T
        c = np.mean(np.diag(G).real)
        return float(np.abs(G - c * np.eye(2**self.n_a)).max())


def build_wprime(n_a: int, t: int, g: float, j: float = PI4, h: float = PI4) -> WTensor:
    """W at depth t from the dual layers (module docstring), site 0 the most
    significant bit of sigma, rescaled so its isometry constant is 1."""
    if n_a < 1 or t < min_depth(n_a):
        raise ValueError(f"need n_a >= 1 and t >= ceil(n_a/2), got n_a={n_a}, t={t}")
    if n_a > 4 or t > 6:
        raise ValueError("W limited to n_a <= 4, t <= 6")
    sigma = np.arange(2**n_a)
    layers = np.stack([dual_site_layer(b, t, g, j=j, h=h) for b in (0, 1)])
    M = np.eye(2**t, dtype=complex)
    for i in range(n_a):  # M[sigma] = T(s_{n_a-1}) ... T(s_0), s_i the bit of site i
        M = layers[(sigma >> (n_a - 1 - i)) & 1] @ M
    S = np.swapaxes(M, 1, 2) @ bond_phases(t, j)
    rows = S.reshape(2**n_a, -1)
    c = float(np.mean(np.einsum("ij,ij->i", rows, rows.conj()).real))
    return WTensor(n_a=n_a, t_legs=t, data=S / np.sqrt(c))


# The one coupling g of W: W(g') = V W(g) with V unitary (n_a = 1, 2, 4), so no
# distance to the unitarily invariant Haar moment depends on g; at n_a = 3 the
# distances agree though no V exists (tests/test_dual_tensors.py).
W_COUPLING = 0.3


def build_w(n_a: int) -> WTensor:
    """W at minimal depth and W_COUPLING; raises if the isometry property fails."""
    w = build_wprime(n_a, min_depth(n_a), W_COUPLING)
    defect = w.isometry_defect()
    if defect > 1e-8:
        raise TensorConventionError(
            f"W tensor is not an isometry (defect {defect:.2e}); "
            "circuit cut conventions are broken"
        )
    return w


def reduce_temporal_operator(u: np.ndarray, t0: int) -> np.ndarray:
    """Partial trace over all but the first t0 temporal qubits of a 2^t x 2^t matrix,
    or of each one in a (..., 2^t, 2^t) stack (the MC's Haar batches), so that
    Tr(W @ reduce(U)) equals the full contraction Tr((W (x) I) U)."""
    *lead, rows, dim = u.shape  # fewer than two axes raise ValueError here
    t = dim.bit_length() - 1
    if rows != dim or dim != 2**t or t < t0:
        raise ValueError(f"shape {u.shape} is not (..., 2^t, 2^t) with t >= t0={t0}")
    d0, dr = 2**t0, 2 ** (t - t0)
    return np.einsum("...irjr->...ij", u.reshape(*lead, d0, dr, d0, dr))


def bond_phases(t: int, j: float) -> np.ndarray:
    """B_t(j)[tau, tau'] = exp(-i j (t - 2 popcount(tau xor tau'))), the ZZ bond
    between two registers of t temporal qubits."""
    tau = np.arange(2**t)
    # popcount is uint8: subtracting it from t in integers would wrap
    return np.exp(-1j * j * (t - 2.0 * np.bitwise_count(tau[:, None] ^ tau)))


def dual_site_layer(z: int, t: int, g: float, j: float = PI4, h: float = PI4) -> np.ndarray:
    """One-site dual transfer matrix T[tau_out, tau_in] = a_z(tau_out) B_t(j)[tau_out, tau_in]
    for measurement outcome z (module docstring), rescaled to the unitary it is
    proportional to at the self-dual point."""
    K = kick_matrix(h)
    tau = np.arange(2**t)
    s = (tau[:, None] >> np.arange(t - 1, -1, -1)) & 1  # s[tau, k], step 0 the most significant bit
    a = K[z, s[:, -1]] * np.prod(K[s[:, 1:], s[:, :-1]], axis=1)
    a *= np.exp(-1j * g * (t - 2.0 * np.bitwise_count(tau))) / np.sqrt(2)
    out = a[:, None] * bond_phases(t, j)
    out = out / np.sqrt(np.trace(out.conj().T @ out).real / 2**t)
    defect = np.abs(out.conj().T @ out - np.eye(2**t)).max()
    if defect > 1e-8:
        raise TensorConventionError(f"dual site layer not unitary (defect {defect:.2e})")
    return out


def dump_wtensor(w: WTensor, path) -> None:
    """Binary dump: ascii header line, then little-endian complex64 data.

    Header: "WT1 n_a t_legs\\n"; data in C order over (sigma, tau, tau').
    """
    with open(path, "wb") as f:
        f.write(f"WT1 {w.n_a} {w.t_legs}\n".encode())
        f.write(w.data.astype("<c8").tobytes())


def load_wtensor(path) -> WTensor:
    with open(path, "rb") as f:
        header = f.readline().decode().split()
        if len(header) != 3 or header[0] != "WT1":
            raise ValueError("not a WT1 dump")
        n_a, t_legs = int(header[1]), int(header[2])
        data = np.frombuffer(f.read(), dtype="<c8").astype(np.complex128)
    return WTensor(n_a=n_a, t_legs=t_legs, data=data.reshape(2**n_a, 2**t_legs, 2**t_legs))
