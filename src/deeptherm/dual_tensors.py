"""Space-time-dual tensors of the self-dual kicked Ising circuit.

The three-index tensor W[sigma, tau, tau'] maps two temporal bond registers
to the spatial subsystem register.  It is built operationally: simulate the
subsystem columns of the circuit for t steps with the straddling ZZ gates
cut open.  A diagonal two-site gate splits exactly as

    exp(-i J Z (x) Z) = sum_b |b><b|_bath (x) exp(-i J (1-2b) Z)_subsystem,

so the subsystem side collects bond-indexed phase gates (one per step and
side) while the bath side collects projectors; contracting the two halves
reproduces exact projected amplitudes with no leftover scalar.

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


def spin_table(n: int) -> np.ndarray:
    """spins[i, x] = 1 - 2*bit_i(x) over x in 0..2^n-1, bit 0 most significant."""
    x = np.arange(2**n)
    spins = np.empty((n, 2**n))
    for i in range(n):
        spins[i] = 1.0 - 2.0 * ((x >> (n - 1 - i)) & 1)
    return spins


def _apply_kick_all(S: np.ndarray, n_sites: int, K: np.ndarray) -> np.ndarray:
    """Kick every site axis of S, whose leading axes are n_sites qubit axes."""
    for i in range(n_sites):
        S = np.moveaxis(S, i, -1)
        S = S @ K.T
        S = np.moveaxis(S, -1, i)
    return S


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


def build_wprime(
    n_a: int,
    t: int,
    g: float,
    j: float = PI4,
    h: float = PI4,
    normalize: bool = True,
) -> WTensor:
    """Contract the subsystem-column network for t steps, bond legs open.

    Bottom legs are fixed to |+>^n_a, top legs read out <sigma|; the t left
    and t right bond legs stay open.  With normalize=True the tensor is
    rescaled so its isometry constant is 1.
    """
    if n_a < 1 or t < min_depth(n_a):
        raise ValueError(f"need n_a >= 1 and t >= ceil(n_a/2), got n_a={n_a}, t={t}")
    if n_a > 4 or t > 6:
        raise ValueError("dense contraction limited to n_a <= 4, t <= 6")
    dA, T = 2**n_a, 2**t
    S = np.full((dA, T, T), 2.0 ** (-n_a / 2), dtype=complex)
    spins = spin_table(n_a)
    energy = g * spins.sum(axis=0)
    for i in range(n_a - 1):
        energy = energy + j * spins[i] * spins[i + 1]
    interior_phase = np.exp(-1j * energy)
    K = kick_matrix(h)
    tau = np.arange(T)
    for step in range(t):
        bond_spin = 1.0 - 2.0 * ((tau >> (t - 1 - step)) & 1)  # step 0 = MSB of tau
        S *= interior_phase[:, None, None]
        S *= np.exp(-1j * j * spins[0][:, None, None] * bond_spin[None, :, None])
        S *= np.exp(-1j * j * spins[n_a - 1][:, None, None] * bond_spin[None, None, :])
        S = _apply_kick_all(S.reshape((2,) * n_a + (T, T)), n_a, K).reshape(dA, T, T)
    M = S.reshape(dA, -1)
    c = float(np.mean(np.einsum("ij,ij->i", M, M.conj()).real))
    if normalize:
        S = S / np.sqrt(c)
    return WTensor(n_a=n_a, t_legs=t, data=S)


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
    """Partial trace over all but the first t0 temporal qubits.

    Tr(W @ reduce(U)) then equals the full contraction Tr((W (x) I) U).
    """
    dim = u.shape[0]
    if u.shape != (dim, dim):
        raise ValueError("expected a square matrix")
    t = int(round(np.log2(dim)))
    if 2**t != dim or t < t0:
        raise ValueError(f"dimension {dim} incompatible with t0={t0}")
    d0, dr = 2**t0, 2 ** (t - t0)
    return np.einsum("irjr->ij", u.reshape(d0, dr, d0, dr))


def dual_site_layer(z: int, t: int, g: float, j: float = PI4, h: float = PI4) -> np.ndarray:
    """One-site dual transfer matrix T[tau_out, tau_in] for measurement outcome z.

    The site column is contracted with |+> at the bottom and <z| at the top;
    the bond toward the incoming side enters as phase gates, the bond toward
    the outgoing side as projectors.  At the self-dual point the result is
    proportional to a unitary on the t temporal qubits; it is returned
    rescaled to that unitary.
    """
    T = 2**t
    K = kick_matrix(h)
    tau = np.arange(T)
    bits = np.stack([(tau >> (t - 1 - s)) & 1 for s in range(t)])  # [t, T]
    # v[q, tau_in, tau_out]: single-qubit state batched over both bond registers
    v = np.zeros((2, T, T), dtype=complex)
    v[:, :, :] = 2.0 ** (-0.5)
    site_spin = np.array([1.0, -1.0])
    for step in range(t):
        in_spin = 1.0 - 2.0 * bits[step]
        v *= np.exp(-1j * (j * in_spin[None, :, None] + g) * site_spin[:, None, None])
        keep = bits[step][None, None, :] == np.arange(2)[:, None, None]
        v = np.where(keep, v, 0.0)
        v = np.einsum("pq,qio->pio", K, v)
    out = v[z].T  # [tau_out, tau_in]
    out = out / np.sqrt(np.trace(out.conj().T @ out).real / T)
    defect = np.abs(out.conj().T @ out - np.eye(T)).max()
    if defect > 1e-8:
        raise TensorConventionError(f"dual site layer not unitary (defect {defect:.2e})")
    return out


def bath_side_unitary(zs, t: int, g: float, j: float = PI4, h: float = PI4) -> np.ndarray:
    """Temporal map U(z) of a bath segment: product of per-site dual layers."""
    layers = {b: dual_site_layer(b, t, g, j=j, h=h) for b in (0, 1)}
    U = np.eye(2**t, dtype=complex)
    for z in zs:
        U = layers[z] @ U
    return U


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
