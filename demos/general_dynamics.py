"""Arbitrary linear dynamics du/dt = -A u.

Any square A splits into a dissipative Hermitian part H and an oscillatory
part Hbar with A = H + i*Hbar.  After the warped lift, each auxiliary mode
mu evolves under the Hermitian generator mu*H + Hbar, so the whole flow is
a family of Schrodinger equations.  The recovered solution is compared to
a dense matrix exponential.
"""

import numpy as np

from schrodingerize import (
    AxisSpec,
    StateVector,
    expm_apply,
    hermitian_decompose,
    schrodingerize_evolve,
)

rng = np.random.default_rng(7)
q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
h = q @ np.diag([0.0, 0.4, 1.1, 1.9]) @ q.conj().T  # PSD dissipative part
g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
a = h + 1j * 0.5 * (g + g.conj().T)

pair = hermitian_decompose(a)
print("Hermitian split of A (4x4):")
print(f"  |H|_max = {pair.h.max_norm:.3f}, |Hbar|_max = {pair.h_bar.max_norm:.3f}")
print(f"  reconstruction defect |H + i Hbar - A| = "
      f"{np.abs(pair.reconstruct() - a).max():.2e}")

u0_amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
u0 = StateVector(u0_amps, (AxisSpec("x1", 4),))

print("\nrecovered solution vs exp(-A t) u0 at the default auxiliary grid:")
for t in (0.1, 0.3, 0.5):
    _, rec = schrodingerize_evolve(u0, a, None, t)
    reference = expm_apply(a, u0_amps, t)
    rel = np.linalg.norm(rec.u.amplitudes - reference) / np.linalg.norm(reference)
    print(f"  t = {t:3.1f}:  relative error = {rel:.2e}   "
          f"norm ratio |u(0)|/|u(t)| = {rec.cost.norm_ratio:.3f}")

_, rec = schrodingerize_evolve(u0, a, None, 0.5)
print("\nprojection bookkeeping of the lifted state at t = 0.5:")
print(f"  success probability = {rec.success_probability:.3f}")
print(f"  amplification cost factor = {rec.cost_factor:.3f} "
      f"(equals |u(0)|/|u(t)| by norm conservation)")
