"""Kinetic transport with isotropic scattering.

The phase-space density W(t, x, k) advects at velocity k and relaxes
toward its velocity average through the scattering matrix.  The lifted
run is compared to the exact solution (with x Fourier transformed, one
matrix exponential per spatial frequency), and the moment observables
(mass, momentum, energy) are read off the recovered density.  The long-time
search at the end chains lifted legs, each the same lifted run of one
transport pair, so every leg evolves its auxiliary modes by the path the
cost estimate picks for that pair and leg time.
"""

import numpy as np

from schrodingerize import (
    TransportModel,
    compute_moments,
    find_stationary_transport,
    make_grid,
    observable_overlap,
    run_transport,
)

j = k = 16
sigma = np.full((k, k), 1.0 / k)  # constant isotropic scattering
model = TransportModel.create([make_grid(1.0, j)], [make_grid(1.0, k)], sigma)
gx, gk = model.x_grids[0], model.k_grids[0]
xx, kk = np.meshgrid(gx.points, gk.points, indexing="ij")
w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)

m0 = compute_moments(w0, (model.x_grids, model.k_grids))
print(f"initial moments: mass = {m0.mass:.6f}, momentum = {m0.momentum[0]:+.6f}, "
      f"energy = {m0.energy:.6f}")

for t in (0.25, 0.5, 1.0):
    result = run_transport(model, w0, p_config=(8.0, 64), t=t)
    m = result.moments
    print(
        f"  t = {t:4.2f}: error vs reference = {result.l2_relative_error:.2e}   "
        f"mass = {m.mass:.6f}   momentum = {m.momentum[0]:+.6f}   energy = {m.energy:.6f}"
    )

print("\nswap-test stand-in: overlap of the recovered density with the")
print("velocity-uniform observable state g(x, k) = 1:")
result = run_transport(model, w0, p_config=(8.0, 64), t=1.0)
uniform = np.ones(j * k)
print(f"  fidelity |<g|W>|^2 = {observable_overlap(uniform, result.w_recovered.amplitudes):.6f}")

print("\nlong-time run until ||W(t + leg) - W(t)|| < 1e-6:")
stationary, legs, converged = find_stationary_transport(
    model, w0, leg=1.0, tol=1e-6, max_legs=40
)
w = stationary.amplitudes.real.reshape(j, k)
dev = np.abs(w - w.mean(axis=1, keepdims=True)).max()
print(f"  converged = {converged} after {legs} legs; "
      f"max deviation from the velocity average = {dev:.2e}")
