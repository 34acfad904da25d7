"""Perfect dyadic kernels: sparse structure, size bound, fast application.

A perfect kernel is constant on every rectangle child_i(R) x child_j(R) with
i != j, and those rectangles tile the off-diagonal exactly once.  One number
per rectangle is the whole kernel; |kappa| is capped by the inverse distance
between the child boxes raised to the dimension.
"""

import time

import numpy as np

from dytb import GridFunction, GridSpec, adjoint, apply, bilinear, dense_matrix
from dytb import generate_kernel, operator_norm, size_bound, validate_size

spec = GridSpec(1, 5)
rng = np.random.default_rng(7)

# the antisymmetric shift sits exactly at the size bound: +/- 1/side(R) in 1D
shift = generate_kernel("haar-shift", spec)
print("haar-shift entries:", len(shift), "size bound at level 0:", size_bound(0, 0, 1, 1))
print("passes the size check:", validate_size(shift))

# random kernels fill every rectangle uniformly within the bound
kernel = generate_kernel("random", spec, seed=3)
f = GridFunction(spec, rng.uniform(-1, 1, spec.n_cells))
g = GridFunction(spec, rng.uniform(-1, 1, spec.n_cells))

# the tree-based pairing and application agree with the dense matrix
dense = dense_matrix(kernel)
quad = float(g.values @ dense @ f.values) * spec.cell_volume
print("\nbilinear vs dense quadratic form:", bilinear(kernel, f, g) - quad)
print("apply vs dense matvec:", np.abs(apply(kernel, f).values - dense @ f.values).max())
print("adjoint identity:", bilinear(adjoint(kernel), g, f) - bilinear(kernel, f, g))
print("operator norm (dense svd):", operator_norm(kernel, "dense-svd"))
print("operator norm (lanczos):  ", operator_norm(kernel, "lanczos"))

# cancellation: mean-zero input on a cube pairs to zero with anything disjoint
from dytb import DyadicCube

p, q = DyadicCube(2, (0,)), DyadicCube(2, (3,))
fv = np.zeros(spec.n_cells)
idx = spec.cell_indices(p)
fv[idx] = rng.uniform(-1, 1, idx.size)
fv[idx] -= fv[idx].mean()
print("\nperfect cancellation:", bilinear(kernel, GridFunction(spec, fv),
                                          GridFunction.indicator(spec, q)))

# the hierarchical apply is fast: depth 14 means 16384 cells
big = GridSpec(1, 14)
big_kernel = generate_kernel("random", big, seed=0)
big_f = GridFunction(big, rng.uniform(-1, 1, big.n_cells))
t0 = time.perf_counter()
apply(big_kernel, big_f)
print(f"\ndepth-14 apply: {1000 * (time.perf_counter() - t0):.1f} ms")
