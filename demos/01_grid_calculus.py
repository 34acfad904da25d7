"""Dyadic grids and exact piecewise-constant calculus.

A grid function assigns one value per finest-level cell of [0,1)^n, so every
integral, average and L^p norm over a dyadic cube is a finite (exact) sum.
"""

import tempfile
from pathlib import Path

import numpy as np

from dytb import DyadicCube, GridFunction, GridSpec, dyadic_maximal, lp_norm

# a 1D grid at depth 3: eight cells of width 1/8
spec = GridSpec(1, 3)
f = GridFunction(spec, [1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0])

root = spec.root()
left = DyadicCube(1, (0,))
print("integral over [0,1):", f.integral(root))
print("average over [0,1/2):", f.average(left))
print("L^2 norm:", lp_norm(f, 2.0))

# integral additivity is exact by construction of the sum tree
kids = left.children()
print("additivity gap:", f.integral(left) - sum(f.integral(c) for c in kids))

# the dyadic maximal function dominates both |f| and the root average
mf = dyadic_maximal(f)
print("maximal function:", mf.values)
print("dominates |f| everywhere:", bool(np.all(mf.values >= np.abs(f.values))))

# two dimensions work the same way, with row-major cells
spec2 = GridSpec(2, 2)
g = GridFunction.indicator(spec2, DyadicCube(1, (0, 1)))
print("\n2D indicator integral (expect 1/4):", g.integral())
print("average over its own cube (expect 1):", g.average(DyadicCube(1, (0, 1))))

# functions serialize to CSV (one value per line, '# dim,depth' header) and JSON
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "function.csv"
    f.save_csv(path)
    back = GridFunction.load_csv(path)
print("\nCSV round trip exact:", bool(np.array_equal(back.values, f.values)))
