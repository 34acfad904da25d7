"""Stopping cubes: terminal families, corona forests, packing and Carleson.

Below a base cube, the construction isolates the maximal cubes where a test
function loses its average or blows up in norm (terminal cubes), and the
two-system refinement also stops where the operator's local testing energy
spikes.  Shrinking delta thins the stopping cubes out; the packing ratio and
the Carleson constant quantify how thin.
"""

from dytb import AccretiveSystem, GridSpec, TbConfig, build_corona, carleson_constant
from dytb import adjoint, choose_delta, generate_kernel, packing_ratio, terminal_cubes, testing_constant

spec = GridSpec(1, 6)
root = spec.root()

# terminal cubes of a single rough function
system = AccretiveSystem(spec, "two-value", p=2.0, A=1.5, seed=5, params={"s": 0.8})
b = system.get_b(root)
for delta in (0.45, 0.2, 0.05):
    terms = terminal_cubes(b, root, delta, 2.0, 1.5)
    covered = sum(t.volume for t in terms)
    print(f"delta={delta:<5} terminal cubes={len(terms):<3} covering {covered:.3f}")

# the two-system corona against an operator
kernel = generate_kernel("random", spec, seed=11)
sys1 = AccretiveSystem(spec, "random", p=2.0, A=1.6, seed=1, params={"amp": 0.6})
sys2 = AccretiveSystem(spec, "random", p=2.0, A=1.6, seed=2, params={"amp": 0.6})
tloc = max(testing_constant(kernel, sys1, 2.0), testing_constant(adjoint(kernel), sys2, 2.0))
print("\ntesting constant:", tloc)

cfg = TbConfig(delta=0.5, Tloc=tloc, tau_target=0.9)
search = choose_delta(root, sys1, sys2, kernel, cfg)
print("accepted delta:", search.delta)
for d, t1, t2 in search.trace:
    print(f"  tried delta={d}: packing S1={t1:.3f}, S2={t2:.3f}")

forest = search.forest
for j in (1, 2):
    members = forest.members(j)
    print(f"S_{j}: {len(members)} stopping cubes, packing {packing_ratio(forest, j):.3f}, "
          f"Carleson {carleson_constant(members, root):.3f}")

# a signed system stops on half of every cube it owns, all the way down
signed = AccretiveSystem(spec, "signed", p=2.0, A=1.5)
cfg0 = TbConfig(0.25, Tloc=0.0)
zero = generate_kernel("zero", spec)
forest_signed = build_corona(root, signed, signed, zero, cfg0)
levels = sorted({m.level for m in forest_signed.members(1)})
print("\nsigned-system stopping levels:", levels)
print("packing:", packing_ratio(forest_signed, 1))
