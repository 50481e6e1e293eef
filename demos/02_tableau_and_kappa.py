"""The block tableau of a composition and the element kappa built from it.

The composition (1, 4, 4, 2, 6) of 17 is the running example; its tableau,
red/blue coloring, and the resulting kappa are printed, together with the
two independent length computations.

Run:  python3 demos/02_tableau_and_kappa.py
"""

from affcells import Composition, build, check_kappa, dim_g_mod_p, kappa_bundle

lam = Composition((1, 4, 4, 2, 6))
tab = build(lam)

print(f"Composition lambda = {lam.parts}, n = {lam.n}")
print(f"Column heights nu = {tab.nu.parts}\n")

width = len(str(lam.n))
print("Tableau rows (R = red, B = blue):")
for i in range(1, lam.r + 1):
    cells = [f"{e:>{width}}{'R' if e in tab.red[i] else 'B'}" for e in lam.row(i)]
    print("   " + " ".join(cells))

print(f"\nRed entries in order, l = {tab.l}")
print(f"Blue entries bottom-up,  m = {tab.m}")
print(f"Row-aligned enumeration, t = {tab.tmap}")

bundle = kappa_bundle(lam)
print(f"\nkappa window: {bundle.kappa.window}")
print(f"translation part tau_q window: {bundle.tau_q.window}")
print(f"finite part sigma window:      {bundle.sigma.window}")

rep = check_kappa(bundle)
print(f"\nlength(kappa) two ways: {rep.length} (direct) = "
      f"{rep.length_formula} (2 dim G/P + correction)")
print(f"dim G/P = {dim_g_mod_p(lam)}")
print(f"minimal in its coset:    {rep.in_min_reps}")
print(f"stable under left factor: {rep.left_stable}")
print(f"compactification (needs exactly two blocks): {rep.is_compactification}")
