"""Locating Bruhat cells of explicit Laurent matrices, with certificates.

The dense-orbit nilpotent Z deforms to 1 - t^-1 Z; explicit triangular
matrices b, c certify its cell by exact multiplication, and the chain-based
cell finder recovers the same answer with no certificate at hand.  The
same machinery then locates the top cell hit by a well-chosen frame.

Run:  python3 demos/03_cell_certificates.py
"""

from affcells import (
    Composition,
    decompose_varpi,
    deformation,
    iwahori_cell,
    kappa_bundle,
    lift_finite,
    parabolic_cell,
    parabolic_subset,
    richardson_element,
    varpi_witness,
)

lam = Composition((2, 1, 2))
n = lam.n
print(f"Composition {lam.parts}, n = {n}.\n")

z = richardson_element(lam)
point = deformation(z)
print("Dense-orbit nilpotent Z and its deformation 1 - t^-1 Z built.")

wit = varpi_witness(lam)
print(f"Certificate: b (1 - t^-1 Z) c equals a monomial lift, exactly.")
print(f"  varpi window from the certificate: {wit.varpi.window}")

located = iwahori_cell(point)
print(f"  varpi window from the cell finder: {located.window}")
assert located == wit.varpi

bundle = kappa_bundle(lam)
w_g, w_p = decompose_varpi(bundle)
print(f"\nvarpi = w_g * kappa * w_p with w_g = {w_g.window}, w_p = {w_p.window}")

a = lift_finite(w_g.inverse())
top = parabolic_cell(a * deformation(z), parabolic_subset(lam))
print(f"Moving the frame by w_g^-1 pushes the point into the top cell:")
print(f"  located {top.window}")
print(f"  kappa   {bundle.kappa.window}")
assert top == bundle.kappa
print("\nThe image of the whole cotangent space stays below kappa; the "
      "verification suites sweep that with random frames and nilpotents.")
