"""Codimension-one strata and the lattice-flag models.

For each divisor index the conormal directions collapse to a single root
gamma, and explicit triangular witnesses reduce a conormal point to the
monomial matrix of the stratum's minimal representative.  The two lattice
models of a two-block flag agree after the closing move.

Run:  python3 demos/04_divisors_and_flags.py
"""

from fractions import Fraction

from affcells import (
    Composition,
    LaurentMatrix,
    beta,
    divisor_data,
    divisor_witnesses,
    mv_flag,
    phi_map,
    quotient_dim,
    richardson_element,
    vdim,
    window_from_matrix,
)

lam = Composition((2, 2))
n = lam.n
print(f"Composition {lam.parts}, n = {n}.\n")

for i in range(1, lam.r):
    data = divisor_data(lam, i)
    print(f"Divisor index {i}: reflection index k = {data.k}, "
          f"gamma = ({data.gamma.i},{data.gamma.j})")
    print(f"  v_k window {data.v_k.window}, minimal representative "
          f"{data.v_k_min.window} of length {data.v_k_min.length()}")
    wit = divisor_witnesses(data, Fraction(3, 2))
    print(f"  witness reduction gives the monomial matrix of "
          f"{window_from_matrix(wit.reduced).window}")

print("\nLattice flags:")
z = richardson_element(lam)
point, flag, _ = phi_map(LaurentMatrix.identity(n), z, lam)
print(f"  the image flag of the dense point validates: vdim(L_0) = "
      f"{vdim(flag.lattices[0])}, steps "
      f"{[quotient_dim(flag.lattices[k + 1], flag.lattices[k]) for k in range(lam.r)]}")

other = beta(mv_flag(z, lam), lam)
print(f"  convolution-model flag closed up by beta equals it: {other == flag}")
