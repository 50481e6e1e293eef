"""affcells: exact computations in affine flag combinatorics for type A.

The package provides, over exact rationals:

* Laurent-polynomial linear algebra (`laurent`),
* the affine symmetric group in window notation, with length, Bruhat order,
  coset representatives, and root actions (`affine`),
* partitions, dominance, and Jordan types (`partitions`),
* the block tableau with its red/blue colorings (`tableau`),
* the named elements attached to a composition and their certified
  identities (`constructions`),
* lattices, flags, and Bruhat-cell identification for explicit Laurent
  matrices (`lattices`, `cells`),
* seeded verification sweeps (`verify`) and a CLI (`cli`).
"""

from .affine import (
    AffinePermutation,
    Root,
    Side,
    act_on_root,
    bruhat_ball,
    bruhat_leq,
    identity,
    min_coset_rep,
    quad_minimum,
    reflection,
    simple_reflection,
    translation,
)
from .affine import from_matrix as window_from_matrix
from .cells import beta, deformation, iwahori_cell, mv_flag, parabolic_cell, phi_map, psi_map
from .constructions import (
    check_kappa,
    conormal_directions,
    decompose_varpi,
    dim_g_mod_p,
    divisor_data,
    divisor_witnesses,
    kappa_bundle,
    lift_finite,
    parabolic_subset,
    richardson_element,
    varpi_witness,
)
from .laurent import LaurentMatrix, LaurentPoly, borel_membership, det, invert
from .lattices import AffineFlag, Lattice, quotient_dim, vdim
from .partitions import (
    Composition,
    Partition,
    compositions_of,
    conjugate,
    dominance_leq,
    jordan_type,
    partitions_of,
)
from .tableau import Tableau, build

__version__ = "0.1.0"
