"""Exact diagram algebra over perfect matchings, symplectic tensor
evaluation, noncrossing normal forms, and cyclic sieving certificates."""

from .matchings import (Diagram, PerfectMatching, bend, count_fixed_X, count_X,
                        crossing_pairs, enumerate_matchings, enumerate_X,
                        enumerate_X_blocked, find_mutually_crossing, orbits,
                        unbend)
from .scalars import DeltaPoly
from .category import (Morphism, check_eq_ch, compose_diagrams, e_rec, e_sum,
                       generator_s, generator_u, r_element, tensor_diagrams)
from .pfaffian import (PfGenerator, find_violation, normal_form, pfaffian,
                       rewrite_step)
from .tensors import Tensor, ev_diagram, ev_morphism, rank_of_span
from .tableaux import (OscillatingTableau, count_oscillating,
                       enumerate_oscillating, enumerate_SYT, fake_degree_schur,
                       fake_degree_schur_hook, maj)
from .qpoly import QPolynomial
from .symfunc import (SymFuncP, fake_degree, fake_degree_matchings,
                      invariant_character_fundamental,
                      invariant_character_matchings,
                      invariant_character_sym_power, kronecker,
                      littlewood_check, mn_character, regular_graph_character,
                      schur_to_p)
from .csp import (CspCertificate, CspInstance, fixed_points, verify_csp,
                  verify_csp_X)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
