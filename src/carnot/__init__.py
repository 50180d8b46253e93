"""carnot: exact and numerical computation on graded nilpotent Lie groups.

The exact side (rational structure constants, BCH group law, homogeneous
subgroup algebra, quotients, classification of h-epimorphisms and
h-monomorphisms) runs over Fraction arithmetic; the analytic side
(homogeneous metrics, horizontal curves, Pansu differentiability
experiments, implicit-function and blow-up solvers) runs over float numpy.
Conversion is explicit and one way, exact to float.
"""

from .algebra import (AlgebraVector, EmpiricalConstant, GradedAlgebra,
                      GroupElement, ValidationReport, bracket,
                      bracket_norm_constant, dilate, element,
                      homogeneous_dimension, identity_element,
                      is_stratified, iterated_bracket, project_layer,
                      project_tail, validate_grading, validate_table, vector)
from .bch import (FreeSeries, LnDecomposition, bch_term, cn_difference_bound,
                  cn_remainder, decompose_cn, exp_differential,
                  exp_differential_oracle, group_inverse, group_product,
                  group_product_np, series_oracle_product)
from .catalog import (HTypeData, abelian, complexified_heisenberg,
                      direct_product, example_g42, free_lie_extension,
                      free_nilpotent, h_type_from_J, heisenberg,
                      matrix_model, witt_dimension)
from .curves import (HorizontalControl, SampledCurve, group_riemann_sum,
                     horizontal_lift, is_horizontal, make_control,
                     pansu_quotient, riemann_limit, sup_average, variation,
                     verify_ac_lip_characterization)
from .metric import (HomogeneousMetric, WordSystem, distance, first_layer_lower_bound,
                     generating_word, koranyi, quasi_norm, solve_word,
                     standard_word_system, verify_conjugation_estimate,
                     verify_product_estimate, verify_projection_estimate,
                     weighted_max, word_constant)
from .morphism import GradedMorphism, check_h_homomorphism, identity_morphism
from .pdiff import (BlowupReport, ImplicitSolution, PDMap, contact_check,
                    horizontal_derivative, implicit_function, lift_differential,
                    local_inverse, mean_value_ratio, pansu_differential,
                    rank_parametrization, tangent_cone_samples,
                    tangent_dim_check)
from .subgroups import (EpiClassification, HomogeneousSubalgebra,
                        MonoClassification, NotHomogeneous, NotSubalgebra,
                        classify_epimorphism, classify_monomorphism,
                        h21_complement, heisenberg_complement,
                        horizontal_vertical_classify, is_complementary,
                        is_ideal, layered_decomposition,
                        max_commutative_horizontal_dim, quotient,
                        span_subalgebra, split_element)

__version__ = "0.1.0"
