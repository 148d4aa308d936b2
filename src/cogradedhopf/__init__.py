"""Exact construction and verification of group-graded Hopf structures,
their deformations along admissible actions, and their twisted doubles."""

from .exact import GR, GaussianRational, Matrix, rational_sqrt
from .groups import (
    GroupOracle,
    GroupSelfAction,
    Window,
    adjoint_self_action,
    cyclic_group,
    finite_group_from_table,
    integers_group,
    s3_group,
    trivial_group,
    trivial_self_action,
)
from .algebras import (
    ComponentAlgebra,
    GradedAlgebra,
    GradedElement,
    GradedMultiplier,
    TensorElement,
    check_graded_algebra,
)
from .hopf import (
    GradedFunctional,
    MhaStructure,
    check_antipode,
    check_coassociativity,
    check_counit,
    check_faithful,
    check_integral_membership,
    check_positive_integral,
    check_star,
    check_t1_t2,
    full_suite,
    make_constant_family,
    make_group_algebra,
    make_kg,
    make_ungraded_group_algebra,
    modular_automorphism,
    modular_element,
    solve_left_integral,
    solve_right_integral,
)
from .cograded import (
    Action,
    adjoint_shuffle_action,
    check_admissible,
    check_cograded,
    check_crossing,
    deform,
    deformed_right_integral,
    mirror_check,
    trivial_action,
)
from .double import (
    DoubleStructure,
    Pairing,
    build_double,
    build_module_actions,
    check_double_axioms,
    check_pairing,
    double_crossing,
    double_right_integral,
    induced_grading_check,
    make_group_function_pairing,
    reduced_dual,
)
from .report import CertificateReport

__version__ = "0.1.0"
