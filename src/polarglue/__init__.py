"""polarglue: decide, from Weil polynomial data alone, whether the isogeny
class of (geometrically simple abelian surface) x (elliptic curve) over a
finite field contains an abelian threefold with an irreducible principal
polarization, hence a genus-3 Jacobian up to quadratic twist."""

__version__ = "0.1.0"

from .enumeration import enumerate_elliptics, enumerate_surfaces, scan_pairs, trace_occurs
from .gluing import (
    Branch,
    GluingVerdict,
    LambdaDivisibility,
    NoPPReason,
    Obstruction,
    PrimeFailure,
    ScanRow,
    VerdictKind,
    decide,
    decide_pair,
    divides_in_lambda,
    hl2_obstruction,
    hl_obstruction,
    ss_quadratic_gluing_valuation,
)
from .localalg import (
    DoubleRoot,
    FactorPattern,
    IdealRecord,
    LocalPrimeReport,
    SplittingType,
    classify_prime_ideals,
    dedekind_is_maximal,
    double_root_condition,
    factor_mod_prime,
    is_exceptional,
    splitting_in_real_subfield,
)
from .weil import (
    FieldParam,
    OutOfWeilBounds,
    PRank,
    ValidationError,
    WeilElliptic,
    WeilSurface,
    base_change,
    classify_p_rank,
    field_param,
    fundamental_discriminant,
    is_geometrically_simple,
    make_elliptic,
    make_surface,
)
