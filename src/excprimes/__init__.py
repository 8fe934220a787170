"""excprimes: candidate primes and congruence certificates for newform data.

The library answers two questions about a weight-k newform on Gamma_0(N),
entirely in exact arithmetic:

* which primes ell could carry non-maximal residual behavior (reducible,
  dihedral, or small exceptional projective image) -- see `candidate_report`;
* for a concrete coefficient fixture, does the reducibility congruence
  against an explicit Eisenstein series actually hold through the Sturm
  bound -- see `verify_fixture`, which runs `verify_reducible`,
  `verify_weight2_squarefree` and `frobenius_scan` under one verdict policy.
"""

__version__ = "0.1.0"

from .exact import (
    DomainError,
    FactoredInteger,
    factorize,
    is_prime,
    lcm_pow_minus_one,
    primes_up_to,
)
from .cyclotomic import CycloElement, cyclotomic_polynomial, euler_phi, zeta
from .characters import (
    DirichletCharacter,
    character_by_index,
    character_count,
    enumerate_characters,
    square_inverse_eps,
    trivial_character,
)
from .bernoulli import (
    VacuousClauseError,
    bernoulli_classical,
    bernoulli_generalized,
    bernoulli_norm_numerator,
)
from .dimensions import dim_cusp_forms, dim_new, level_invariants, sturm_bound
from .eisenstein import (
    QExpansion,
    TruncationError,
    eisenstein_E,
    eprime_twisted,
    eprime_weight2_steinberg,
)
from .residues import (
    DenominatorObstruction,
    FixtureError,
    NewformFixture,
    ResiduePoint,
    compositum_norm,
    find_residue_points,
)
from .bounds import (
    CandidateReport,
    DihedralReport,
    Weight2SignReport,
    candidate_report,
    dihedral_candidates,
    exceptional_image_candidates,
    reducible_candidates,
    reducible_primes,
    reducible_weight2_signs,
)
from .verify import (
    INSUFFICIENT,
    ScanResult,
    VerificationResult,
    frobenius_scan,
    verify_fixture,
    verify_reducible,
    verify_weight2_squarefree,
)

__all__ = [
    "__version__",
    "DomainError",
    "FactoredInteger",
    "factorize",
    "is_prime",
    "lcm_pow_minus_one",
    "primes_up_to",
    "CycloElement",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta",
    "DirichletCharacter",
    "character_by_index",
    "character_count",
    "enumerate_characters",
    "square_inverse_eps",
    "trivial_character",
    "VacuousClauseError",
    "bernoulli_classical",
    "bernoulli_generalized",
    "bernoulli_norm_numerator",
    "dim_cusp_forms",
    "dim_new",
    "level_invariants",
    "sturm_bound",
    "QExpansion",
    "TruncationError",
    "eisenstein_E",
    "eprime_twisted",
    "eprime_weight2_steinberg",
    "DenominatorObstruction",
    "FixtureError",
    "NewformFixture",
    "ResiduePoint",
    "compositum_norm",
    "find_residue_points",
    "CandidateReport",
    "DihedralReport",
    "Weight2SignReport",
    "candidate_report",
    "dihedral_candidates",
    "exceptional_image_candidates",
    "reducible_candidates",
    "reducible_primes",
    "reducible_weight2_signs",
    "INSUFFICIENT",
    "ScanResult",
    "VerificationResult",
    "frobenius_scan",
    "verify_fixture",
    "verify_reducible",
    "verify_weight2_squarefree",
]
