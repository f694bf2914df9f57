"""Two-path assembly of the determinant gluing identities on a cylinder.

A cylinder [0, L] x Y with Neumann outer ends is cut at {a} x Y.  The
surgery defect

    ln Det* (whole)  -  ln Det (left piece)  -  ln Det (right piece)

is computed twice: once from the three closed-form cylinder determinants
(the pieces carrying the interface condition, Robin(alpha) in the jump
convention, or Neumann for alpha = 0), and once from the interface data:
the expansion constant a0, exact finite-dimensional correction
determinants, phase bookkeeping, and the regularized determinant of the
interface-jump operator.  The report carries both breakdowns, the
residual, and the phase comparison modulo 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import spectra
from .asymptotics import a0_constant
from .cylinder import _FORMS, BoundaryCondition, CylinderSpec, _series_cutoff, log_det_cylinder
from .errors import SingularParameterError, ValidationError
from .interface_ops import _check_rs0_admissible, log_det_star_RS0
from .spectra import CrossSection, heat_coefficients, kernel_dim
from .zreg import _check_alpha, _check_modes, zeta_point

__all__ = [
    "GluingConfig",
    "GluingReport",
    "CorrectionMatrices",
    "correction_matrices",
    "glue_robin_check",
    "glue_neumann_check",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GluingConfig:
    """Cut geometry for the gluing checks: Neumann outer ends, cut at a.  A new
    cross-section known in full is listed once, to the interface series' cutoff
    at tol 1e-12 (its rows are the pieces' and the whole cylinder's)."""

    cross_section: CrossSection
    length: float
    cut: float
    alpha: float = 0.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError(f"length must be finite and > 0, got {self.length}")
        if not (0 < self.cut < self.length):
            raise ValidationError(f"the cut must satisfy 0 < a < L, got a = {self.cut}")
        cs, alpha = self.cross_section, self.alpha
        _check_alpha(alpha)
        if cs.max_trusted == math.inf and cs not in spectra._listing_cache:
            rows = _FORMS["robin_pair"](self.length, alpha, self.cut)
            try:
                lam, _ = _series_cutoff(cs, rows, alpha, 1e-12)
                _check_modes(cs, lam, alpha)
            except ValidationError:  # past the budget: the check refuses as it goes
                pass
            else:
                cs._arrays(lam)
        _check_rs0_admissible(cs, alpha)


@dataclass(frozen=True, slots=True)
class GluingReport:
    """Both sides of one gluing identity with named breakdowns."""

    lhs_terms: dict
    rhs_terms: dict
    lhs: float
    rhs: float
    lhs_phase: int
    rhs_phase: int
    residual: float
    phase_match: bool
    truncation: float

    @staticmethod
    def assemble(lhs_terms, rhs_terms, lhs_phase, rhs_phase, truncation):
        lhs = math.fsum(lhs_terms.values())
        rhs = math.fsum(rhs_terms.values())
        return GluingReport(
            lhs_terms=dict(lhs_terms),
            rhs_terms=dict(rhs_terms),
            lhs=lhs,
            rhs=rhs,
            lhs_phase=lhs_phase,
            rhs_phase=rhs_phase,
            residual=abs(lhs - rhs),
            phase_match=(lhs_phase - rhs_phase) % 2 == 0,
            truncation=truncation,
        )


@dataclass(frozen=True)
class CorrectionMatrices:
    """Logs of the exact finite-dimensional correction determinants.

    The kernel-overlap matrices are scalar multiples of the identity in
    the product case: the whole-cylinder overlap contributes -q0 ln L,
    the interface-basis change -q0 ln alpha^2 (jump case, alpha != 0),
    and the per-piece overlaps -q0 ln a and -q0 ln(L-a) (Neumann case).
    """

    log_det_C: float
    log_det_AAt: float
    log_det_S1: float
    log_det_S2: float
    q0: int


def correction_matrices(cfg: GluingConfig) -> CorrectionMatrices:
    """Closed product-case values of the correction determinants.

    The interface-basis change is -q0 ln alpha^2 for the jump interface
    and 0 for the Neumann one (alpha = 0).
    """
    q0 = kernel_dim(cfg.cross_section)
    aat = -q0 * math.log(cfg.alpha * cfg.alpha) if cfg.alpha != 0.0 else 0.0
    return CorrectionMatrices(
        log_det_C=-q0 * math.log(cfg.length),
        log_det_AAt=aat,
        log_det_S1=-q0 * math.log(cfg.cut),
        log_det_S2=-q0 * math.log(cfg.length - cfg.cut),
        q0=q0,
    )


def _surgery_defect(cfg: GluingConfig, tol: float, backend: str):
    """Terms, phase and truncation of the surgery defect, each piece N/Robin(+-alpha)
    at the cut; Robin(0) is Neumann, so alpha = 0 gives the Neumann identity's."""
    cs, L, a, alpha = cfg.cross_section, cfg.length, cfg.cut, cfg.alpha
    N = BoundaryCondition.neumann()
    whole = log_det_cylinder(CylinderSpec(cs, L, N, N), tol=tol, backend=backend)
    left = log_det_cylinder(
        CylinderSpec(cs, a, N, BoundaryCondition.robin(alpha)), tol=tol, backend=backend
    )
    right = log_det_cylinder(
        CylinderSpec(cs, L - a, N, BoundaryCondition.robin(-alpha)), tol=tol, backend=backend
    )
    terms = {
        "whole_neumann": whole.log_det,
        "minus_left_piece": -left.log_det,
        "minus_right_piece": -right.log_det,
    }
    phase = whole.phase_multiple - left.phase_multiple - right.phase_multiple
    return terms, phase, max(whole.truncation, left.truncation, right.truncation, tol)


def glue_robin_check(cfg: GluingConfig, tol: float = 1e-12, backend: str = "auto") -> GluingReport:
    """Both sides of the jump-interface gluing identity (alpha != 0).

    Left side: whole-cylinder Neumann determinant minus the two pieces,
    each piece carrying the interface condition at the cut (the right
    piece is the mirrored cylinder with the shift negated).  Right side:
    expansion constant, kernel phase, correction determinants, and the
    regularized interface-jump determinant.
    """
    if cfg.alpha == 0.0:
        raise SingularParameterError(
            "the jump-interface identity needs alpha != 0; use glue_neumann_check"
        )
    cs, L, a, alpha = cfg.cross_section, cfg.length, cfg.cut, cfg.alpha
    q0 = kernel_dim(cs)
    lhs_terms, lhs_phase, trunc = _surgery_defect(cfg, tol, backend)

    heat = heat_coefficients(cs, order=cs.dim // 2)
    a0 = a0_constant([(heat, alpha)], m=cs.dim + 1)
    mats = correction_matrices(cfg)
    rs0 = log_det_star_RS0(cs, L, a, alpha, tol=tol, backend=backend)
    rhs_terms = {
        "a0": a0,
        "minus_ln_det_C": -mats.log_det_C,
        "ln_det_AAt": mats.log_det_AAt,
        "ln_det_star_interface": rs0.log_modulus,
    }
    rhs_phase = q0 + rs0.phase_multiple  # q0 from the kernel sign factor
    return GluingReport.assemble(lhs_terms, rhs_terms, lhs_phase, rhs_phase, trunc)


def glue_neumann_check(cfg: GluingConfig, tol: float = 1e-12, backend: str = "auto") -> GluingReport:
    """Both sides of the Neumann gluing identity (alpha = 0).

    Left side: three modified Neumann determinants.  Right side: the
    product-structure expansion constant -ln2 (zeta(0) + q0), the
    kernel-overlap determinants, and the regularized interface-jump
    determinant at zero shift.
    """
    if cfg.alpha != 0.0:
        raise ValidationError("the Neumann identity needs alpha = 0")
    cs, L, a = cfg.cross_section, cfg.length, cfg.cut
    q0 = kernel_dim(cs)
    lhs_terms, lhs_phase, trunc = _surgery_defect(cfg, tol, backend)

    z0 = zeta_point(cs, 0.0, backend=backend).value
    a0 = -_LN2 * (z0 + q0)
    mats = correction_matrices(cfg)
    rneu = log_det_star_RS0(cs, L, a, 0.0, tol=tol, backend=backend)
    rhs_terms = {
        "a0": a0,
        "minus_ln_det_C": -mats.log_det_C,
        "ln_det_S1": mats.log_det_S1,
        "ln_det_S2": mats.log_det_S2,
        "ln_det_star_interface": rneu.log_modulus,
    }
    return GluingReport.assemble(lhs_terms, rhs_terms, lhs_phase, rneu.phase_multiple, trunc)
