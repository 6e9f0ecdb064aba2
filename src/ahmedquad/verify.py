"""Mechanical verification of the arctangent-integral identity chain.

The headline fact is

    integral[0,1] arctan(sqrt(2 + x^2)) / ((1 + x^2) sqrt(2 + x^2)) dx
        = 5 pi^2 / 96

and the chain decomposes its classical derivation into eight numerical
equalities, each checked independently at a pinned tolerance:

S1  split             the headline integral equals the complement
                      piece minus the correction piece.
S2  tan substitution  the complement piece in x equals its theta form.
S3  sine substitution the theta form equals the constant-integrand phi
                      form (whose value pi^2/12 is asserted separately).
S4  representation    the parametric kernel 1/(x^2 + a^2) at
                      a = sqrt(2) integrates to (1/sqrt2) atan(1/sqrt2).
S5  double form       the correction piece equals its double-integral
                      form.
S6  kernel split      the double form equals the separable kernel minus
                      the swapped kernel.
S7  symmetry          the swapped kernel integrates to the correction
                      piece itself.
S8  assembly          the headline integral equals pi^2/12 minus half
                      of pi^2/16, i.e. 5 pi^2/96.

Each step is a pair of :class:`Quantity` trees evaluated with one
engine configuration and a shared memo, so a sub-integral appearing in
several steps is integrated exactly once per chain run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

from .errors import AhmedQuadError, ConfigError, DomainError
from .integrands import closed_form
from .quad import (
    AdaptiveSimpson,
    EngineConfig,
    GaussLegendre,
    Mode,
    TanhSinh,
    _check_config,
    _eq3_results,
    integrate_1d,
    integrate_2d,
)
from .scalar import Real, Tier, atan, div, mul, pi, sqrt, sub
from .scalar import _check_finite_pair, _dd_atan, _pair_from_ratio, _pair_ratio

__all__ = [
    "ClosedFormQ",
    "ConstantQ",
    "Integral1DQ",
    "Integral2DQ",
    "CombinationQ",
    "Step",
    "StepReport",
    "evaluate",
    "builtin_chain",
    "run_step",
    "run_chain",
    "check_eq3",
    "seeded_a_values",
    "default_config",
    "resolve_mode",
    "report_to_dict",
    "reports_to_json",
    "reports_to_csv",
]


@dataclass(frozen=True)
class ClosedFormQ:
    """A registry closed form, evaluated exactly at the tier."""

    name: str


@dataclass(frozen=True)
class ConstantQ:
    """A precomputed constant with a label for reports. Covers the
    right-hand sides that are neither integrals nor registry closed
    forms, such as (1/a) atan(1/a) at a sampled a."""

    value: Real
    label: str


@dataclass(frozen=True)
class Integral1DQ:
    """A 1D registry integral over its native domain."""

    integrand_id: str
    a: Real | None = None


@dataclass(frozen=True)
class Integral2DQ:
    """A 2D registry integral over its native rectangle. ``mode`` of
    None defers to the engine configuration."""

    integrand_id: str
    mode: Mode | None = None


@dataclass(frozen=True)
class CombinationQ:
    """A non-empty linear combination of quantities with exact float
    coefficients."""

    terms: tuple[tuple[float, "Quantity"], ...]

    def __post_init__(self):
        if not self.terms:
            raise ConfigError("a combination needs at least one term")
        for coeff, _ in self.terms:
            if not math.isfinite(coeff):
                raise ConfigError("combination coefficients must be finite")


Quantity = ClosedFormQ | ConstantQ | Integral1DQ | Integral2DQ | CombinationQ


@dataclass(frozen=True)
class Step:
    key: str
    lhs: Quantity
    rhs: Quantity
    tolerance: float
    description: str

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise ConfigError("step tolerance must be positive")


@dataclass(frozen=True)
class StepReport:
    key: str
    lhs_value: Real | None
    rhs_value: Real | None
    residual: float
    tolerance: float
    passed: bool
    evaluations: int
    note: str = ""


def resolve_mode(mode: Mode | None, config: EngineConfig) -> Mode:
    """The 2D assembly to use: ``mode`` when given, else ITERATED for
    adaptive Simpson (which has no product rule) and TENSOR otherwise."""
    if mode is not None:
        return mode
    if isinstance(config.method, AdaptiveSimpson):
        return Mode.ITERATED
    return Mode.TENSOR


def evaluate(
    q: Quantity, config: EngineConfig, memo: dict | None = None
) -> tuple[Real, int]:
    """Evaluate a quantity tree, returning its value and the number of
    fresh integrand evaluations it cost. Sub-quantities already present
    in the memo cost zero further evaluations."""
    if memo is None:
        memo = {}
    if q in memo:
        return memo[q], 0
    tier = config.tier
    if isinstance(q, ClosedFormQ):
        value, evals = closed_form(q.name, tier), 0
    elif isinstance(q, ConstantQ):
        if q.value.tier is not tier:
            raise ConfigError(
                f"constant {q.label!r} is at tier {q.value.tier.value}, "
                f"engine runs at {tier.value}"
            )
        value, evals = q.value, 0
    elif isinstance(q, Integral1DQ):
        r = integrate_1d(q.integrand_id, config=config, a=q.a)
        value, evals = r.value, r.evaluations
    elif isinstance(q, Integral2DQ):
        mode = resolve_mode(q.mode, config)
        r = integrate_2d(q.integrand_id, config=config, mode=mode)
        value, evals = r.value, r.evaluations
    elif isinstance(q, CombinationQ):
        acc = Real.from_float(0.0, tier)
        evals = 0
        for coeff, term in q.terms:
            v, ev = evaluate(term, config, memo)
            acc = acc + Real.from_float(coeff, tier) * v
            evals += ev
        value = acc
    else:
        raise ConfigError(f"unknown quantity: {q!r}")
    memo[q] = value
    return value, evals


def _inv_a_atan_inv_a(a: Real) -> Real:
    # (1/a) atan(1/a), bit for bit as Real's /, atan and * round it; at
    # DOUBLEWORD on the words, from the exact ratios of a and of 1/a
    if a.tier is Tier.NATIVE64:
        inv = 1.0 / a
        return inv * atan(inv)
    n, d = _pair_ratio(a.hi, a.lo)
    inv = _pair_from_ratio(d, n)
    _check_finite_pair(*inv, "division")
    (m, q), (p, s) = _pair_ratio(*inv), _pair_ratio(*_dd_atan(*inv))
    rh, rl = _pair_from_ratio(m * p, q * s)
    _check_finite_pair(rh, rl, "multiplication")
    return Real._raw(rh, rl, a.tier)


def _step_tols(tier: Tier) -> tuple[float, float]:
    # the step tolerance at a tier, and the tenfold one for a step that
    # compares 2D integrals against 2D integrals
    return (1e-12, 1e-11) if tier is Tier.NATIVE64 else (1e-25, 1e-24)


def builtin_chain(tier: Tier) -> tuple[Step, ...]:
    """The eight-step verification chain at a tier. Default tolerances
    are 1e-12 at NATIVE64 and 1e-25 at DOUBLEWORD, relaxed tenfold for
    the two steps that compare 2D integrals against 2D integrals."""
    tol, tol_2d = _step_tols(tier)
    root2 = sqrt(Real.from_float(2.0, tier))
    q_ahmed = Integral1DQ("ahmed_eq1")
    q_i1x = Integral1DQ("i1_x")
    q_i1t = Integral1DQ("i1_theta")
    q_i1p = Integral1DQ("i1_phi")
    q_i2x = Integral1DQ("i2_x")
    q_eq4 = Integral2DQ("i2_kernel_eq4")
    q_eq6a = Integral2DQ("product_kernel_eq6a")
    q_eq6b = Integral2DQ("shifted_kernel_eq6b")
    return (
        Step(
            "S1",
            q_ahmed,
            CombinationQ(((1.0, q_i1x), (-1.0, q_i2x))),
            tol,
            "headline integral splits into complement minus correction",
        ),
        Step(
            "S2",
            q_i1x,
            q_i1t,
            tol,
            "complement piece: x form equals theta form",
        ),
        Step(
            "S3",
            q_i1t,
            q_i1p,
            tol,
            "complement piece: theta form equals phi form",
        ),
        Step(
            "S4",
            Integral1DQ("eq3_kernel", a=root2),
            ConstantQ(_inv_a_atan_inv_a(root2), "atan(1/sqrt2)/sqrt2"),
            tol,
            "parametric arctangent kernel at a = sqrt(2)",
        ),
        Step(
            "S5",
            q_i2x,
            q_eq4,
            tol_2d,
            "correction piece equals its double-integral form",
        ),
        Step(
            "S6",
            q_eq4,
            CombinationQ(((1.0, q_eq6a), (-1.0, q_eq6b))),
            tol_2d,
            "double form splits into separable minus swapped kernel",
        ),
        Step(
            "S7",
            q_eq6b,
            q_i2x,
            tol,
            "swapped kernel integrates to the correction piece",
        ),
        Step(
            "S8",
            q_ahmed,
            CombinationQ(((1.0, ClosedFormQ("I1")), (-0.5, ClosedFormQ("TWO_I2")))),
            tol,
            "headline integral equals pi^2/12 - pi^2/32 = 5 pi^2/96",
        ),
    )


def default_config(tier: Tier) -> EngineConfig:
    """The engine used by the command-line verifier when none is given:
    tanh-sinh at NATIVE64; at DOUBLEWORD adaptive Gauss-Legendre up to
    order 96 with tol 1e-26, a tenth of the step tolerance as
    tanh-sinh's 1e-13 is at NATIVE64. Every integral of the chain and
    of the eq3 samples is a registry integrand over its own domain, so
    it runs alone orders whose proven error bound is within tol. A
    fixed integrand runs its cheapest such orders, one per axis: 22
    for ahmed_eq1, i1_x and i2_x, 16 for i1_theta, 5 for the constant
    i1_phi, 22 x 18, 22 x 22 and 18 x 22 for the eq4, eq6a and eq6b
    tensors, 1,387 chain evaluations with residuals below 4e-29. The
    parametric eq3_kernel runs the first of the orders 6, 12, 24, 48,
    96 proven for its a: 24 at a = sqrt 2, and 12 to 96 as a falls
    from 10 to 0.1."""
    if tier is Tier.NATIVE64:
        return EngineConfig(TanhSinh(max_level=10, target_eps=1e-13), tier)
    return EngineConfig(GaussLegendre(order=96, tol=1e-26), tier)


def run_step(step: Step, config: EngineConfig, memo: dict | None = None) -> StepReport:
    """Evaluate one step's two sides and compare. Engine failures mark
    the step failed with a diagnostic note; they never propagate."""
    if memo is None:
        memo = {}
    return _compared(
        step.key,
        step.tolerance,
        lambda: (*evaluate(step.lhs, config, memo), *evaluate(step.rhs, config, memo)),
    )


def _compared(key: str, tolerance: float, sides) -> StepReport:
    # the report of a step whose sides() gives (lhs, its evaluations, rhs,
    # its evaluations)
    try:
        lhs, ev_l, rhs, ev_r = sides()
    except AhmedQuadError as exc:
        note = f"{type(exc).__name__}: {exc}"
        return StepReport(key, None, None, math.inf, tolerance, False, 0, note)
    residual = abs(float(sub(lhs, rhs)))
    return StepReport(key, lhs, rhs, residual, tolerance, residual <= tolerance, ev_l + ev_r)


def run_chain(
    tier: Tier,
    config: EngineConfig | None = None,
    inject_fault: str | None = None,
) -> tuple[StepReport, ...]:
    """Run the whole chain with one shared memo. ``inject_fault``
    replaces the named step's right-hand side with pi^2/30, a
    deliberate corruption that exercises the failure path end to end
    without touching the other steps."""
    if config is None:
        config = default_config(tier)
    _check_config(config)
    if config.tier is not tier:
        raise ConfigError("config tier does not match the requested tier")
    steps = builtin_chain(tier)
    if inject_fault is not None:
        keys = [s.key for s in steps]
        if inject_fault not in keys:
            raise ConfigError(
                f"unknown step {inject_fault!r}; chain steps are {keys}"
            )
        p = pi(tier)
        bogus = ConstantQ(div(mul(p, p), Real.from_float(30.0, tier)), "pi^2/30")
        steps = tuple(
            Step(s.key, s.lhs, bogus, s.tolerance, s.description)
            if s.key == inject_fault
            else s
            for s in steps
        )
    memo: dict = {}
    return tuple(run_step(s, config, memo) for s in steps)


def seeded_a_values(
    tier: Tier, samples: int = 20, seed: int = 0x5EED
) -> tuple[Real, ...]:
    """Reproducible parameter draws for the arctangent representation
    check: uniform on [0.1, 10] from a fixed-seed generator."""
    rng = random.Random(seed)
    return tuple(
        Real.from_float(rng.uniform(0.1, 10.0), tier) for _ in range(samples)
    )


def check_eq3(
    a_values, config: EngineConfig | None = None, tier: Tier | None = None
) -> tuple[StepReport, ...]:
    """One report per parameter value a, comparing

        integral[0,1] dx / (x^2 + a^2)   with   (1/a) atan(1/a),

    as :func:`run_step` reports each sample's step over one shared memo:
    an engine error on either side fails only that report, with its
    note, and a repeated a costs no evaluations again. The left sides
    run in one batch, which under Gauss-Legendre with a ``tol`` resolves
    the run once for every a. The excluded case a = 0 raises
    :class:`DomainError` up front, and a ``config`` at another tier than
    ``tier`` :class:`ConfigError`."""
    if config is None:
        config = default_config(tier if tier is not None else Tier.NATIVE64)
    _check_config(config)
    if tier is not None and config.tier is not tier:
        raise ConfigError("config tier does not match the requested tier")
    tol, _ = _step_tols(config.tier)
    values = tuple(a_values)
    for a in values:
        if not isinstance(a, Real):
            raise ConfigError("a_values must contain Real parameters")
        if a.hi == 0.0:
            raise DomainError("a = 0 is excluded")
    # the left sides from one batch over the distinct a
    distinct = list(dict.fromkeys(values))
    lhs = dict(zip(distinct, _eq3_results(distinct, config, integrate_1d)))
    seen = set()

    def sides(a):
        r = lhs[a]
        if isinstance(r, AhmedQuadError):
            raise r
        evals = 0 if a in seen else r.evaluations
        seen.add(a)
        return r.value, evals, _inv_a_atan_inv_a(a), 0

    return tuple(_compared(f"eq3[a={float(a)!r}]", tol, lambda a=a: sides(a)) for a in values)


def _fmt_value(v: Real | None) -> str:
    return "" if v is None else v.to_decimal_string()


def report_to_dict(r: StepReport) -> dict:
    """One step report as JSON-ready data: values as decimal strings,
    residuals and tolerances as shortest round-trip floats."""
    return {
        "key": r.key,
        "lhs": _fmt_value(r.lhs_value),
        "rhs": _fmt_value(r.rhs_value),
        "residual": repr(r.residual),
        "tolerance": repr(r.tolerance),
        "passed": r.passed,
        "evaluations": r.evaluations,
        "note": r.note,
    }


def reports_to_json(reports, tier: Tier) -> str:
    """Serialize step reports deterministically (see
    :func:`report_to_dict`)."""
    payload = {
        "tier": tier.value,
        "all_passed": all(r.passed for r in reports),
        "steps": [report_to_dict(r) for r in reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["key", "lhs", "rhs", "residual", "tolerance", "passed", "evaluations"]
    )
    for r in reports:
        w.writerow(
            [
                r.key,
                _fmt_value(r.lhs_value),
                _fmt_value(r.rhs_value),
                repr(r.residual),
                repr(r.tolerance),
                str(r.passed),
                r.evaluations,
            ]
        )
    return buf.getvalue()
