"""Scalar layer: error-free transforms, tier arithmetic, elementary
functions against frozen independent-oracle digit strings."""

import ast
import math
import operator
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from ahmedquad import (
    DomainError,
    NonFiniteError,
    Real,
    Tier,
    TierMismatchError,
    add,
    atan,
    build_info,
    cos,
    div,
    exp,
    mul,
    pi,
    sin,
    sqrt,
    sub,
    two_prod,
    two_sum,
)
from ahmedquad import integrands, quad, scalar
from ahmedquad.scalar import _two_sum
from helpers import (
    ATAN_SQRT2_STR,
    EXP_5_4_STR,
    PI_OVER_2_STR,
    PI_STR,
    SQRT2_STR,
    TIER_IDS,
    TIERS,
    assert_ulps,
    nearest_pair,
    nearest_pair_of,
    ref,
    rel_err,
)

# DOUBLEWORD contracts: arithmetic relative error <= 4 eps^2 with
# eps = 2^-52, elementary functions <= 16 tier-eps
ARITH_DD = 4.0 * (2.0**-52) ** 2
ELEM_BOUND = {t: 16.0 * t.eps for t in TIERS}


def _random_pairs(n, seed, span=300):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        a = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-span, span)
        b = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-span, span)
        out.append((a, b))
    return out


class TestEFT:
    def test_two_sum_exact(self):
        for a, b in _random_pairs(10_000, 0x5EED):
            s, e = two_sum(a, b)
            assert s == a + b
            assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    def test_two_prod_exact(self):
        # span kept small enough that the exact product stays in range
        for a, b in _random_pairs(10_000, 0xBEEF, span=200):
            p, e = two_prod(a, b)
            assert p == a * b
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    def test_two_prod_zero(self):
        assert two_prod(0.0, 1e300) == (0.0, 0.0)
        assert two_sum(0.0, 0.0) == (0.0, 0.0)

    def test_two_prod_over_every_binade(self):
        # factors drawn over the whole double range, seeded binades of a
        # and of the product: where the exact error a b - fl(a b) is a
        # double (the product has no bit below 2^-1074) two_prod returns
        # it, and elsewhere, or past binary64's range, it raises. The
        # products near the subnormal range and past Dekker's split range
        # were the ones a split product got wrong
        rng = random.Random(0x7E0D)
        cases = [(1 + 2.0**-52, 2.0**-1070), (2.0**1000, 2.0**-10), (2.0**-1074, 2.0**1000)]
        for _ in range(20_000):
            k = rng.randint(-1074, 1023)
            j = min(max(rng.randint(-1100, 1030) - k, -1074), 1023)
            a = math.copysign(rng.uniform(1.0, 2.0) * 2.0**k, rng.random() - 0.5)
            b = math.copysign(rng.uniform(1.0, 2.0) * 2.0**j, rng.random() - 0.5)
            # and a whole number, with trailing zero bits, by a tiny b
            n = float(rng.randrange(1, 1 << 53)) * 2.0 ** rng.randint(0, 960)
            cases += [(a, b), (n, math.ldexp(b, -1074 - math.frexp(b)[1] + rng.randint(0, 60)))]
        exact = raised = 0
        for a, b in cases:
            want = Fraction(a) * Fraction(b)
            p = a * b
            if math.isfinite(p) and Fraction(float(want - Fraction(p))) == want - Fraction(p):
                assert two_prod(a, b) == (p, float(want - Fraction(p))), (a, b)
                assert two_prod(b, a) == two_prod(a, b)
                exact += 1
            else:
                with pytest.raises(NonFiniteError):
                    two_prod(a, b)
                raised += 1
        assert two_prod(2.0**1000, 2.0**-10) == (2.0**990, 0.0)
        with pytest.raises(NonFiniteError):
            two_prod(1 + 2.0**-52, 2.0**-1070)
        assert exact > 30_000 and raised > 500

    def test_non_finite_input_and_overflow_raise(self):
        big = sys.float_info.max
        for fn in (two_sum, two_prod):
            for a, b in ((math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (1.0, math.nan)):
                with pytest.raises(NonFiniteError, match="finite inputs"):
                    fn(a, b)
        with pytest.raises(NonFiniteError, match="overflowed"):
            two_sum(big, big)
        with pytest.raises(NonFiniteError, match="overflowed"):
            two_prod(big, 2.0)
        with pytest.raises(NonFiniteError, match="overflowed"):
            two_prod(1e200, -1e200)

    def test_residual_below_half_ulp(self):
        for a, b in _random_pairs(1_000, 0xACE):
            s, e = two_sum(a, b)
            if s != 0.0:
                assert abs(e) <= 0.5 * math.ulp(abs(s))


class TestRealBasics:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_repr_abs_and_bool(self, tier):
        x = Real.from_float(-2.5, tier)
        assert repr(x) == f"Real('{x.to_decimal_string()}', tier={tier.name})"
        assert abs(x) == Real.from_float(2.5, tier) and abs(-x) == -x
        assert bool(x) and not bool(Real.from_float(0.0, tier))
        zero = Real.from_float(0.0, Tier.DOUBLEWORD)
        assert zero.to_decimal_string() == str(zero) == "0.0"

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_an_infinite_float_operand_raises(self, tier):
        x = Real.from_float(1.5, tier)
        for v in (math.inf, -math.inf, math.nan):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
                with pytest.raises(NonFiniteError, match="operand is not finite"):
                    op(x, v)
                with pytest.raises(NonFiniteError, match="operand is not finite"):
                    op(v, x)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_from_float_exact(self, tier):
        x = Real.from_float(0.1, tier)
        assert x.hi == 0.1
        assert x.lo == 0.0

    def test_nonoverlap_invariant(self):
        rng = random.Random(7)
        vals = [
            Real.from_decimal(f"{rng.uniform(-10, 10)!r}", Tier.DOUBLEWORD)
            for _ in range(50)
        ]
        results = []
        for x, y in zip(vals, vals[1:]):
            results += [add(x, y), sub(x, y), mul(x, y)]
            if y.hi != 0.0:
                results.append(div(x, y))
        for x in vals:
            if x.hi >= 0.0:
                results.append(sqrt(x))
            results += [atan(x), sin(x), cos(x), exp(x)]
        for r in results:
            assert r.hi + r.lo == r.hi, "fl(hi+lo) must equal hi"

    def test_native_keeps_lo_zero(self):
        x = Real(1.0, 1e-20, Tier.NATIVE64)
        assert x.lo == 0.0
        y = mul(x, Real.from_float(3.0, Tier.NATIVE64))
        assert y.lo == 0.0

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_decimal_round_trip(self, tier):
        for s in ("0.1", "-2.75", "3.14159265358979323846", "1e-10"):
            x = Real.from_decimal(s, tier)
            y = Real.from_decimal(x.to_decimal_string(), tier)
            assert x == y

    def test_tier_mismatch_raises(self):
        a = Real.from_float(1.0, Tier.NATIVE64)
        b = Real.from_float(1.0, Tier.DOUBLEWORD)
        with pytest.raises(TierMismatchError):
            add(a, b)
        with pytest.raises(TierMismatchError):
            a < b

    def test_int_float_promotion(self):
        x = Real.from_float(2.0, Tier.DOUBLEWORD)
        assert (x + 1).to_float() == 3.0
        assert (0.5 * x).to_float() == 1.0
        assert (1 / x).to_float() == 0.5

    def test_int_operands(self):
        # compared exactly at both tiers, promoted to the nearest pair at
        # DOUBLEWORD, and an int past binary64 is unequal or raises
        D, N = Tier.DOUBLEWORD, Tier.NATIVE64
        big = 2**53 + 1
        assert Real.from_float(2.0**53, N) != big
        assert Real.from_float(2.0**53, N) < big and not Real.from_float(2.0**53, N) >= big
        pair = Real(2.0**53, 1.0, D)
        assert pair == big and big == pair and len({pair, big}) == 1
        assert pair <= big and not pair < big and pair < big + 1
        s = Real.from_float(0.0, D) + big
        assert (s.hi, s.lo) == (2.0**53, 1.0)
        # so do the constructor and from_float, and NATIVE64 keeps the
        # nearest double
        for r in (Real(big, 0.0, D), Real.from_float(big, D)):
            assert (r.hi, r.lo) == (2.0**53, 1.0) and r == big
        r = Real(big, 0.5, D)
        assert (r.hi, r.lo) == (2.0**53 + 2.0, -0.5)
        assert Real.from_float(big, N).hi == 2.0**53
        # past 2^106 the rest below the pair still counts
        wide = Real(2.0**200, 2.0**100, D)
        assert wide != 2**200 + 2**100 + 1 and wide < 2**200 + 2**100 + 1
        huge = 10**400
        for tier in TIERS:
            one = Real.from_float(1.0, tier)
            assert one != huge and not (one == huge) and one != -huge
            for bad in (
                lambda: Real(huge, 0.0, tier),
                lambda: Real.from_float(huge, tier),
                lambda: one + huge,
                lambda: huge * one,
                lambda: one < huge,
                lambda: -huge >= one,
            ):
                with pytest.raises(NonFiniteError):
                    bad()

    def test_comparisons(self):
        a = Real.from_decimal("1", Tier.DOUBLEWORD)
        b = a + Real(0.0, 1e-30, Tier.DOUBLEWORD)
        assert a < b and b > a and a != b and a <= a and a >= a

    def test_zero_division(self):
        one = Real.from_float(1.0, Tier.DOUBLEWORD)
        zero = Real.from_float(0.0, Tier.DOUBLEWORD)
        with pytest.raises(ZeroDivisionError):
            div(one, zero)

    def test_overflow_signals(self):
        big = Real.from_float(1e308, Tier.NATIVE64)
        with pytest.raises(NonFiniteError):
            mul(big, big)
        with pytest.raises(NonFiniteError):
            exp(Real.from_float(1000.0, Tier.NATIVE64))
        with pytest.raises(NonFiniteError):
            exp(Real.from_float(1000.0, Tier.DOUBLEWORD))
        with pytest.raises(NonFiniteError):
            Real(math.inf, 0.0, Tier.NATIVE64)
        for tier in TIERS:
            with pytest.raises(NonFiniteError):
                Real.from_decimal("1e400", tier)

    def test_sqrt_negative_raises(self):
        for tier in TIERS:
            with pytest.raises(DomainError):
                sqrt(Real.from_float(-1.0, tier))

    def test_bad_decimal_literal(self):
        from ahmedquad import ConfigError

        with pytest.raises(ConfigError):
            Real.from_decimal("not a number", Tier.NATIVE64)

    def test_hashable_and_eq(self):
        a = Real.from_decimal("0.5", Tier.DOUBLEWORD)
        b = Real.from_decimal("0.5", Tier.DOUBLEWORD)
        assert a == b and hash(a) == hash(b)
        assert a != Real.from_decimal("0.5", Tier.NATIVE64)
        # a Real equal to a float or an int hashes as it does
        for tier in TIERS:
            half = Real.from_float(0.5, tier)
            assert half == 0.5 and len({half, 0.5}) == 1
            assert len({Real.from_float(3.0, tier), 3}) == 1
        tenth = Real.from_decimal("0.1", Tier.DOUBLEWORD)
        assert tenth.lo != 0.0 and tenth != 0.1
        assert hash(tenth) == hash(Real(tenth.hi, tenth.lo, Tier.DOUBLEWORD))


class TestArithmeticAccuracy:
    def test_dd_mul_sqrt2_squared(self):
        t = Tier.DOUBLEWORD
        two = Real.from_float(2.0, t)
        assert_ulps(mul(sqrt(two), sqrt(two)), two, 8, "sqrt(2)^2")

    def test_dd_div_roundtrip(self):
        t = Tier.DOUBLEWORD
        one = Real.from_float(1.0, t)
        three = Real.from_float(3.0, t)
        assert_ulps(mul(div(one, three), three), one, 8, "(1/3)*3")

    def test_dd_random_arithmetic_contract(self):
        # every add/sub/mul/div result within 4 eps^2 of the exact
        # rational value (eps = 2^-52)
        rng = random.Random(0xD1CE)
        t = Tier.DOUBLEWORD
        for _ in range(2_000):
            a = rng.uniform(-1e3, 1e3)
            b = rng.uniform(-1e3, 1e3)
            x, y = Real.from_float(a, t), Real.from_float(b, t)
            fa, fb = Fraction(a), Fraction(b)
            cases = [
                (add(x, y), fa + fb),
                (sub(x, y), fa - fb),
                (mul(x, y), fa * fb),
            ]
            if b != 0.0:
                cases.append((div(x, y), fa / fb))
            for got, want in cases:
                if want == 0:
                    assert got.to_float() == 0.0
                    continue
                err = abs((Fraction(got.hi) + Fraction(got.lo)) / want - 1)
                assert err <= ARITH_DD

    def test_dd_associativity(self):
        # |((a+b)+c) - (a+(b+c))| <= 8 eps^2 * scale for |x| <= 1e3
        rng = random.Random(0xFACE)
        t = Tier.DOUBLEWORD
        bound = 8.0 * (2.0**-52) ** 2
        for _ in range(2_000):
            a, b, c = (Real.from_float(rng.uniform(-1e3, 1e3), t) for _ in range(3))
            left = add(add(a, b), c)
            right = add(a, add(b, c))
            scale = max(1.0, abs(left.to_float()))
            assert abs(sub(left, right).to_float()) <= bound * scale


class TestElementary:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_pi_digits(self, tier):
        assert rel_err(pi(tier), ref(PI_STR, tier)) <= 4.0 * tier.eps

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_sqrt2_digits(self, tier):
        got = sqrt(Real.from_float(2.0, tier))
        assert rel_err(got, ref(SQRT2_STR, tier)) <= ELEM_BOUND[tier]

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_atan_sqrt2_digits(self, tier):
        got = atan(sqrt(Real.from_float(2.0, tier)))
        assert rel_err(got, ref(ATAN_SQRT2_STR, tier)) <= ELEM_BOUND[tier]

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_exp_digits(self, tier):
        got = exp(Real.from_decimal("1.25", tier))
        assert rel_err(got, ref(EXP_5_4_STR, tier)) <= ELEM_BOUND[tier]

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_elementary_random_against_oracle(self, tier):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = random.Random(0x0DD5)
        pts = [rng.uniform(-10.0, 10.0) for _ in range(60)]
        bound = ELEM_BOUND[tier]
        for v in pts:
            x = Real.from_float(v, tier)
            mx = mp.mpf(v)
            for fn, mfn in ((atan, mp.atan), (sin, mp.sin), (cos, mp.cos)):
                want = Real.from_decimal(mp.nstr(mfn(mx), 40), tier)
                got = fn(x)
                scale = max(1.0, abs(want.to_float()))
                err = abs(sub(got, want).to_float()) / scale
                assert err <= bound, f"{fn.__name__}({v})"
        for v in pts:
            # exp checked on a narrower range to stay well inside binary64
            x = Real.from_float(v * 0.1, tier)
            want = Real.from_decimal(mp.nstr(mp.exp(mp.mpf(v * 0.1)), 40), tier)
            assert rel_err(exp(x), want) <= bound

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_atan_cofunction_identity(self, tier):
        # atan(z) + atan(1/z) = pi/2 for z > 0
        rng = random.Random(0x1DEA)
        half_pi = ref(PI_OVER_2_STR, tier)
        for _ in range(40):
            z = Real.from_float(math.exp(rng.uniform(-6, 6)), tier)
            got = add(atan(z), atan(div(Real.from_float(1.0, tier), z)))
            assert_ulps(got, half_pi, 16, f"atan cofunction at {z.to_float()}")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_sin_cos_pythagorean(self, tier):
        rng = random.Random(0x51CE)
        one = Real.from_float(1.0, tier)
        for _ in range(40):
            x = Real.from_float(rng.uniform(-10, 10), tier)
            s, c = sin(x), cos(x)
            assert_ulps(add(mul(s, s), mul(c, c)), one, 8, f"sin^2+cos^2 at {x.to_float()}")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_pi_squared_over_pi(self, tier):
        p = pi(tier)
        assert_ulps(div(mul(p, p), p), p, 4, "pi^2/pi")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_atan_monotone(self, tier):
        rng = random.Random(0x0A7A)
        xs = sorted(rng.uniform(-50, 50) for _ in range(200))
        ys = [atan(Real.from_float(v, tier)) for v in xs]
        for lo, hi in zip(ys, ys[1:]):
            assert lo <= hi

    def test_atan_odd(self):
        for tier in TIERS:
            x = Real.from_decimal("0.73", tier)
            assert atan(-x) == -atan(x)


def test_build_info_contents():
    info = build_info()
    assert "native64" in info and "doubleword" in info
    assert "2^-52" in info and "2^-104" in info
    assert "two_prod=" in info
    assert "products=exact-ratio" in info


def test_build_info_reports_exact_ratios_even_with_fma(monkeypatch):
    # Real's products and two_prod's error come from the exact ratios of
    # the words on every interpreter, so the presence of math.fma (Python
    # 3.13+) must not change what build_info reports
    monkeypatch.setattr(math, "fma", lambda x, y, z: x * y + z, raising=False)
    info = build_info()
    assert "products=exact-ratio" in info
    assert "two_prod=exact-ratio" in info
    assert "fma" not in info


def test_build_info_pi_self_check_fails_on_a_wrong_atan(monkeypatch):
    # Machin's formula through a perturbed fixed-point atan must miss the
    # compiled-in digits of pi
    fixed_atan = scalar._fixed_atan
    monkeypatch.setattr(scalar, "_fixed_atan", lambda p, q: fixed_atan(p, q) + (1 << 40))
    assert build_info().endswith("pi-self-check=FAILED")
    monkeypatch.undo()
    assert build_info().endswith("pi-self-check=ok")


def test_every_constant_and_table_entry_is_the_nearest_pair():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    assert scalar._pi_pair() == nearest_pair(mp.pi)
    atan_k = [mp.atan(mp.mpf(k) / 64) for k in range(65)]
    table = scalar._atan_table()
    assert [scalar._pair_from_ratio(n, scalar._ONE) for n in table] == [nearest_pair(a) for a in atan_k]
    # e^i, e^(i/64) and e^(i/4096), read by the tanh-sinh points
    tables = scalar._fixed_exp_tables()
    for table, q in zip(tables, (1, 64, 4096)):
        want = [nearest_pair(mp.exp(mp.mpf(i) / q)) for i in range(len(table))]
        assert [scalar._pair_from_ratio(n, scalar._ONE) for n in table] == want
    assert tuple(map(len, tables)) == (128, 64, 64)


def test_fixed_exp_against_mpmath():
    # relative error below 2^-180 over the range 0 <= v < 128
    mp = pytest.importorskip("mpmath")
    one = scalar._ONE
    rng = random.Random(0xE4F)
    vs = [rng.randrange(128 * one) for _ in range(500)]
    vs += [0, 1, one - 1, one, (one >> 12) - 1, 111 * one, 128 * one - 1]
    with mp.workprec(400):
        for v in vs:
            want = mp.exp(mp.mpf(v) / one) * one
            assert abs(scalar._fixed_exp(v) - want) <= want * mp.mpf(2) ** -180, v


def test_tier_properties():
    assert Tier.NATIVE64.eps == 2.0**-52
    assert Tier.DOUBLEWORD.eps == 2.0**-104
    assert Tier.NATIVE64.sig_digits == 17
    assert Tier.DOUBLEWORD.sig_digits == 32
    assert Tier("native64") is Tier.NATIVE64
    assert Tier("doubleword") is Tier.DOUBLEWORD


# ----------------------------------------------------------------------
# Every private function has a caller; the operand sets of the Real tests
# ----------------------------------------------------------------------


def test_every_kernel_has_a_caller():
    # every private top-level function of every module of the package is
    # named in the package's code outside its own definition (an import
    # alone does not count), so that a helper whose last caller goes goes
    # with it
    paths = Path(scalar.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text()) for p in paths}
    kernels = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    used = set()
    for module in trees.values():
        for stmt in module.body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in kernels and name != own:
                    used.add(name)
    assert len(kernels) > 100
    assert kernels <= used, sorted(kernels - used)


def test_every_lane_and_box_member_is_read():
    # every member that the class body of a lane (quad._Native,
    # quad._FixedPoint) or of the run's box (quad._Box) defines, by a
    # class-level name, a method or an attribute a method assigns, is
    # read as an attribute by the package's code outside its own
    # definition (a shift such as _FixedPoint.point is read by the other
    # members), so that a member whose last reader goes goes with it
    paths = Path(scalar.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text()) for p in paths}
    names = {"_Native", "_FixedPoint", "_Box"}
    classes = [node for node in trees["quad.py"].body if getattr(node, "name", None) in names]
    assert {cls.name for cls in classes} == names
    members = []  # (class, member, the node that defines it)
    for cls in classes:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                members += [(cls.name, t.id, stmt) for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                members.append((cls.name, stmt.name, stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    stored = [t.attr for t in node.targets if isinstance(t, ast.Attribute)]
                    members += [(cls.name, attr, node) for attr in stored]
    reads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for owner, name, definition in members:
        own = {id(node) for node in ast.walk(definition)}
        if not any(node.attr == name and id(node) not in own for node in reads):
            unread.append(f"{owner}.{name}")
    assert len(members) > 40
    assert not unread, unread


def _seeded_operand_pairs():
    # pairs (x, y) of double-words built from the seeded pair sets. A
    # re-associated sum only rounds differently when its terms overlap, so
    # besides wide-ranging random words the set holds words of comparable
    # magnitude, low words about one ulp of the high word, products near
    # underflow (scaled by 2^-520), x == y (full cancellation), and sums
    # that carry into the next binade, where both halves of two_sum's
    # error are non-zero.
    words = []
    for seed in (0x5EED, 0xBEEF, 0xACE):
        for span, scale in ((300, 1.0), (2, 1.0), (30, 2.0**-520)):
            for a, b in _random_pairs(300, seed, span):
                a, b = a * scale, b * scale
                words.append((a, b))
                words.append(_two_sum(a, b * 2.0**-60))
                words.append((a, b * math.ulp(a)))
    rng = random.Random(0xF05E)
    pairs = [(x, rng.choice(words)) for x in words]
    pairs += [(x, x) for x in words[::4]]
    for a, b in _random_pairs(1_000, 0xCA77, span=0):
        big = math.copysign(1.0 - abs(b) * 2.0**-6, a)
        x = (a * 2.0**-4, rng.uniform(-1.0, 1.0) * 2.0**-60)
        y = (big, rng.uniform(-1.0, 1.0) * 2.0**-56)
        pairs += [(x, y), (y, x)]
    return pairs


_SPECIAL_HI = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
    1e300, -1e300, 1e-300, -1e-300, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan, 1.0, -3.0,
]


def _special_operands(shape):
    words = [(h, l) for h in _SPECIAL_HI for l in (0.0, -0.0, 1e-17 * h)]
    cases = [()]
    for _ in shape:
        cases = [c + w for c in cases for w in words]
    return cases


# ----------------------------------------------------------------------
# Double-word atan and the atan lanes from the fixed-point block
# ----------------------------------------------------------------------
# atan(p/q) at 2^-192 (finer for |x| < 1/2) is atan(k/64), from a table
# of 65 integers, plus the series of t = (64p - kq)/(64q + kp), |t| <=
# 1/128, for k/64 the nearest to p/q; above 1 it is pi/2 - atan(q/p).
# Public atan, ahmed_eq1 (atan s, s = sqrt(2 + x^2)) and i2_x (atan(1/s))
# round each result once; every result tested is the nearest pair to the
# mpmath value.

def _assert_atan_nearest(xh, xl):
    # the public atan of (xh, xl), and of its negation, are the nearest
    # pairs to the mpmath values; 1,300 bits resolve x^3/3 below a tiny x
    mp = pytest.importorskip("mpmath")
    with mp.workprec(1300):
        want = nearest_pair(mp.atan(mp.mpf(xh) + mp.mpf(xl)))
    for sign in (1.0, -1.0):
        r = atan(Real._raw(sign * xh, sign * xl, Tier.DOUBLEWORD))
        assert (r.hi, r.lo) == (sign * want[0], sign * want[1]), (sign * xh, sign * xl)


def _assert_lane_nearest(integrand_id, xh, xl):
    # the lane's value at (xh, xl) is the nearest pair to the mpmath value
    mp = pytest.importorskip("mpmath")
    with mp.workprec(600):
        x = mp.mpf(xh) + mp.mpf(xl)
        if integrand_id == "i1_theta":
            want = nearest_pair(mp.pi / 2 * mp.cos(x) / mp.sqrt(2 - mp.sin(x) ** 2))
        else:
            s = mp.sqrt(x * x + 2)
            num = {"ahmed_eq1": mp.atan(s), "i1_x": mp.pi / 2, "i2_x": mp.atan(1 / s)}
            want = nearest_pair(num[integrand_id] / ((x * x + 1) * s))
    got = integrands.raw_fn(integrand_id, Tier.DOUBLEWORD)(xh, xl)
    assert got == want, f"{integrand_id}({xh!r}, {xl!r}) = {got!r}"


def _ulps_around(v, n=3):
    out = [v]
    lo = hi = v
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _with_low_words(values, seed):
    # each value with a zero low word and with a random one below half an ulp
    rng = random.Random(seed)
    words = []
    for v in values:
        words.append((v, 0.0))
        words.append(_two_sum(v, rng.uniform(-0.5, 0.5) * math.ulp(v)))
    return words


class TestTableDrivenAtan:
    def test_lane_arguments(self):
        # ahmed_eq1 takes atan of s = sqrt(2 + x^2) in [sqrt2, sqrt3], and
        # i2_x atan(1/s)
        rng = random.Random(0xA7A2)
        pts = [rng.uniform(math.sqrt(2.0), math.sqrt(3.0)) for _ in range(300)]
        pts += [rng.uniform(1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0)) for _ in range(300)]
        for word in _with_low_words(pts, 0xA7A3):
            _assert_atan_nearest(*word)

    def test_table_points_and_cell_edges(self):
        pts = []
        for k in range(65):
            pts.append(k / 64.0)
            if k < 64:
                pts += _ulps_around((k + 0.5) / 64.0)
        for word in _with_low_words([p for p in pts if p > 0.0], 0xED6E):
            _assert_atan_nearest(*word)

    def test_around_the_inversion(self):
        words = [(v, 0.0) for v in _ulps_around(1.0, 4)]
        words += [(1.0, s * 2.0**-60) for s in (-1.0, 1.0)]
        words += [(1.0, s * 5e-324) for s in (-1.0, 1.0)]
        for word in words:
            _assert_atan_nearest(*word)

    def test_reduction_above_one(self):
        # the cells k = round(64/x) of the reduction above 1: their points
        # 64/k and edges 64/(k + 1/2), and the switch to k = 0 at 128
        pts = []
        for k in range(1, 65):
            pts += _ulps_around(64.0 / k) + _ulps_around(64.0 / (k + 0.5))
        pts += _ulps_around(128.0, 4) + _ulps_around(2.0**60, 1)
        for word in _with_low_words(pts, 0xAB0E):
            _assert_atan_nearest(*word)

    def test_i2_x_through_the_reduction_cells(self):
        # the i2_x lane's atan(1/s) at the x where s = sqrt(2 + x^2) sits
        # on a cell's point 64/k or edge 64/(k + 1/2), k <= 45 (s >= sqrt2),
        # and past the switch to k = 0 at s = 128
        pts = []
        for k in range(1, 46):
            for s in (64.0 / k, 64.0 / (k + 0.5)):
                if s * s > 2.0:
                    pts += _ulps_around(math.sqrt(s * s - 2.0), 1)
        pts += _ulps_around(math.sqrt(128.0**2 - 2.0), 2) + [2.0**60, 1e300]
        for word in _with_low_words(pts, 0x12E1):
            _assert_lane_nearest("i2_x", *word)
            _assert_lane_nearest("ahmed_eq1", *word)

    def test_one_rounding(self, monkeypatch):
        # atan, sqrt and each integer lane round their result once
        calls = []
        pair = scalar._pair_from_ratio

        def counting(*args):
            calls.append(args)
            return pair(*args)

        monkeypatch.setattr(scalar, "_pair_from_ratio", counting)
        monkeypatch.setattr(integrands, "_pair_from_ratio", counting)
        D = Tier.DOUBLEWORD
        lanes = [integrands.raw_fn(i, D) for i in ("ahmed_eq1", "i1_x", "i2_x", "i1_theta")]
        for v in (1e-300, 0.3, 1.0, 1.5, 100.0, 200.0, 2.0**61, 1e300):
            x = Real.from_float(v, D)
            runs = [lambda: atan(x), lambda: sqrt(x)]
            # i1_theta's sine and cosine take |t| <= 2^10
            runs += [lambda lane=lane: lane(v, 0.0) for lane in lanes[: 4 if v <= 1024.0 else 3]]
            for run in runs:
                calls.clear()
                run()
                assert len(calls) == 1, v

    def test_lanes_against_mpmath(self):
        rng = random.Random(0x1A2E)
        for _ in range(500):
            xh, xl = _two_sum(rng.random(), rng.uniform(-1.0, 1.0) * 2.0**-54)
            _assert_lane_nearest("ahmed_eq1", xh, xl)
            _assert_lane_nearest("i2_x", xh, xl)

    def test_tiny_and_huge(self):
        tiny = [5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-20, 1e-8, 2.0**-8]
        huge = [1e8, 1e20, 1e300, sys.float_info.max]
        for v in tiny + huge:
            _assert_atan_nearest(v, 0.0)
        zero = atan(Real.from_float(0.0, Tier.DOUBLEWORD))
        assert (zero.hi, zero.lo) == (0.0, 0.0)

    def test_every_binade(self):
        # a seeded word with a low word in each binade from 2^-1074 to
        # 2^1023, and the largest double, both signs
        rng = random.Random(0xB1AD)
        words = [(sys.float_info.max, 0.0)]
        for k in range(-1074, 1024):
            xh = rng.uniform(1.0, 2.0) * 2.0**k
            words.append(_two_sum(xh, rng.uniform(-0.5, 0.5) * math.ulp(xh)))
        for word in words:
            _assert_atan_nearest(*word)

    def test_odd(self):
        D = Tier.DOUBLEWORD
        for xh, xl in _with_low_words([0.3, 0.9, 1.0, 1.7, 64.0, 1e300], 0x0DD):
            r = atan(Real._raw(xh, xl, D))
            m = atan(Real._raw(-xh, -xl, D))
            assert (m.hi, m.lo) == (-r.hi, -r.lo)

    def test_agrees_with_mpmath_on_seeded_points(self):
        # 10k seeded points of [0, 1], each with a random low word
        rng = random.Random(0x7AB1E)
        for _ in range(10_000):
            xh, xl = _two_sum(rng.random(), rng.uniform(-1.0, 1.0) * 2.0**-54)
            if xh > 0.0:
                _assert_atan_nearest(xh, xl)

    def test_table_is_not_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import ahmedquad\n"
            "from ahmedquad import scalar\n"
            "print(scalar._atan_table.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]


def _lane_points(integrand_id, rng):
    # (lane arguments, mpmath value) at seeded points of the integrand's
    # domain, each coordinate with a full low word
    mp = pytest.importorskip("mpmath")
    D = Tier.DOUBLEWORD

    def word(lo, hi):
        return _two_sum(rng.uniform(lo, hi), rng.uniform(-1.0, 1.0) * 2.0**-54)

    def val(w):
        return mp.mpf(w[0]) + mp.mpf(w[1])

    one_d = {
        "ahmed_eq1": lambda x, s: mp.atan(s) / ((x * x + 1) * s),
        "i1_x": lambda x, s: mp.pi / 2 / ((x * x + 1) * s),
        "i2_x": lambda x, s: mp.atan(1 / s) / ((x * x + 1) * s),
    }
    two_d = {
        "i2_kernel_eq4": lambda x, y: 1 / ((1 + x * x) * (2 + x * x + y * y)),
        "product_kernel_eq6a": lambda x, y: 1 / ((1 + x * x) * (1 + y * y)),
        "shifted_kernel_eq6b": lambda x, y: 1 / ((1 + y * y) * (2 + x * x + y * y)),
    }
    for _ in range(300):
        if integrand_id in one_d:
            w = word(0.0, 1.0)
            x = val(w)
            yield integrands.raw_fn(integrand_id, D), w, one_d[integrand_id](x, mp.sqrt(x * x + 2))
        elif integrand_id in two_d:
            wx, wy = word(0.0, 1.0), word(0.0, 1.0)
            want = two_d[integrand_id](val(wx), val(wy))
            yield integrands.raw_fn(integrand_id, D), wx + wy, want
        elif integrand_id == "eq3_kernel":
            wa, w = word(0.05, 3.0), word(0.0, 1.0)
            a, x = val(wa), val(w)
            lane = integrands.raw_fn(integrand_id, D, Real._raw(*wa, D))
            yield lane, w, 1 / (x * x + a * a)
        elif integrand_id == "i1_theta":
            w = word(0.0, math.pi / 4)
            t = val(w)
            want = mp.pi / 2 * mp.cos(t) / mp.sqrt(2 - mp.sin(t) ** 2)
            yield integrands.raw_fn(integrand_id, D), w, want
        else:
            assert integrand_id == "i1_phi"
            yield integrands.raw_fn(integrand_id, D), word(0.0, math.pi / 6), mp.pi / 2


@pytest.mark.parametrize("integrand_id", integrands.ids())
def test_every_lane_against_mpmath(integrand_id):
    # each doubleword registry lane against 50-digit mpmath: the nearest
    # pair at every point, so well within the lane term the proven
    # Gauss-Legendre bound charges (bounds._ROUNDING_TERMS)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = random.Random(0x1A2F)
    for lane, args, want in _lane_points(integrand_id, rng):
        assert lane(*args) == nearest_pair(want), f"{integrand_id}{args}"


def test_atan_property_against_mpmath():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # half the draws near the table's range [0, 1] and the lanes' [sqrt2, sqrt3]
    his = st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    )
    words = st.tuples(his, st.floats(min_value=-0.5, max_value=0.5)).map(
        lambda p: _two_sum(p[0], p[1] * math.ulp(p[0]))
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(words)
    def check(word):
        _assert_atan_nearest(*word)

    check()


def test_lanes_property_against_mpmath():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # two thirds of the draws on the lanes' domains, [0, pi/4] (i1_theta)
    # and [0, 1]
    his = st.one_of(
        st.floats(min_value=0.0, max_value=0.7853981633974483),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-1024.0, max_value=1024.0),
    )
    words = st.tuples(his, st.floats(min_value=-0.5, max_value=0.5)).map(
        lambda p: _two_sum(p[0], p[1] * math.ulp(p[0]))
    )
    lanes = st.sampled_from(("ahmed_eq1", "i1_x", "i2_x", "i1_theta"))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(lanes, words)
    def check(integrand_id, word):
        _assert_lane_nearest(integrand_id, *word)

    check()


# ----------------------------------------------------------------------
# Double-word exp from the fixed-point block
# ----------------------------------------------------------------------
# The kernel takes k, r = divmod(x, ln2) at 2^-192 and rounds 2^k e^r,
# e^r from the power tables of _fixed_exp, once to the nearest pair;
# below |x| = 2^-12 the series runs alone, finer by the bits x lacks.
# Every result tested is the nearest pair to the mpmath value, up to
# ln(DBL_MAX) ~ 709.78 and down to -746, below which it is zero; on
# [-671, 709.78] that is within a quarter unit of 2^-104 relative, and
# below -671 a word is subnormal and the nearest pair itself carries
# fewer bits. Above 710 exp raises NonFiniteError.

EXP_BOUND = 0.25 * 2.0**-104


def _exp_err(xh, xl):
    # the relative error of _dd_exp(xh, xl), which must be the nearest
    # pair; 1,300 bits keep 1 + x exact for any x down to 2^-1074
    mp = pytest.importorskip("mpmath")
    with mp.workprec(1300):
        want = mp.exp(mp.mpf(xh) + mp.mpf(xl))
        got = scalar._dd_exp(xh, xl)
        assert got == nearest_pair(want), f"exp({xh!r}, {xl!r}) = {got!r}"
        return float(abs((mp.mpf(got[0]) + mp.mpf(got[1]) - want) / want))


class TestTableDrivenExp:
    def _assert_bound(self, words):
        for xh, xl in words:
            err = _exp_err(xh, xl)
            assert err <= EXP_BOUND, f"exp({xh!r}, {xl!r}): {err / 2.0**-104:.3g} units"

    def test_points_the_squaring_series_missed(self):
        # the r/16 series squared four times was 18.2, 17.0 and 16.9
        # units off here, above ELEM_BOUND
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for v in (7.725651455075308, 14.819721913313877, -31.04506000856949):
            got = exp(Real.from_float(v, Tier.DOUBLEWORD))
            want = Real.from_decimal(mp.nstr(mp.exp(mp.mpf(v)), 45), Tier.DOUBLEWORD)
            assert rel_err(got, want) <= ELEM_BOUND[Tier.DOUBLEWORD]
        self._assert_bound(
            [(7.725651455075308, 0.0), (14.819721913313877, 0.0), (-31.04506000856949, 0.0)]
        )

    def test_reduction_cells(self):
        # the centers and edges of the cells j ln2/64, with low words
        step = math.log(2.0) / 64.0
        pts = []
        for n in range(-2500, 2500, 37):
            pts += _ulps_around(n * step, 1) + _ulps_around((n + 0.5) * step, 1)
        self._assert_bound(_with_low_words(pts, 0xE4B))

    def test_range_ends_and_zero(self):
        # e^x is finite up to ln(DBL_MAX) ~ 709.78 and its nearest pair
        # nonzero down to ~ -745.13: at +-709.5, the ends of the native
        # range, it is the nearest pair; past 709.78 it overflows, and
        # Real's exp raises NonFiniteError, and below -746 it is the zero
        # pair, as math.exp's value there is 0.0
        words = [(v, 0.0) for v in (709.0, 709.5, 709.78, -671.0, 5e-324, -5e-324, 1e-300, 1e-20, -1e-20)]
        self._assert_bound(words)
        for v in (-709.5, -745.0, -745.2, -746.0):
            _exp_err(v, 0.0)
        assert scalar._dd_exp(0.0, 0.0) == (1.0, 0.0)
        assert scalar._dd_exp(-0.0, 0.0) == (1.0, 0.0)
        for v in (-745.2, -746.0, -746.5, -1e300, -math.inf):
            assert scalar._dd_exp(v, 0.0) == (0.0, 0.0) == (math.exp(v), 0.0)
        for v in (709.79, 709.8, 710.0, 710.5, 1e300, math.inf):
            with pytest.raises(NonFiniteError):
                exp(Real._raw(v, 0.0, Tier.DOUBLEWORD))
        for v in (710.5, math.inf):
            with pytest.raises(NonFiniteError):
                scalar._dd_exp(v, 0.0)
        for v in (709.5, -709.5, 709.78, -745.0):
            r = exp(Real.from_float(v, Tier.DOUBLEWORD))
            assert r.hi == pytest.approx(math.exp(v), rel=1e-13)

    def test_every_binade(self):
        # a seeded word, with a low word, in every binade of |x| from
        # 2^-1074 up to 709, at both signs, and 300 seeded words of
        # [-709, -671], where the low word of e^x is subnormal: each the
        # nearest pair, taken from the mpmath value's exact binary fraction
        # (mpmath's float() rounds twice near a subnormal result, and so
        # reported a false miss at x ~ -671.3958), and 300 seeded words of
        # each range end, [709, 709.78] and [-745.2, -709], where the
        # value nears overflow and underflows. Below -671 the nearest
        # pair itself is not within EXP_BOUND, so no bound is asserted
        rng = random.Random(0xE8B1)
        highs = []
        for k in range(-1074, 10):
            lo, hi = 2.0**k, min(2.0 ** (k + 1), 709.0)
            highs += [rng.uniform(lo, hi), -rng.uniform(lo, hi)]
        highs += [rng.uniform(-709.0, -671.0) for _ in range(300)]
        highs += [rng.uniform(709.0, 709.78) for _ in range(300)]
        highs += [rng.uniform(-745.2, -709.0) for _ in range(300)]
        for xh in highs:
            _exp_err(*_two_sum(xh, rng.uniform(-0.5, 0.5) * math.ulp(xh)))

    def test_tables_are_not_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # every lazy constant and table of the scalar module, and what a
        # run over an integrand's own domain resolves once: its box and the
        # bound's scales
        code = (
            "import ahmedquad\n"
            "from ahmedquad import bounds, quad, scalar\n"
            "for f in (scalar._pi_pair, scalar._atan_table, scalar._fixed_exp_tables,\n"
            "          quad._own_box, bounds._scales):\n"
            "    print(f.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * 5


def test_exp_property_against_mpmath():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # half the draws on [-80, 80]
    his = st.one_of(
        st.floats(min_value=-80.0, max_value=80.0),
        st.floats(min_value=-671.0, max_value=709.0),
    )
    words = st.tuples(his, st.floats(min_value=-0.5, max_value=0.5)).map(
        lambda p: _two_sum(p[0], p[1] * math.ulp(p[0]))
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(words)
    def check(word):
        err = _exp_err(*word)
        assert err <= EXP_BOUND, f"exp{word!r}: {err / 2.0**-104:.3g} units"

    check()


# ----------------------------------------------------------------------
# Double-word sin and cos: one reduction at the fixed point, bounded domain
# ----------------------------------------------------------------------
# The kernel subtracts the nearest multiple q of pi/2 at 2^-192 (finer for
# |x| < 1), sums both series at r/8 and doubles three times, and rounds
# each result once. Every result tested is the nearest pair to the mpmath
# value; next to a multiple of pi/2 the error is absolute, below 2^-182.



def _assert_sincos_nearest(xh, xl):
    # _dd_sincos(xh, xl) and the public sin and cos are the nearest pairs
    # to the mpmath values; 1,300 bits resolve a subnormal low word next
    # to 1 or to a tiny x
    mp = pytest.importorskip("mpmath")
    with mp.workprec(1300):
        v = mp.mpf(xh) + mp.mpf(xl)
        want = nearest_pair(mp.sin(v)) + nearest_pair(mp.cos(v))
    assert scalar._dd_sincos(xh, xl) == want, (xh, xl)
    x = Real._raw(xh, xl, Tier.DOUBLEWORD)
    s, c = sin(x), cos(x)
    assert (s.hi, s.lo, c.hi, c.lo) == want, (xh, xl)


# (x, sin hi, sin lo, cos hi, cos lo), each the nearest pair to the
# 60-digit mpmath value
SIN_COS_PINNED = [
    (0.5, "0x1.eaee8744b05f0p-2", "-0x1.789b43c9b027dp-58", "0x1.c1528065b7d50p-1", "-0x1.892111312e828p-55"),
    (1.0, "0x1.aed548f090ceep-1", "0x1.06374f484e288p-59", "0x1.14a280fb5068cp-1", "-0x1.b71edcc9344bcp-55"),
    (2.5, "0x1.326af0dcfcab1p-1", "-0x1.fd42734161659p-55", "-0x1.9a2f7ef858b7dp-1", "-0x1.587cfaa17e973p-56"),
    (10.0, "-0x1.1689ef5f34f52p-1", "-0x1.673fd915f0127p-55", "-0x1.ad9ac890c6b1fp-1", "-0x1.04f7e2a0b9995p-56"),
    (123.456, "-0x1.9b9dadc41aeb6p-1", "0x1.a57a7849f0736p-56", "-0x1.307e5980a1558p-1", "-0x1.445cf27ff9e26p-55"),
    (500.0, "-0x1.deff92776755fp-2", "0x1.1eb94baf2955ap-56", "-0x1.c487e457f68f0p-1", "0x1.c0c1317aa508cp-55"),
    (999.0, "-0x1.b18870e886e35p-6", "-0x1.7fdcf44dff790p-60", "0x1.ffd21b0401f9ap-1", "0x1.31391e2a189f4p-55"),
    (1000.0, "0x1.a75cc150a206bp-1", "0x1.64b8b22673741p-55", "0x1.1ff026793f1bbp-1", "0x1.dc0807412e446p-55"),
]


class TestSinCosFolding:
    @pytest.mark.parametrize("x,sh,sl,ch,cl", SIN_COS_PINNED, ids=[str(p[0]) for p in SIN_COS_PINNED])
    def test_values_unchanged(self, x, sh, sl, ch, cl):
        for sign in (1.0, -1.0):
            s = sin(Real.from_float(sign * x, Tier.DOUBLEWORD))
            c = cos(Real.from_float(sign * x, Tier.DOUBLEWORD))
            assert (s.hi, s.lo) == (sign * float.fromhex(sh), sign * float.fromhex(sl))
            assert (c.hi, c.lo) == (float.fromhex(ch), float.fromhex(cl))

    def test_largest_argument(self):
        for v in (1024.0, -1024.0):
            s = sin(Real.from_float(v, Tier.DOUBLEWORD))
            c = cos(Real.from_float(v, Tier.DOUBLEWORD))
            assert abs(s.to_float() - math.sin(v)) < 1e-9
            assert abs(c.to_float() - math.cos(v)) < 1e-9

    @pytest.mark.parametrize("v", [1025.0, 5000.0, 1e300, -1025.0, -1e300])
    def test_domain_error_beyond_2_pow_10(self, v):
        x = Real.from_float(v, Tier.DOUBLEWORD)
        with pytest.raises(DomainError):
            sin(x)
        with pytest.raises(DomainError):
            cos(x)

    def test_no_recursion_under_a_deep_stack(self):
        # the old mutual recursion ran out of frames far earlier when
        # called from deep inside the interpreter's stack
        def nest(depth):
            if depth:
                return nest(depth - 1)
            return sin(Real.from_float(1000.0, Tier.DOUBLEWORD))

        got = nest(sys.getrecursionlimit() - 100)
        assert got.hi == float.fromhex(SIN_COS_PINNED[-1][1])

    def test_nearest_pair_against_mpmath(self):
        # a seeded sweep of [-1024, 1024] and of [-4, 4], zero, tiny
        # arguments and the reduction's edges +-pi/4, with low words
        rng = random.Random(0x51C05)
        pts = [rng.uniform(-1024.0, 1024.0) for _ in range(500)]
        pts += [rng.uniform(-4.0, 4.0) for _ in range(500)]
        quarter = 0.7853981633974483
        pts += _ulps_around(quarter, 2) + _ulps_around(-quarter, 2)
        pts += [1e-300, 1e-100, 2.0**-60, -(2.0**-60), 1024.0, -1024.0]
        for word in [(0.0, 0.0), (-0.0, 0.0)] + _with_low_words(pts, 0x51C06):
            _assert_sincos_nearest(*word)


def test_sincos_property_against_mpmath():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # half the draws on the i1_theta domain [0, pi/4]
    his = st.one_of(
        st.floats(min_value=0.0, max_value=0.7853981633974483),
        st.floats(min_value=-1024.0, max_value=1024.0),
    )
    words = st.tuples(his, st.floats(min_value=-0.5, max_value=0.5)).map(
        lambda p: _two_sum(p[0], p[1] * math.ulp(p[0]))
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(words)
    def check(word):
        _assert_sincos_nearest(*word)

    check()


# ----------------------------------------------------------------------
# Double-word products and quotients near the top of binary64's range
# ----------------------------------------------------------------------
# Dekker's split, which Real's products and the double-word lane once
# used, overflowed past ~2^996. Real's operators and the DOUBLEWORD
# lane now take the exact ratios of the words, so these results are
# held against exact Fractions with no rescue to test.


def _exact(x):
    return Fraction(x.hi) + Fraction(x.lo)


def _words(v):
    # a DOUBLEWORD lane value as its nearest pair
    r = quad._LANES[Tier.DOUBLEWORD].real(v)
    return r.hi, r.lo


def _assert_dd_close(got, want):
    # a few units of 2^-104 relative, or the subnormal spacing where
    # the low word (or the result) leaves the normal range
    err = abs(_exact(got) - want)
    assert err <= 4 * 2.0**-104 * abs(want) + Fraction(2.0**-1074), (
        got, float(err / want) if want else float(err)
    )


class TestSplitOverflow:
    D = Tier.DOUBLEWORD

    def _dd(self, rng, lo_exp, hi_exp):
        # a double-word with a full low word: a binary64 draw divided by 3
        three = Real.from_float(3.0, self.D)
        v = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(lo_exp, hi_exp)
        x = Real.from_float(math.copysign(v, rng.random() - 0.5), self.D)
        return x / three

    def test_results_past_the_split_range(self):
        D = self.D
        one, big = Real.from_float(1.0, D), Real.from_float(1e301, D)
        got = div(one, big)
        _assert_dd_close(got, Fraction(1) / Fraction(1e301))
        got = mul(big, Real.from_float(1e-10, D))
        _assert_dd_close(got, Fraction(1e301) * Fraction(1e-10))
        # a quotient past 2^996 from operands that are not
        got = div(Real.from_float(1e296, D), Real.from_float(1e-5, D))
        _assert_dd_close(got, Fraction(1e296) / Fraction(1e-5))

    def test_seeded_against_fractions(self):
        rng = random.Random(0x5C41E)
        for _ in range(400):
            x = self._dd(rng, 990, 1020)
            y = self._dd(rng, -900, -30)
            _assert_dd_close(mul(x, y), _exact(x) * _exact(y))
            _assert_dd_close(mul(y, x), _exact(x) * _exact(y))
            z = self._dd(rng, 10, 25)
            _assert_dd_close(div(x, z), _exact(x) / _exact(z))
            w = self._dd(rng, -40, 40)
            _assert_dd_close(div(w, x), _exact(w) / _exact(x))

    def test_lane_and_real_entries_against_fractions(self):
        # operands with a high word in [2^990, 2^1023) and a result in
        # range, through the DOUBLEWORD lane's mul and div_d and Real's *
        # and /: a product is exact before its one rounding, and a
        # quotient is the nearest pair to the exact one
        lane = quad._LANES[self.D]
        rng = random.Random(0x5E1F)

        def close(got, want):
            got = Fraction(got[0]) + Fraction(got[1])
            assert abs(got - want) <= 2.0**-103 * abs(want), float((got - want) / want)

        for _ in range(300):
            # |x| and |big| in [2^990, 2^1021), |top| in [2^1019, 2^1023),
            # |y| < 1, 1 < |z| < 2^30, 2^-30 <= |k| < 4: every result stays
            # below 2^1023
            x, big = self._dd(rng, 992, 1021), self._dd(rng, 992, 1021)
            top = self._dd(rng, 1021, 1023)
            y, z = self._dd(rng, -40, 0), self._dd(rng, 2, 30)
            k = math.copysign(rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-30, 1), rng.random() - 0.5)
            # a point (a width in Simpson's rule) times a value
            xw, yw = lane.to_point(x.hi, x.lo), lane.pack(y.hi, y.lo)
            close(_words(lane.mul(xw, yw)), _exact(x) * _exact(y))
            xw, yw = lane.pack(x.hi, x.lo), lane.to_point(y.hi, y.lo)
            close(_words(lane.mul(yw, xw)), _exact(x) * _exact(y))
            q = x / Real.from_float(1.0 / k, self.D)
            assert (q.hi, q.lo) == nearest_pair_of(_exact(x) / Fraction(1.0 / k))
            for d in (6.0, 15.0):  # Simpson's divisors
                q = lane.div_d(lane.pack(top.hi, top.lo), d)
                assert _words(q) == nearest_pair_of(_exact(top) / Fraction(d))
            for got, want in (
                (x * y, _exact(x) * _exact(y)),
                (x / z, _exact(x) / _exact(z)),
                (x / big, _exact(x) / _exact(big)),
            ):
                close((got.hi, got.lo), want)

    def test_lane_quotient_of_the_widest_width(self):
        # the width of [-DBL_MAX, DBL_MAX], which overflowed the words of
        # the double-word lane, is an exact int on the DOUBLEWORD lane:
        # Simpson's (b - a)/6 is the nearest pair to the exact quotient,
        # and (b - a)/1 is past binary64, where hi is infinite
        lane = quad._LANES[self.D]
        big = sys.float_info.max
        width = lane.sub(lane.to_point(big, 0.0), lane.to_point(-big, 0.0))
        assert lane.hi(width) == math.inf and lane.hi(-width) == -math.inf
        for k in (6.0, 15.0):
            assert _words(lane.div_d(width, k)) == nearest_pair_of(2 * Fraction(big) / Fraction(k))

    def test_out_of_range_still_raises(self):
        D = self.D
        big = Real.from_float(1e308, D)
        with pytest.raises(NonFiniteError):
            mul(big, big)
        with pytest.raises(NonFiniteError):
            div(big, Real.from_float(1e-10, D))
        # zero times the largest value is zero, not NaN
        zero = Real.from_float(0.0, D)
        assert mul(zero, Real.from_float(sys.float_info.max, D)).hi == 0.0

    def test_products_and_quotients_are_nearest_pairs(self):
        # over high words spanning 2^-400 to 2^400, the Real product and
        # quotient are the nearest pairs to the exact ones
        for (ah, bh) in _random_pairs(2_000, 0xFA57, span=400):
            x = Real.from_float(ah, self.D) / Real.from_float(3.0, self.D)
            y = Real.from_float(bh, self.D) / Real.from_float(7.0, self.D)
            p = mul(x, y)
            assert (p.hi, p.lo) == nearest_pair_of(_exact(x) * _exact(y))
            q = div(x, y)
            assert (q.hi, q.lo) == nearest_pair_of(_exact(x) / _exact(y))


def test_tier_hashes_by_identity():
    # a Tier-keyed cache hashes the member in C, not through Enum.__hash__
    assert Tier.__hash__ is object.__hash__
    assert {Tier.NATIVE64: 1, Tier.DOUBLEWORD: 2}[Tier("doubleword")] == 2


def test_sqrt_over_every_binade():
    # the public double-word sqrt is the nearest pair to the mpmath value
    # on three seeded words per binade from 2^-1074 to 2^1023, and on the
    # largest double, whose square root Karp's step (y^2 overflowing) once
    # returned as NaN
    mp = pytest.importorskip("mpmath")
    rng = random.Random(0x5091)
    words = [(sys.float_info.max, 0.0)]
    for k in range(-1074, 1024):
        for _ in range(3):
            xh = rng.uniform(1.0, 2.0) * 2.0**k
            words.append(_two_sum(xh, rng.uniform(-0.5, 0.5) * math.ulp(xh)))
    with mp.workprec(300):
        for xh, xl in words:
            r = sqrt(Real._raw(xh, xl, Tier.DOUBLEWORD))
            want = nearest_pair(mp.sqrt(mp.mpf(xh) + mp.mpf(xl)))
            assert (r.hi, r.lo) == want, f"sqrt({xh!r}, {xl!r})"


# ----------------------------------------------------------------------
# Real arithmetic over every binade
# ----------------------------------------------------------------------
# Seeded words in every binade from 2^-1074 to 2^1023, against exact
# Fractions. Every result of +, -, * and / is the nearest pair to the
# exact one. The weaker claim that +, - and * once met is kept too: above
# the 2^-969 floor 4 units of 2^-104 (ARITH_DD) relative, below it,
# where the low word is subnormal, FLOOR_ABS.

FLOOR = Fraction(2) ** -969
FLOOR_ABS = 4 * Fraction(2) ** -1074
_TOP = Fraction(2) ** 1024 - Fraction(2) ** 970  # the first value that rounds to inf


def _word(rng, k):
    # a double-word with its high word in [2^k, 2^(k+1)), random sign and
    # a random low word; at the bottom binades the high word is subnormal
    hi = math.copysign(rng.uniform(1.0, 2.0) * 2.0**k, rng.random() - 0.5)
    return _two_sum(hi, rng.uniform(-0.5, 0.5) * math.ulp(hi))


def _binade_words(seed):
    # two seeded words in each binade from 2^-1074 to 2^1023
    rng = random.Random(seed)
    return [_word(rng, k) for k in range(-1074, 1024) for _ in range(2)], rng


def _assert_within(got, want, units, what):
    # units of 2^-104 relative above the floor, FLOOR_ABS below it
    err = abs(Fraction(got[0]) + Fraction(got[1]) - want)
    if abs(want) >= FLOOR:
        assert err <= units * abs(want), (what, float(err / abs(want) / 2.0**-104))
    else:
        assert err <= FLOOR_ABS, (what, float(err / Fraction(2) ** -1074))


def _real_outcome(op, x, y):
    # op on the Reals of words x and y at DOUBLEWORD: its pair, or the
    # exception type it raised
    D = Tier.DOUBLEWORD
    try:
        r = op(Real._raw(*x, D), Real._raw(*y, D))
    except (NonFiniteError, ZeroDivisionError) as exc:
        return type(exc)
    return r.hi, r.lo


def _assert_real_op(op, x, y, units):
    # op's Real result the nearest pair to the exact value, and within
    # units of it, or NonFiniteError where the exact value rounds past
    # binary64
    want = op(Fraction(x[0]) + Fraction(x[1]), Fraction(y[0]) + Fraction(y[1]))
    got = _real_outcome(op, x, y)
    if abs(want) >= _TOP:
        assert got is NonFiniteError, (x, y, got)
    else:
        _assert_within(got, want, units, (x, y))
        assert got == nearest_pair_of(want), (x, y, got)


class TestEveryBinade:
    def test_add_and_sub(self):
        # with a word of any binade, and with one of the same binade or
        # up to three below, where the sum cancels
        words, rng = _binade_words(0xB1AD)
        for k, x in enumerate(words):
            near = _word(rng, k // 2 - 1074 - rng.randint(0, 3))
            for y in (rng.choice(words), near):
                for op in (operator.add, operator.sub):
                    _assert_real_op(op, x, y, ARITH_DD)
                    _assert_real_op(op, y, x, ARITH_DD)

    def test_sums_are_the_exact_ratio_pairs(self):
        # + and - (math.fsum of the four words) against the pair that the
        # exact ratio rounds to, bit for bit: a word of every binade with
        # one of any binade and one of the same binade or up to three
        # below, where the sum cancels; signed zeros; and sums at and past
        # DBL_MAX, where both raise NonFiniteError. (top, 0) + (2^970,
        # -2^916) is finite, though fsum's partial sum top + 2^970 is not
        D = Tier.DOUBLEWORD
        top = sys.float_info.max

        def bits(outcome):
            if outcome is NonFiniteError or not all(map(math.isfinite, outcome)):
                return NonFiniteError
            return tuple(w.hex() for w in outcome)

        words, rng = _binade_words(0xF5E)
        cases = []
        for k, x in enumerate(words):
            cases += [(x, rng.choice(words)), (x, _word(rng, k // 2 - 1074 - rng.randint(0, 3)))]
        zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
        big = [(top, 0.0), (top, -(2.0**969)), (-top, 2.0**969), (2.0**1023, 2.0**969), (2.0**970, -(2.0**916))]
        cases += [(x, y) for x in zeros + big for y in zeros + big + words[::40]]
        raised = 0
        for x, y in cases:
            for op in (operator.add, operator.sub):
                for u, v in ((x, y), (y, x)):
                    want = scalar._pair_from_ratio(*scalar._exact_ratio(op, Real._raw(*u, D), Real._raw(*v, D)))
                    got = _real_outcome(op, u, v)
                    assert bits(got) == bits(want), (op, u, v)
                    raised += got is NonFiniteError
        assert raised > 0
        fallback = Real._raw(top, 0.0, D) + Real._raw(2.0**970, -(2.0**916), D)
        assert (fallback.hi, fallback.lo) == (top, 2.0**970 - 2.0**916)
        with pytest.raises(OverflowError):
            math.fsum((top, 0.0, 2.0**970, -(2.0**916)))

    def test_mul(self):
        # with a word picked so that the product lands in a seeded binade
        # from 2^-1080 to 2^1023, and with any word of the sweep
        words, rng = _binade_words(0x3A1)
        for k, x in enumerate(words):
            k = k // 2 - 1074
            j = min(max(rng.randint(-1080, 1023) - k, -1074), 1023)
            for y in (_word(rng, j), rng.choice(words)):
                _assert_real_op(operator.mul, x, y, ARITH_DD)


class TestExactQuotient:
    # Real / at DOUBLEWORD is the nearest pair to the exact quotient,
    # NonFiniteError where that rounds past binary64, and ZeroDivisionError
    # for a zero divisor

    def _assert_nearest(self, x, y):
        got = _real_outcome(operator.truediv, x, y)
        if y[0] == 0.0:
            assert got is ZeroDivisionError, (x, y, got)
            return
        want = (Fraction(x[0]) + Fraction(x[1])) / (Fraction(y[0]) + Fraction(y[1]))
        if abs(want) >= _TOP:
            assert got is NonFiniteError, (x, y, got)
        else:
            assert got == nearest_pair_of(want), (x, y, got)

    def test_every_binade(self):
        # a dividend in every binade, by a word picked so that the
        # quotient lands in a seeded binade from 2^-1080 to 2^1026
        words, rng = _binade_words(0xD1F)
        for k, x in enumerate(words):
            k = k // 2 - 1074
            j = min(max(k - rng.randint(-1080, 1026), -1074), 1023)
            self._assert_nearest(x, _word(rng, j))
            self._assert_nearest(x, rng.choice(words))

    def test_seeded_operands(self):
        for x, y in _seeded_operand_pairs():
            self._assert_nearest(x, y)

    def test_special_operands(self):
        finite = [c for c in _special_operands(("dd", "dd")) if all(map(math.isfinite, c))]
        assert len(finite) > 1_000
        for c in finite:
            self._assert_nearest(c[:2], c[2:])

    def test_one_rounding(self, monkeypatch):
        # the quotient is one _pair_from_ratio of the exact ratios
        calls = []
        pair = scalar._pair_from_ratio
        monkeypatch.setattr(scalar, "_pair_from_ratio", lambda n, d: calls.append(d) or pair(n, d))
        x = Real.from_float(1.0, Tier.DOUBLEWORD) / 3
        assert len(calls) == 1 and (x.hi, x.lo) == nearest_pair_of(Fraction(1, 3))


def test_constructor_and_decimal_are_nearest_pairs():
    # an int with a low word, and a decimal literal, each round once to
    # the nearest pair at DOUBLEWORD
    D = Tier.DOUBLEWORD
    rng = random.Random(0xC0F)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(1, 1000)) * rng.choice((1, -1))
        lo = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-60, 1000)
        r = Real(n, lo, D)
        assert (r.hi, r.lo) == nearest_pair_of(n + Fraction(lo)), (n, lo)
        text = f"{rng.randint(-10**40, 10**40)}e{rng.randint(-380, 260)}"
        r = Real.from_decimal(text, D)
        assert (r.hi, r.lo) == nearest_pair_of(Fraction(Decimal(text))), text
    with pytest.raises(NonFiniteError):
        Real(2**1023 + 2**1022 + 2**1021, sys.float_info.max, D)
    # a literal below half the least subnormal is zero, without forming
    # its 10^1000000 denominator
    assert Real.from_decimal("1e-1000000", D) == 0
