import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from ffgs.hopf import nonzeros
from ffgs.rings import (
    MAX_FIELD_ORDER,
    MAX_PRIME_TEST,
    DualNumbers,
    FiniteField,
    IntegersMod,
    LocalizedIntegers,
    PrimeField,
    QQ,
    RationalField,
    RingError,
    _direct_hom,
    _pmod_modp,
    _pmul_modp,
    default_modulus,
    find_hom,
    gf,
    is_prime,
    parse_ring,
    poly_is_irreducible_modp,
    prime_factors,
    spectrum,
)
from test_linalg import RINGS as LINALG_RINGS

ALL_RINGS = [
    QQ,
    PrimeField(2),
    PrimeField(5),
    FiniteField(2, 2, (1, 1, 1)),
    FiniteField(3, 2, default_modulus(3, 2)),
    IntegersMod(12),
    LocalizedIntegers(2),
    DualNumbers(PrimeField(3)),
    DualNumbers(QQ),
]


def sample(R, rng, count=8):
    if R.is_finite:
        els = list(R.elements())
        return [rng.choice(els) for _ in range(count)]
    if isinstance(R, LocalizedIntegers):
        return [
            Fraction(rng.randrange(-20, 20), rng.choice([1, 3, 5, 7]))
            for _ in range(count)
        ]
    if R is QQ:
        return [Fraction(rng.randrange(-20, 20), rng.randrange(1, 9))
                for _ in range(count)]
    if isinstance(R, DualNumbers):
        base = sample(R.base, rng, 2 * count)
        return list(zip(base[:count], base[count:]))
    raise AssertionError


@pytest.mark.parametrize("R", ALL_RINGS, ids=lambda R: R.name())
def test_ring_axioms(R):
    rng = random.Random(7)
    for a, b, c in zip(*(sample(R, rng, 30) for _ in range(3))):
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(a, b) == R.mul(b, a)
        assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(a, R.one) == a
        assert R.add(a, R.zero) == a
        assert R.add(a, R.neg(a)) == R.zero
        if R.is_unit(a):
            assert R.mul(a, R.inv(a)) == R.one


def test_parse_ring_round_trip():
    for spec in ["Q", "GF(7)", "GF(2^2;x^2+x+1)", "Z/12", "Zloc(3)",
                 "Dual(GF(5))", "Dual(Q)"]:
        R = parse_ring(spec)
        assert parse_ring(R.name()) == R


def test_parse_ring_examples():
    assert parse_ring("Z/12") == IntegersMod(12)
    assert parse_ring("GF(2^2;x^2+x+1)") == FiniteField(2, 2, (1, 1, 1))
    with pytest.raises(RingError):
        parse_ring("GF(4)")  # modulus required for k > 1
    with pytest.raises(RingError):
        parse_ring("GF(6)")
    with pytest.raises(RingError):
        parse_ring("GF(2^2;x^2+1)")  # (x+1)^2 mod 2
    with pytest.raises(RingError):
        parse_ring("Zloc(4)")
    # nesting past the stack, and a modulus whose degree would fill memory
    for spec in ["Dual(" * 2000 + "GF(3)" + ")" * 2000, "GF(2^2;x^99999999)"]:
        with pytest.raises(RingError):
            parse_ring(spec)


def test_element_literals_round_trip():
    rng = random.Random(3)
    for R in ALL_RINGS:
        for a in sample(R, rng, 12):
            assert R.parse(R.show(a)) == a


def test_malformed_element_literals_raise_ring_error():
    for R in ALL_RINGS:
        # past int()'s digit limit, an exponent that would fill memory, signs
        # without a term, and digits split by a space
        for text in ["", "?", "1/0", "1+eps*", 3, None, "9" * 5000,
                     "x^" + "9" * 5000, "x^99999999", "+", "x+", "1++x", "1 2",
                     "-", "--x"]:
            with pytest.raises(RingError):
                R.parse(text)


def test_a_sign_before_x_parses():
    F9 = parse_ring("GF(3^2;x^2+1)")
    for text, same in [("-x", "2*x"), ("1-x", "1+2*x"), ("x-1", "x+2"),
                       ("-x^2", "1"), ("-1-x", "2+2*x"), (" - x", "2*x")]:
        assert F9.parse(text) == F9.parse(same), text
    F4 = parse_ring("GF(2^2;x^2+x+1)")
    assert F4.parse("-x") == F4.parse("x") and F4.parse("1-x") == F4.parse("x-1")
    for text in ["-", "--x", "+", "1 2", "x--1", "-*"]:
        with pytest.raises(RingError):
            F9.parse(text)


def _trial_division_factors(n):
    """The distinct prime factors by trial division, kept as the reference."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_match_trial_division():
    assert all(prime_factors(n) == _trial_division_factors(n) for n in range(10 ** 5))
    # past the trial-division primes, rho splits squares and large factors
    for primes, n in [([1009], 1009 ** 2), ([101, 1009], 101 * 1009 ** 3),
                      ([1000003, 1000033], 1000003 * 1000033),
                      ([1000000007, 1000000009], 1000000016000000063),
                      ([3, 1800000000047, 1800000000083],
                       3 * 1800000000047 * 1800000000083)]:
        assert prime_factors(n) == primes, n
    with pytest.raises(RingError):  # a part is too large for is_prime
        prime_factors(10000000000037 * 1000000000039)


def _trial_division_is_prime(n):
    """The trial-division test is_prime replaced, kept as the reference."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n) for n in range(10 ** 5))
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
                  825265, 321197185, 5394826801, 232250619601, 9746347772161]
    assert not any(is_prime(n) for n in carmichael)
    # composite, and a strong pseudoprime to every prime base up to 37
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
    assert not is_prime(MAX_PRIME_TEST - 2)
    for n in (MAX_PRIME_TEST, 2 ** 89 - 1):
        with pytest.raises(RingError):
            is_prime(n)


def test_large_prime_bases_answer_at_once():
    # trial division took about 1.5e9 steps for 2^61 - 1 before any output;
    # the subprocess timeout catches a command that never returns
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for cmd, spec, base, code, out in (
            ("order", "mu:2", "GF(2305843009213693951)", 0, "2\n"),
            ("verify", "mu:2", "GF(2305843009213693951)", 0, "pass\n"),
            ("order", "mu:2", "Zloc(2305843009213693951)", 0, "2\n"),
            ("order", "mu:2", "GF(2305843009213693953)", 2, ""),
            ("order", "mu:2", f"GF({MAX_PRIME_TEST})", 2, ""),
            # 1000000007 * 1000000009: trial division ran past 15 s
            ("fibers", "mu:2", "Z/1000000016000000063", 0,
             "".join(f"p{p} (GF({p})): i = 1, separable rank = 2, etale = True, "
                     "identity component = trivial\n"
                     for p in (1000000007, 1000000009))),
            # a non-unit pivot over that base: the scan for its unit ran
            # past 20 s
            ("decompose-p", "mu:6", "Z/1000000016000000063", 0,
             "order 6 = 2 * 3\n  G_2: order 2, ideal rank 4\n"
             "  G_3: order 3, ideal rank 3\n"),
            ("theorem", "mu:2", "Z/1000000016000000063", 2, "")):
        proc = subprocess.run(
            [sys.executable, "-m", "ffgs.cli", cmd, "--builtin", spec,
             "--base", base], env=env, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (code, out), (cmd, base, proc.stderr)


def test_zmod_pivot_unit_matches_the_scan():
    """normalize_pivot over Z/n scales by the least unit w with
    w * g = gcd(g, n), as a scan of range(1, n) finds it."""
    def scan(n, g):
        return next(w for w in range(1, n) if gcd(w, n) == 1 and w * g % n == gcd(g, n))

    for n in range(2, 300):
        R = IntegersMod(n)
        for g in range(1, n):
            w = scan(n, g)
            assert R.normalize_pivot([(0, g), (1, 1), (2, n - 1)]) == \
                [(0, w * g % n), (1, w), (2, w * (n - 1) % n)], (n, g)


def test_size_of_finite_rings():
    assert [R.size() for R in ALL_RINGS if R.is_finite] == [2, 5, 4, 9, 12, 9]
    for R in ALL_RINGS:
        if not R.is_finite:
            with pytest.raises(RingError):
                R.size()


def test_gf4_arithmetic():
    F = FiniteField(2, 2, (1, 1, 1))
    x = (0, 1)
    assert F.mul(x, x) == F.add(x, F.one)  # x^2 = x + 1
    assert F.pow(x, 3) == F.one
    els = list(F.elements())
    assert len(els) == 4 and len(set(els)) == 4


def test_spectrum_z12():
    pts = spectrum(IntegersMod(6))
    assert len(pts) == 2
    assert {p.residue_field.name() for p in pts} == {"GF(2)", "GF(3)"}
    assert all(p.specializations == [] for p in pts)


def test_spectrum_zloc():
    pts = spectrum(LocalizedIntegers(2))
    assert [p.id for p in pts] == ["generic", "closed"]
    assert pts[0].residue_field is QQ
    assert pts[0].specializations == ["closed"]
    assert pts[1].residue_field == PrimeField(2)


def test_spectrum_q():
    pts = spectrum(QQ)
    assert len(pts) == 1 and pts[0].residue_field is QQ


def test_residue_lifting_of_artin_local_rings():
    """Z/p^e lifts from GF(p) along p, ..., p^(e-1), and Dual(k) along eps;
    a base with several points or a generic point has no such chain and
    says so with RingError."""
    k, lift, steps = IntegersMod(27).residue_lifting()
    assert k == PrimeField(3) and lift(2) == 2
    assert [(d, coord(2 * d)) for d, coord in steps] == [(3, 2), (9, 2)]
    F3 = PrimeField(3)
    k, lift, steps = DualNumbers(F3).residue_lifting()
    [(eps, coord)] = steps
    assert k == F3 and lift(2) == (2, 0) and eps == (0, 1) and coord((1, 2)) == 2
    for R in (IntegersMod(6), IntegersMod(30), LocalizedIntegers(2)):
        with pytest.raises(RingError):
            R.residue_lifting()


def test_local_parts_are_the_crt_components():
    """Z/n is the product of one part per prime power p^e exactly dividing
    n, Z/p^e or GF(p) where e = 1: the part sizes multiply to n, the
    embedded units are orthogonal idempotents summing to 1, and the
    residue map to a part undoes its own embedding and kills the others.
    A local ring is its own one part."""
    assert ([S.name() for S, _ in IntegersMod(60).local_parts()]
            == ["Z/4", "GF(3)", "GF(5)"])
    for n in (2, 4, 12, 35, 36, 60, 1000000016000000063):
        R = IntegersMod(n)
        parts = R.local_parts()
        assert math.prod(S.size() for S, _ in parts) == n, n
        units = [embed(S.one) for S, embed in parts]
        assert functools.reduce(R.add, units) == R.one, n
        for i, u in enumerate(units):
            assert [R.mul(u, w) for w in units] == [
                u if j == i else R.zero for j in range(len(units))], n
        for S, _ in parts:
            residue = find_hom(R, S)
            for T, embed in parts:
                for a in {*range(min(T.size(), 40)), T.size() - 1}:
                    assert residue(embed(a)) == (a if T == S else S.zero), (n, S, T, a)
    for R in (gf(2, 2), QQ, LocalizedIntegers(3), DualNumbers(PrimeField(3)),
              IntegersMod(27)):
        [(S, embed)] = R.local_parts()
        assert S is R and embed(R.one) == R.one, R


def test_spectrum_transitive_antisymmetric():
    for R in ALL_RINGS:
        pts = spectrum(R)
        ids = {p.id for p in pts}
        for p in pts:
            for s in p.specializations:
                assert s in ids and s != p.id


def test_find_hom_composites():
    h = find_hom(LocalizedIntegers(2), gf(2, 2))
    assert h is not None
    assert h(Fraction(1, 3)) == h.target.inv(h.target.from_int(3))
    h2 = find_hom(IntegersMod(12), PrimeField(3))
    assert h2(7) == 1
    h3 = find_hom(LocalizedIntegers(2), IntegersMod(4))
    assert h3(Fraction(1, 3)) == 3
    h4 = find_hom(PrimeField(5), DualNumbers(PrimeField(5)))
    assert h4(2) == (2, 0)
    assert find_hom(QQ, PrimeField(5)) is None
    assert find_hom(PrimeField(2), PrimeField(3)) is None


def _reference_find_hom(R, S):
    """find_hom as it was: the intermediate rings of a composite chosen by
    the classes of R and S."""
    h = _direct_hom(R, S)
    if h is not None:
        return h
    mids = []
    if isinstance(S, DualNumbers):
        mids.append(S.base)
    if isinstance(S, FiniteField):
        mids.append(PrimeField(S.p))
    if isinstance(R, LocalizedIntegers):
        mids.append(PrimeField(R.p))
    if isinstance(R, IntegersMod):
        mids.extend(PrimeField(p) for p in prime_factors(R.n))
    if isinstance(R, DualNumbers):
        mids.append(R.base)
    for mid in mids:
        if mid == R or mid == S:
            continue
        first = _reference_find_hom(R, mid)
        if first is None:
            continue
        rest = _reference_find_hom(mid, S)
        if rest is not None:
            return first.then(rest)
    return None


HOM_RINGS = ["Q", "GF(2)", "GF(3)", "GF(5)", "GF(2^2;x^2+x+1)", "GF(2^3;x^3+x+1)",
             "GF(2^3;x^3+x^2+1)", "GF(3^2;x^2+1)", "Z/2", "Z/3", "Z/4", "Z/6", "Z/9",
             "Z/12", "Z/35", "Zloc(2)", "Zloc(3)", "Dual(GF(2))", "Dual(GF(3))",
             "Dual(Q)", "Dual(Z/2)", "Dual(Z/3)", "Dual(GF(2^2;x^2+x+1))",
             "Dual(GF(2^3;x^3+x+1))"]


def test_find_hom_matches_reference():
    """find_hom, which composes through the residue fields of Spec S and
    Spec R, finds the same maps as the class-driven search on every
    ordered pair, with the same values."""
    rings = [parse_ring(name) for name in HOM_RINGS]
    found = 0
    for R, S in itertools.product(rings, repeat=2):
        want = _reference_find_hom(R, S)
        got = find_hom(R, S)
        assert (got is None) == (want is None), (R, S)
        if got is None:
            continue
        found += 1
        els = (list(itertools.islice(R.elements(), 40)) if R.is_finite
               else [R.from_int(i) for i in range(-4, 5)])
        assert [got(a) for a in els] == [want(a) for a in els], (R, S)
    assert found > 100, found


def test_maps_to_a_field_factor_through_the_residue_field_below():
    """For every ring R of HOM_RINGS and every field k with a map from R,
    residue_field_below(k) is the residue field k0 of a closed point of
    Spec R with a map to k, and find_hom(R, k) is find_hom(R, k0) followed
    by find_hom(k0, k): a fiber reached through the one over k0 has the
    tables of the direct base change.  Q over Zloc(p) lies over the
    generic point, and no residue field GF(p) maps to the field Z/p, so
    these have no k0."""
    rings = [parse_ring(name) for name in HOM_RINGS]
    checked = 0
    for R, k in itertools.product(rings, repeat=2):
        if not k.is_field or find_hom(R, k) is None:
            continue
        k0 = R.residue_field_below(k)
        if k0 is None:
            assert k == QQ or isinstance(k, IntegersMod), (R, k)
            continue
        assert k0 in [p.residue_field for p in spectrum(R) if not p.specializations], (R, k)
        els = (list(itertools.islice(R.elements(), 40)) if R.is_finite
               else [R.from_int(i) for i in range(-4, 5)] + [R.inv(R.from_int(5))])
        down, up = find_hom(R, k0), find_hom(k0, k)
        assert [find_hom(R, k)(a) for a in els] == [up(down(a)) for a in els], (R, k)
        checked += 1
    assert checked > 40, checked


def test_field_embedding_is_hom():
    small = gf(2, 2)
    big = gf(2, 4)
    h = find_hom(small, big)
    els = list(small.elements())
    for a in els:
        for b in els:
            assert h(small.mul(a, b)) == big.mul(h(a), h(b))
            assert h(small.add(a, b)) == big.add(h(a), h(b))
    assert len({h(a) for a in els}) == 4


# ----------------------------------------------------------------------
# the element-arithmetic overrides against the protocol's defaults

PROTOCOL_RINGS = ALL_RINGS + [R for R in LINALG_RINGS if R not in ALL_RINGS]


@pytest.mark.parametrize("R", PROTOCOL_RINGS, ids=lambda R: R.name())
def test_nonzero_is_the_zero_test(R):
    rng = random.Random(17)
    for a in sample(R, rng, 40) + [R.zero, R.one, R.from_int(0)]:
        assert bool(R.nonzero(a)) == (a != R.zero), a


@pytest.mark.parametrize("R", PROTOCOL_RINGS, ids=lambda R: R.name())
def test_sub_and_row_sub_match_the_defaults(R):
    rng = random.Random(19)
    xs, ys = sample(R, rng, 40), sample(R, rng, 40)
    for a, b in zip(xs, ys):
        assert R.sub(a, b) == R.add(a, R.neg(b))
    # row_sub on the sparse rows against the dense formula, with zeros
    # in both rows and entries that cancel
    for q in sample(R, rng, 10) + [R.zero]:
        row, piv = sample(R, rng, 6), sample(R, rng, 5) + [R.zero]
        row[0], row[1], row[2] = R.zero, R.mul(q, piv[1]), R.zero
        want = [R.add(x, R.neg(R.mul(q, y))) for x, y in zip(row, piv)] + row[6:]
        got = R.row_sub(nonzeros(R, row), q, nonzeros(R, piv))
        assert got == nonzeros(R, want)
        assert all(a[0] < b[0] for a, b in zip(got, got[1:]))


def small_fields(max_q):
    """GF(p^k), k >= 2, q <= max_q, under every monic irreducible modulus."""
    for p in (2, 3, 5):
        k = 2
        while p ** k <= max_q:
            for lower in itertools.product(range(p), repeat=k):
                if poly_is_irreducible_modp(lower + (1,), p):
                    yield FiniteField(p, k, lower + (1,))
            k += 1


def poly_mul(F, a, b):
    return _pmod_modp(_pmul_modp(a, b, F.p), F.modulus, F.p)


def poly_add(F, a, b):
    n = max(len(a), len(b))
    a, b = F._pad(a)[:n], F._pad(b)[:n]
    out = [(x + y) % F.p for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_log_tables_match_polynomial_arithmetic():
    fields = list(small_fields(32))
    assert len(fields) == 33  # 1 + 2 + 3 + 6 over GF(2), 3 + 8 over GF(3), 10 over GF(5)
    for F in fields:
        els = list(F.elements())
        for a in els:
            for b in els:
                assert F.mul(a, b) == poly_mul(F, a, b), (F, a, b)
                assert F.add(a, b) == poly_add(F, a, b), (F, a, b)
            if a:
                assert poly_mul(F, a, F.inv(a)) == F.one, (F, a)


def test_log_tables_in_the_largest_field():
    F = parse_ring("GF(2^16;x^16+x^5+x^3+x^2+1)")
    assert F.q == MAX_FIELD_ORDER
    rng = random.Random(16)
    for _ in range(10000):
        a, b = (tuple(rng.randrange(2) for _ in range(16)) for _ in range(2))
        a, b = poly_add(F, a, ()), poly_add(F, b, ())  # trimmed
        assert F.mul(a, b) == poly_mul(F, a, b)
        assert F.add(a, b) == poly_add(F, a, b)
        if a:
            assert poly_mul(F, a, F.inv(a)) == F.one
    with pytest.raises(RingError):
        parse_ring("GF(2^17;x^17+x^3+1)")


def test_default_modulus_is_searched_once(monkeypatch):
    import ffgs.rings as rings

    calls = [0]

    def counting(f, p):
        calls[0] += 1
        return poly_is_irreducible_modp(f, p)

    monkeypatch.setattr(rings, "poly_is_irreducible_modp", counting)
    default_modulus.cache_clear()
    first = gf(2, 5)
    searched = calls[0]
    assert searched > 2
    # the second call skips the search; only FiniteField checks its modulus
    assert gf(2, 5) == first
    assert calls[0] == searched + 1


def test_roots_match_evaluation_at_every_element():
    """Ring.roots over every field of the test-ring family equals a Horner
    evaluation at each element, in element order; over Q it returns
    exactly the roots of drawn linear factors times an irreducible
    quadratic, sorted."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    settings = hyp.settings(max_examples=100, deadline=None, derandomize=True,
                            database=None)
    from ffgs.testrings import _small_fields

    @settings
    @hyp.given(st.sampled_from(_small_fields()), st.data())
    def check_finite(F, data):
        elements = list(F.elements())
        coeffs = data.draw(st.lists(st.sampled_from(elements), max_size=6))

        def horner(x):
            acc = F.zero
            for c in reversed(coeffs):
                acc = F.add(F.mul(acc, x), c)
            return acc

        assert F.roots(coeffs) == [x for x in elements if not F.nonzero(horner(x))]

    def times(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    units = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1),
                      st.integers(1, 3))

    @settings
    @hyp.given(st.lists(st.tuples(fractions, units), max_size=3),
               st.integers(-6, 6), st.integers(1, 6), units,
               st.integers(0, 2))
    def check_rational(linear, b, k, scale, padding):
        # x^2 + b x + c with b^2 - 4c < 0 has no rational root
        c = b * b // 4 + k
        poly = [Fraction(c), Fraction(b), Fraction(1)]
        for root, lead in linear:
            poly = times(poly, [-root * lead, lead])
        poly = [scale * x for x in poly] + [Fraction(0)] * padding
        assert QQ.roots(poly) == sorted({r for r, _ in linear}, key=QQ.sort_key)

    check_finite()
    check_rational()
    assert QQ.roots([]) == [] and QQ.roots([Fraction(0)] * 3) == []


# -- Q, Zloc(p) and Dual(Q) against an all-Fraction reference -------------
#
# An integral element of Q or Zloc(p) is an int, and a Fraction appears
# only where a division makes one.  The reference rings below keep every
# element a Fraction, as ffgs once did.


class FractionQ(RationalField):
    """Q with every element a Fraction."""

    zero, one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if a == 0:
            raise RingError("division by zero in Q")
        return 1 / Fraction(a)

    def parse(self, text):
        return Fraction(text)

    def roots(self, coeffs):
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return []
        low = next(i for i, c in enumerate(ints) if c)
        divisors = lambda n: [d for d in range(1, abs(n) + 1) if n % d == 0]
        out = {Fraction(0)} if low else set()
        for a in divisors(ints[low]):
            for b in divisors(ints[-1]):
                for cand in (Fraction(a, b), Fraction(-a, b)):
                    acc = Fraction(0)
                    for c in reversed(coeffs):
                        acc = acc * cand + c
                    if not acc:
                        out.add(cand)
        return sorted(out, key=self.sort_key)


class FractionZloc(LocalizedIntegers):
    """Zloc(p) with every element a Fraction."""

    zero, one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit in Zloc({self.p})")
        return 1 / Fraction(a)

    def parse(self, text):
        return self._check(Fraction(text))

    def normalize_pivot(self, row):
        a = row[0][1]
        u = a / self.p ** self.valuation(a)
        return row if u == 1 else [(c, x * (1 / u)) for c, x in row]

    def divmod_pivot(self, a, pivot):
        m = pivot.numerator
        r = Fraction(a.numerator * pow(a.denominator, -1, m) % m)
        return (a - r) / pivot, r

    def det(self, M):
        return FractionQ().det(M)


FRACTION_PAIRS = [(QQ, FractionQ()), (LocalizedIntegers(2), FractionZloc(2)),
                  (LocalizedIntegers(3), FractionZloc(3)),
                  (DualNumbers(QQ), DualNumbers(FractionQ()))]


def all_fractions(R, x):
    """x, an element, row or matrix of R, with every Q entry a Fraction."""
    if isinstance(x, list):
        return [all_fractions(R, y) for y in x]
    if isinstance(R, DualNumbers):
        return (Fraction(x[0]), Fraction(x[1]))
    return Fraction(x)


def exact(x):
    """Whether no entry of x is a float."""
    if isinstance(x, (list, tuple)):
        return all(exact(y) for y in x)
    return isinstance(x, (int, Fraction))


def int_where_integral(R, x):
    """Whether each integral Q entry of the element x is an int."""
    parts = x if isinstance(R, DualNumbers) else (x,)
    return all(type(a) is int for a in parts if Fraction(a).denominator == 1)


def same(got, want):
    assert got == want and exact(got), (got, want)


def test_integral_elements_are_ints_and_match_the_fraction_reference():
    """Over Q, Zloc(2), Zloc(3) and Dual(Q), on inputs that mix ints,
    Fractions and integral Fractions such as Fraction(4, 2): arithmetic,
    inv, parse, the canonical-form hooks, det and roots equal the
    all-Fraction reference, and no result is a float.  from_int, zero,
    one, parse, roots and (over Q and Zloc) inv give an int wherever the
    value is integral, and divmod_pivot's remainder over Zloc is an int."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    settings = hyp.settings(max_examples=150, deadline=None, derandomize=True,
                            database=None)
    numerators = st.integers(-40, 40)

    def rationals(R):
        """ints, Fractions and integral Fractions of R."""
        p = getattr(R, "p", 0)
        dens = [d for d in range(1, 13) if not p or d % p]
        return (numerators
                | st.builds(Fraction, numerators, st.sampled_from(dens))
                | st.builds(lambda n, k: Fraction(n * k, k), numerators,
                            st.integers(1, 6)))

    def elements(R):
        if isinstance(R, DualNumbers):
            return st.tuples(rationals(R.base), rationals(R.base))
        return rationals(R)

    def literals(R):
        """Element literals of R, reduced or not, some outside Zloc(p)."""
        one = st.one_of(st.builds("{}".format, numerators),
                        st.builds("{}/{}".format, numerators, st.integers(1, 12)))
        if isinstance(R, DualNumbers):
            return one | st.builds("({})+eps*({})".format, one, one)
        return one

    def parsed(R, text):
        try:
            return R.parse(text)
        except RingError:
            return RingError

    @settings
    @hyp.given(st.sampled_from(FRACTION_PAIRS), st.data())
    def check(pair, data):
        R, ref = pair
        a, b = data.draw(elements(R)), data.draw(elements(R))
        fa, fb = all_fractions(R, a), all_fractions(R, b)
        same(R.add(a, b), ref.add(fa, fb))
        same(R.sub(a, b), ref.sub(fa, fb))
        same(R.mul(a, b), ref.mul(fa, fb))
        same(R.neg(a), ref.neg(fa))
        assert R.is_unit(a) == ref.is_unit(fa)
        if R.is_unit(a):
            same(R.inv(a), ref.inv(fa))
            if not isinstance(R, DualNumbers):
                assert int_where_integral(R, R.inv(a))
        n = data.draw(numerators)
        for got, want in ((R.zero, ref.zero), (R.one, ref.one),
                          (R.from_int(n), ref.from_int(n))):
            same(got, want)
            assert int_where_integral(R, got)
        text = data.draw(literals(R))
        got = parsed(R, text)
        assert got == parsed(ref, text)
        assert got is RingError or exact(got) and int_where_integral(R, got)

        row = data.draw(st.lists(elements(R), min_size=1, max_size=4))
        row = [(c, x) for c, x in enumerate(row) if R.nonzero(x)]
        if row:
            got = R.normalize_pivot(row)
            want = ref.normalize_pivot([(c, all_fractions(R, x)) for c, x in row])
            same([x for _, x in got], [x for _, x in want])
            assert [c for c, _ in got] == [c for c, _ in row]
            pivot = got[0][1]
            q, r = R.divmod_pivot(a, pivot)
            same((q, r), ref.divmod_pivot(fa, all_fractions(R, pivot)))
            if isinstance(R, LocalizedIntegers):
                assert type(r) is int

        n = data.draw(st.integers(1, 3))
        M = data.draw(st.lists(st.lists(elements(R), min_size=n, max_size=n),
                               min_size=n, max_size=n))
        same(R.det(M), ref.det(all_fractions(R, M)))

        if R is QQ:
            coeffs = data.draw(st.lists(elements(R), max_size=5))
            got = R.roots(coeffs)
            same(got, ref.roots(all_fractions(R, coeffs)))
            assert all(int_where_integral(R, x) for x in got)

    check()
