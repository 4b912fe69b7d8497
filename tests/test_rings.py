import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from ffgs.rings import (
    MAX_FIELD_ORDER,
    MAX_PRIME_TEST,
    DualNumbers,
    FiniteField,
    IntegersMod,
    LocalizedIntegers,
    PrimeField,
    QQ,
    Ring,
    RingError,
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
            assert R.normalize_pivot([g, 1, n - 1], 0) == \
                [w * g % n, w, w * (n - 1) % n], (n, g)


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
    for q in sample(R, rng, 10) + [R.zero]:
        row, piv = sample(R, rng, 6), sample(R, rng, 5) + [R.zero]
        want = [R.add(x, R.neg(R.mul(q, y))) for x, y in zip(row, piv)]
        assert R.row_sub(row, q, piv) == want
        assert Ring.row_sub(R, row, q, piv) == want


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
