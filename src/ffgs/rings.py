"""Exact base rings: Q, GF(p), GF(p^k), Z/n, Z localized at p, dual numbers.

Elements use canonical encodings so that ``==`` decides equality:
  Q, Zloc(p)   -> fractions.Fraction (reduced; Zloc denominators coprime to p)
  GF(p), Z/n   -> int in range(modulus)
  GF(p^k)      -> tuple of k ints, coefficient of x^i at index i
  Dual(F)      -> pair (a, b) of F-elements, meaning a + b*eps, eps^2 = 0
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd


# Miller-Rabin with the prime bases 2..41 is proven to decide every n below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017); above it
# is_prime refuses to answer.
MAX_PRIME_TEST = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; RingError for n >= MAX_PRIME_TEST."""
    if n < 2:
        return False
    if n >= MAX_PRIME_TEST:
        raise RingError(f"cannot decide whether {n} is prime: the bound is "
                        f"{MAX_PRIME_TEST}")
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, increasing.  Trial division takes
    the primes below 100; Pollard-Brent rho splits what is left until
    is_prime accepts each part (RingError at and above MAX_PRIME_TEST)."""
    out, d = [], 2
    while d * d <= n and d < 100:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    parts = [n] if n > 1 else []
    while parts:
        x = parts.pop()
        if x < d * d or is_prime(x):  # x has no prime factor below d
            out.append(x)
        else:
            f = _rho_factor(x)
            parts += [f, x // f]
    return sorted(set(out))


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n with no prime factor below 100:
    Pollard's rho on y^2 + c with Brent's cycle search (BIT 20, 1980),
    trying c = 1, 2, ... in turn."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


class RingError(ValueError):
    pass


def _element_text(text) -> str:
    """An element literal, stripped; RingError if it is not a string."""
    if not isinstance(text, str):
        raise RingError(f"malformed element {text!r}")
    return text.strip()


def _parse_number(convert, text):
    """convert(text), with malformed text raised as RingError."""
    try:
        return convert(_element_text(text))
    except (ValueError, ZeroDivisionError):
        raise RingError(f"malformed element {text!r}") from None


class Ring:
    """Common interface of all base rings.  Instances are immutable."""

    is_field = False
    is_finite = False

    # The zero test hot loops bind to a local name.  bool serves every
    # family whose zero is falsy; a ring with a truthy zero overrides it.
    nonzero = bool

    # -- arithmetic ----------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def char(self) -> int:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------
    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = self.one
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def dot(self, xs, ys):
        nonzero, add, mul = self.nonzero, self.add, self.mul
        acc = self.zero
        for x, y in zip(xs, ys):
            if nonzero(x) and nonzero(y):
                acc = add(acc, mul(x, y))
        return acc

    def elements(self):
        """Deterministic iteration over all elements (finite rings only)."""
        raise RingError(f"{self.name()} is not finite")

    def size(self) -> int:
        """Number of elements (finite rings only)."""
        raise RingError(f"{self.name()} is not finite")

    # -- canonical forms -----------------------------------------------
    # The hooks linalg.echelon builds canonical row bases from.  The
    # defaults are those of a field (reduced row echelon form); the other
    # families override what their canonical form needs.
    def normalize_pivot(self, row, col):
        """row scaled by a unit so that row[col] is the canonical pivot."""
        u = self.inv(row[col])
        return [self.mul(u, x) for x in row]

    def divmod_pivot(self, a, pivot):
        """(q, r) with a = q*pivot + r and r the canonical remainder; the
        pivot divides a exactly when r is zero."""
        return self.mul(a, self.inv(pivot)), self.zero

    def row_sub(self, row, q, piv):
        """row - q*piv."""
        return [self.sub(x, self.mul(q, y)) for x, y in zip(row, piv)]

    def merge_pivot(self, piv, row, col):
        """For a row whose entry at col the pivot does not divide:
        (new pivot, rest, deferred), together spanning what piv and row
        span.  rest is reduced next; deferred rows join the back of the
        queue.  Never reached over a field.  This default serves chain
        rings, where row[col] then has the lower valuation: the row takes
        the pivot's place and the old pivot is deferred."""
        return row, [self.zero] * len(row), [piv]

    def annihilator(self, piv, col):
        """A row of the span that a new pivot row adds to the work queue,
        killing its pivot entry (Howell closure), or None."""
        return None

    def det(self, M):
        """Determinant of a square matrix by Gaussian elimination (over a
        field; the other families override)."""
        A = [list(row) for row in M]
        n = len(A)
        d = self.one
        for k in range(n):
            piv = next((i for i in range(k, n) if self.nonzero(A[i][k])), None)
            if piv is None:
                return self.zero
            if piv != k:
                A[k], A[piv] = A[piv], A[k]
                d = self.neg(d)
            d = self.mul(d, A[k][k])
            inv = self.inv(A[k][k])
            for i in range(k + 1, n):
                if self.nonzero(A[i][k]):
                    A[i] = self.row_sub(A[i], self.mul(A[i][k], inv), A[k])
        return d

    def sort_key(self, a):
        raise NotImplementedError

    def name(self) -> str:
        raise NotImplementedError

    def show(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def __repr__(self):
        return self.name()

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class _Fractions(Ring):
    """The arithmetic Q and Zloc(p) share: elements are Fractions, so every
    operation is native."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def row_sub(self, row, q, piv):
        return [x - q * y if y else x for x, y in zip(row, piv)]

    def from_int(self, n):
        return Fraction(n)

    def char(self):
        return 0

    def sort_key(self, a):
        return (a.denominator, a.numerator)

    def show(self, a):
        return str(a)


class RationalField(_Fractions):
    is_field = True

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise RingError("division by zero in Q")
        return 1 / Fraction(a)

    def name(self):
        return "Q"

    def parse(self, text):
        return _parse_number(Fraction, text)


class _Residues(Ring):
    """The arithmetic GF(p) and Z/n share: elements are ints in range(n),
    reduced once per operation."""

    is_finite = True
    zero = 0
    one = 1

    def __init__(self, n: int):
        self.n = n

    def _key(self):
        return (self.n,)

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def row_sub(self, row, q, piv):
        n = self.n
        return [(x - q * y) % n for x, y in zip(row, piv)]

    def from_int(self, n):
        return n % self.n

    def char(self):
        return self.n

    def elements(self):
        return iter(range(self.n))

    def size(self):
        return self.n

    def sort_key(self, a):
        return a

    def show(self, a):
        return str(a)

    def parse(self, text):
        return _parse_number(int, text) % self.n


class PrimeField(_Residues):
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        super().__init__(p)
        self.p = p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise RingError("division by zero in GF(p)")
        return pow(a, -1, self.p)

    def name(self):
        return f"GF({self.p})"


# -- polynomial helpers over GF(p), coefficients low-degree-first --------

def _ptrim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _pmul_modp(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(_ptrim(out))


def _pmod_modp(a, m, p):
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    while len(a) > dm:
        c = (a[-1] * lead_inv) % p
        if c:
            off = len(a) - 1 - dm
            for i, y in enumerate(m):
                a[off + i] = (a[off + i] - c * y) % p
        a.pop()
    return tuple(_ptrim(a))


def _pgcd_modp(a, b, p):
    a, b = tuple(_ptrim(list(a))), tuple(_ptrim(list(b)))
    while b:
        a, b = b, _pmod_modp(a, b, p)
    if a:
        c = pow(a[-1], -1, p)
        a = tuple((x * c) % p for x in a)
    return a


def _ppowmod_modp(base, e, m, p):
    r = (1,)
    base = _pmod_modp(base, m, p)
    while e:
        if e & 1:
            r = _pmod_modp(_pmul_modp(r, base, p), m, p)
        base = _pmod_modp(_pmul_modp(base, base, p), m, p)
        e >>= 1
    return r


def poly_is_irreducible_modp(coeffs, p) -> bool:
    """coeffs low-degree-first over GF(p), must be monic of degree >= 1."""
    f = tuple(c % p for c in coeffs)
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    # x^(p^k) == x mod f, and gcd(x^(p^(k/l)) - x, f) == 1 for primes l | k
    x = (0, 1)
    if _ppowmod_modp(x, p ** k, f, p) != _pmod_modp(x, f, p):
        return False
    for ell in prime_factors(k):
        g = _ppowmod_modp(x, p ** (k // ell), f, p)
        diff = list(g) + [0] * (2 - len(g))
        diff[1] = (diff[1] - 1) % p
        d = _pgcd_modp(tuple(_ptrim(diff)), f, p)
        if len(d) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple:
    """First irreducible monic degree-k polynomial over GF(p) in lex order
    of (c_0, ..., c_{k-1}).  Deterministic; documented in the README.
    Searched once per (p, k) and process."""
    for lower in itertools.product(range(p), repeat=k):
        f = tuple(lower) + (1,)
        if poly_is_irreducible_modp(f, p):
            return f
    raise RingError("no irreducible polynomial found")  # pragma: no cover


# Largest GF(p^k) ffgs builds: its log tables hold q - 1 elements.
MAX_FIELD_ORDER = 1 << 16


@functools.lru_cache(maxsize=None)
def _log_tables(p: int, k: int, modulus: tuple):
    """(exp, log, zech) of GF(p)[x]/(modulus), built once per field.

    exp[i] = g^i for 0 <= i < q - 1, where g is the first primitive element
    by (degree, coefficients); log inverts exp on the nonzero elements; and
    zech[i] = log(1 + g^i), or None where 1 + g^i = 0 (Zech's logarithm,
    Lidl & Niederreiter, Finite Fields, ch. 2).  Python's negative indices
    reduce an exponent in (-(q - 1), q - 1) modulo q - 1."""
    n = p ** k - 1
    one = (1,)
    primes = prime_factors(n)
    candidates = (lower + (lead,) for d in range(k) for lead in range(1, p)
                  for lower in itertools.product(range(p), repeat=d))
    g = next(c for c in candidates
             if all(_ppowmod_modp(c, n // r, modulus, p) != one for r in primes))
    exp = [one]
    for _ in range(n - 1):
        exp.append(_pmod_modp(_pmul_modp(exp[-1], g, p), modulus, p))
    log = {a: i for i, a in enumerate(exp)}
    zech = [log.get(_ptrim(((a[0] + 1) % p,) + a[1:])) for a in exp]
    return exp, log, zech


class FiniteField(Ring):
    """GF(p^k) as GF(p)[x] / (modulus); elements are trimmed coefficient
    tuples.  mul and inv are one lookup in the field's log tables, add is
    three (Zech's logarithm)."""

    is_field = True
    is_finite = True

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        if p ** k > MAX_FIELD_ORDER:
            raise RingError(f"GF({p}^{k}) has more than {MAX_FIELD_ORDER} elements")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise RingError("modulus must be monic of degree k")
        if not poly_is_irreducible_modp(modulus, p):
            raise RingError("modulus polynomial is reducible mod p")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p ** k
        self.zero = ()
        self.one = (1,)

    def _key(self):
        return (self.p, self.k, self.modulus)

    @functools.cached_property
    def _tables(self):
        return _log_tables(self.p, self.k, self.modulus)

    def _pad(self, a):
        return tuple(a) + (0,) * (self.k - len(a))

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables
        i = log[a]
        z = zech[log[b] - i]  # a + b = g^i (1 + g^(j - i))
        return () if z is None else exp[i + z - len(exp)]

    def mul(self, a, b):
        if not (a and b):
            return ()
        exp, log, _ = self._tables
        return exp[log[a] + log[b] - len(exp)]

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def row_sub(self, row, q, piv):
        add, mul, nq = self.add, self.mul, self.neg(q)
        return [add(x, mul(nq, y)) if y else x for x, y in zip(row, piv)]

    def is_unit(self, a):
        return len(a) > 0

    def inv(self, a):
        if not a:
            raise RingError("division by zero in finite field")
        exp, log, _ = self._tables
        return exp[-log[a]]

    def from_int(self, n):
        n %= self.p
        return (n,) if n else ()

    def char(self):
        return self.p

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.k):
            yield tuple(_ptrim(list(tup)))

    def size(self):
        return self.q

    def sort_key(self, a):
        return self._pad(a)

    def name(self):
        return f"GF({self.p}^{self.k};{self.show_poly(self.modulus)})"

    @staticmethod
    def show_poly(coeffs) -> str:
        terms = []
        for e in range(len(coeffs) - 1, -1, -1):
            c = coeffs[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
        return "+".join(terms) if terms else "0"

    def show(self, a):
        return self.show_poly(a)

    def parse(self, text):
        return _pmod_modp(parse_poly_modp(text, self.p), self.modulus, self.p)


def parse_poly_modp(text: str, p: int) -> tuple:
    """Parse e.g. 'x^2+2*x+1' into low-degree-first coeffs mod p."""
    s = _element_text(text)
    if re.search(r"[\dx]\s+[\dx]", s):  # "1 2" is not 12
        raise RingError(f"space inside a polynomial term in {s[:20]!r}")
    s = s.replace(" ", "").replace("-", "+-")
    if not s:
        raise RingError("empty polynomial literal")
    terms = s.split("+")
    if len(terms) > 1 and not terms[0]:  # a leading sign
        del terms[0]
    coeffs: dict[int, int] = {}
    for term in terms:
        m = re.fullmatch(r"(-?)(\d+)?\*?(x(\^(\d+))?)?", term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise RingError(f"bad polynomial term {term!r}")
        try:
            c = int(m.group(1) + (m.group(2) or "1"))
            e = int(m.group(5)) if m.group(5) is not None else int(bool(m.group(3)))
        except ValueError:  # more digits than int() converts
            raise RingError(f"bad polynomial term {term[:20]!r}...") from None
        # the coefficient list below has e + 1 entries
        if e > MAX_FIELD_ORDER:
            raise RingError(f"polynomial exponent above {MAX_FIELD_ORDER}")
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    deg = max(coeffs)
    return tuple(_ptrim([coeffs.get(i, 0) for i in range(deg + 1)]))


class IntegersMod(_Residues):
    def __init__(self, n: int):
        if n < 2:
            raise RingError("Z/n requires n >= 2")
        super().__init__(n)
        self.is_field = is_prime(n)

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def inv(self, a):
        if gcd(a, self.n) != 1:
            raise RingError(f"{a} is not a unit in Z/{self.n}")
        return pow(a, -1, self.n)

    def name(self):
        return f"Z/{self.n}"

    # Howell form: pivots are divisors of n, entries above a pivot d are
    # reduced into range(d), and every pivot row's annihilator is queued.
    def normalize_pivot(self, row, col):
        """Scale by the least unit w with w * g = d, for g = row[col] and
        d = gcd(g, n).

        The solutions in range(n) are w0 + t n/d, t < d, for
        w0 = (g/d)^-1 mod n/d; units mod n map onto units mod n/d, so one
        of them is a unit."""
        n = self.n
        g = row[col]
        d = gcd(g, n)
        w = next(w for w in range(pow(g // d, -1, n // d), n, n // d)
                 if gcd(w, n) == 1)
        return [w * x % n for x in row]

    def divmod_pivot(self, a, pivot):
        q = a // pivot
        return q, a - q * pivot

    def merge_pivot(self, piv, row, col):
        """gcd combination: the new pivot entry is gcd(piv[col], row[col])."""
        n = self.n
        d = piv[col]
        row = self.row_sub(row, row[col] // d, piv)
        r = row[col]
        g, u, v = xgcd(d, r)
        return ([(u * x + v * y) % n for x, y in zip(piv, row)],
                [((d // g) * y - (r // g) * x) % n for x, y in zip(piv, row)],
                [])

    def annihilator(self, piv, col):
        d = gcd(piv[col], self.n)
        if d == 1:
            return None
        n = self.n
        return [(n // d) * x % n for x in piv]

    def det(self, M):
        """The Q determinant of the integer lifts, reduced mod n."""
        d = QQ.det([[Fraction(x) for x in row] for row in M])
        return int(d) % self.n


class LocalizedIntegers(_Fractions):
    """Z localized at p: fractions with denominator coprime to p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        self.p = p

    def _key(self):
        return (self.p,)

    def _check(self, a):
        if a.denominator % self.p == 0:
            raise RingError(f"{a} is not in Zloc({self.p})")
        return a

    def is_unit(self, a):
        return a != 0 and a.numerator % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit in Zloc({self.p})")
        return 1 / a

    def valuation(self, a) -> int:
        if a == 0:
            raise RingError("valuation of zero")
        v = 0
        num = a.numerator
        while num % self.p == 0:
            num //= self.p
            v += 1
        return v

    def name(self):
        return f"Zloc({self.p})"

    def parse(self, text):
        return self._check(_parse_number(Fraction, text))

    # Staircase form: pivots p^v, entries above a pivot p^v reduced to
    # their integer residue in range(p^v).
    def normalize_pivot(self, row, col):
        u = row[col] / self.p ** self.valuation(row[col])
        ui = 1 / u
        return [x * ui for x in row]

    def divmod_pivot(self, a, pivot):
        m = pivot.numerator  # the pivot is p^v
        r = Fraction(a.numerator * pow(a.denominator, -1, m) % m)
        return (a - r) / pivot, r

    def det(self, M):
        return QQ.det(M)


class DualNumbers(Ring):
    """F[eps]/(eps^2) over a field F; elements are pairs (a, b) = a + b*eps."""

    def __init__(self, base: Ring):
        if not base.is_field:
            raise RingError("dual numbers are supported over fields only")
        self.base = base
        self.is_finite = base.is_finite
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def _key(self):
        return (self.base,)

    def nonzero(self, a):
        return a != self.zero  # the pair (0, 0) is truthy

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def mul(self, a, b):
        F = self.base
        return (F.mul(a[0], b[0]), F.add(F.mul(a[0], b[1]), F.mul(a[1], b[0])))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def is_unit(self, a):
        return self.base.is_unit(a[0])

    def inv(self, a):
        F = self.base
        ai = F.inv(a[0])
        return (ai, F.neg(F.mul(F.mul(ai, ai), a[1])))

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero)

    def char(self):
        return self.base.char()

    def elements(self):
        for a in self.base.elements():
            for b in self.base.elements():
                yield (a, b)

    def size(self):
        return self.base.size() ** 2

    # Staircase form of a chain ring: pivots 1 or eps, and an eps pivot
    # row queues eps times itself.
    def normalize_pivot(self, row, col):
        F = self.base
        a, b = row[col]
        if F.nonzero(a):
            return super().normalize_pivot(row, col)
        u = (F.inv(b), F.zero)  # makes the pivot exactly eps
        return [self.mul(u, x) for x in row]

    def divmod_pivot(self, a, pivot):
        if self.base.nonzero(pivot[0]):
            return super().divmod_pivot(a, pivot)
        # the pivot is eps: a0 + a1 eps = (a1, 0) * eps + (a0, 0)
        z = self.base.zero
        return (a[1], z), (a[0], z)

    def annihilator(self, piv, col):
        F = self.base
        if F.nonzero(piv[col][0]):
            return None
        eps = (F.zero, F.one)
        return [self.mul(eps, x) for x in piv]

    def det(self, M):
        """det(A0 + eps A1) = det A0 + eps sum_i det(A0, row i from A1)."""
        F = self.base
        A0 = [[x[0] for x in row] for row in M]
        A1 = [[x[1] for x in row] for row in M]
        eps_part = F.zero
        for i in range(len(M)):
            eps_part = F.add(eps_part, F.det(A0[:i] + [A1[i]] + A0[i + 1:]))
        return (F.det(A0), eps_part)

    def sort_key(self, a):
        return (self.base.sort_key(a[0]), self.base.sort_key(a[1]))

    def name(self):
        return f"Dual({self.base.name()})"

    def show(self, a):
        x, y = self.base.show(a[0]), self.base.show(a[1])
        if not self.base.nonzero(a[1]):
            return x
        if ("+" in x or "-" in x[1:]) and not x.startswith("("):
            x = f"({x})"
        if "+" in y or "-" in y[1:]:
            y = f"({y})"
        return f"{x}+eps*{y}"

    def parse(self, text):
        s = _element_text(text)
        # split at a top-level '+eps*'
        depth = 0
        for i in range(len(s)):
            c = s[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 0 and s.startswith("+eps*", i):
                a, b = s[:i], s[i + 5:]
                return (self._parse_part(a), self._parse_part(b))
        if s.startswith("eps*"):
            return (self.base.zero, self._parse_part(s[4:]))
        return (self._parse_part(s), self.base.zero)

    def _parse_part(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        return self.base.parse(s)


QQ = RationalField()


_RING_GRAMMAR = re.compile(
    r"Q|GF\(\d+(\^\d+;[^()]*)?\)|Z/\d+|Zloc\(\d+\)|Dual\(.*\)"
)


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec string: Q | GF(p) | GF(p^k;<monic poly>) | Z/n |
    Zloc(p) | Dual(<field spec>)."""
    s = spec.strip()
    if s == "Q":
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", s)
    if m:
        return PrimeField(int(m.group(1)))
    m = re.fullmatch(r"GF\((\d+)\^(\d+);([^()]+)\)", s)
    if m:
        p, k = int(m.group(1)), int(m.group(2))
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        modulus = parse_poly_modp(m.group(3), p)
        return FiniteField(p, k, modulus)
    m = re.fullmatch(r"GF\((\d+)\^(\d+)\)", s)
    if m:
        raise RingError("GF(p^k) needs an explicit modulus: GF(p^k;<poly>)")
    m = re.fullmatch(r"Z/(\d+)", s)
    if m:
        return IntegersMod(int(m.group(1)))
    m = re.fullmatch(r"Zloc\((\d+)\)", s)
    if m:
        return LocalizedIntegers(int(m.group(1)))
    m = re.fullmatch(r"Dual\((.*)\)", s)
    if m:
        # Dual(R) is no field: refuse it unparsed, or deep nesting recurses
        if re.match(r"\s*Dual\(", m.group(1)):
            raise RingError("dual numbers are supported over fields only")
        return DualNumbers(parse_ring(m.group(1)))
    raise RingError(f"malformed ring spec {spec!r}")


def gf(p: int, k: int = 1) -> Ring:
    """GF(p^k) with the deterministic default modulus (internal helper)."""
    if k == 1:
        return PrimeField(p)
    return FiniteField(p, k, default_modulus(p, k))


# ----------------------------------------------------------------------
# Ring homomorphisms


@dataclass(frozen=True)
class RingHom:
    source: Ring
    target: Ring
    fn: object
    description: str

    def __call__(self, a):
        return self.fn(a)

    def then(self, other: "RingHom") -> "RingHom":
        assert self.target == other.source
        return RingHom(
            self.source,
            other.target,
            lambda a: other.fn(self.fn(a)),
            f"{self.description}; {other.description}",
        )


def identity_hom(R: Ring) -> RingHom:
    return RingHom(R, R, lambda a: a, "id")


def _direct_hom(R: Ring, S: Ring) -> RingHom | None:
    if R == S:
        return identity_hom(R)
    if isinstance(R, LocalizedIntegers):
        if isinstance(S, RationalField):
            return RingHom(R, S, lambda a: a, "fraction-field inclusion")
        if isinstance(S, PrimeField) and S.p == R.p:
            p = R.p
            return RingHom(
                R, S, lambda a: (a.numerator * pow(a.denominator, -1, p)) % p,
                f"residue mod {p}",
            )
        if isinstance(S, IntegersMod) and prime_factors(S.n) == [R.p]:
            n = S.n
            return RingHom(
                R, S, lambda a: (a.numerator * pow(a.denominator, -1, n)) % n,
                f"residue mod {n}",
            )
    if isinstance(R, IntegersMod):
        if isinstance(S, IntegersMod) and R.n % S.n == 0:
            return RingHom(R, S, lambda a: a % S.n, f"quotient mod {S.n}")
        if isinstance(S, PrimeField) and R.n % S.p == 0:
            return RingHom(R, S, lambda a: a % S.p, f"quotient mod {S.p}")
    if isinstance(R, PrimeField):
        if isinstance(S, FiniteField) and S.p == R.p:
            return RingHom(R, S, lambda a: (a,) if a else (), "prime-field inclusion")
    if isinstance(R, FiniteField) and isinstance(S, FiniteField):
        if S.p == R.p and S.k % R.k == 0:
            # the first root of R's modulus in S, in S's element order
            root = next((x for x in S.elements()
                         if not S.nonzero(_poly_at(S, R.modulus, x))), None)
            if root is not None:
                return RingHom(R, S, lambda a: _poly_at(S, a, root), "field extension")
    if isinstance(S, DualNumbers) and S.base == R:
        return RingHom(R, S, lambda a: (a, R.zero), "dual-numbers inclusion")
    if isinstance(R, DualNumbers) and R.base == S:
        return RingHom(R, S, lambda a: a[0], "eps -> 0")
    return None


def _poly_at(S: Ring, coeffs, x):
    """The polynomial with integer coefficients coeffs, low degree first,
    at x in S."""
    acc, power = S.zero, S.one
    for c in coeffs:
        if c:
            acc = S.add(acc, S.mul(S.from_int(c), power))
        power = S.mul(power, x)
    return acc


def find_hom(R: Ring, S: Ring) -> RingHom | None:
    """A supported ring homomorphism R -> S (residue maps, fraction-field
    inclusion, field extensions, dual-numbers maps, and their composites),
    or None."""
    h = _direct_hom(R, S)
    if h is not None:
        return h
    # composites through an intermediate residue field / prime field
    mids: list[Ring] = []
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
        first = _direct_hom(R, mid) or find_hom(R, mid)
        if first is None:
            continue
        rest = _direct_hom(mid, S) or find_hom(mid, S)
        if rest is not None:
            return first.then(rest)
    return None


def hom_preimage(hom: RingHom, b):
    """Pull an element of hom's target back along an injective hom between
    finite fields (or trivial cases); None if b is not in the image.

    No ffgs code calls it; bench/tracer.py still wraps it by name."""
    R = hom.source
    if not R.is_finite:
        raise RingError("preimage search needs a finite source")
    for a in R.elements():
        if hom(a) == b:
            return a
    return None


# ----------------------------------------------------------------------
# Spectra


@dataclass
class SpectrumPoint:
    id: str
    residue_field: Ring
    specializations: list = field(default_factory=list)
    residue_hom: RingHom | None = None


def spectrum(R: Ring) -> list[SpectrumPoint]:
    """The points of Spec R with residue fields and specialization order."""
    if isinstance(R, (RationalField, PrimeField, FiniteField)):
        return [SpectrumPoint("pt", R, [], identity_hom(R))]
    if isinstance(R, DualNumbers):
        return [SpectrumPoint("pt", R.base, [], _direct_hom(R, R.base))]
    if isinstance(R, IntegersMod):
        pts = []
        for p in prime_factors(R.n):
            k = PrimeField(p)
            pts.append(SpectrumPoint(f"p{p}", k, [], _direct_hom(R, k)))
        return pts
    if isinstance(R, LocalizedIntegers):
        closed = SpectrumPoint(
            "closed", PrimeField(R.p), [], _direct_hom(R, PrimeField(R.p))
        )
        generic = SpectrumPoint("generic", QQ, ["closed"], _direct_hom(R, QQ))
        return [generic, closed]
    raise RingError(f"no spectrum description for {R.name()}")
