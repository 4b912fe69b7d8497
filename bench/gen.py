"""Seeded inputs for the benchmark, built without the code under test.

Structure tensors are written from their textbook definitions with plain
Python integers and only reduced when serialised, so the generated scheme
files do not depend on ffgs.  ffgs only ever sees the argv lists and the
files this module writes.

Tensor layout matches the scheme JSON that ffgs reads:
  mult[i][j][k]   coefficient of e_k in e_i * e_j
  unit[k]         coefficient of e_k in 1
  comult[i][j][k] coefficient of e_j (x) e_k in Delta(e_i)
  counit[i]       epsilon(e_i)
  antipode[i][k]  coefficient of e_k in S(e_i)
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def s3_table():
    """S3 as permutations of {0,1,2}; row p, column q holds p after q."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
            for p in perms]


def relabel(table, rng):
    """The same group with its elements renamed by a seeded permutation."""
    n = len(table)
    pi = list(range(n))
    rng.shuffle(pi)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


def _e(n, i):
    return [1 if j == i else 0 for j in range(n)]


def mu_tensors(n):
    """mu_n: R[x]/(x^n - 1), basis x^i, x^i grouplike, S(x^i) = x^-i."""
    return {
        "rank": n,
        "mult": [[_e(n, (i + j) % n) for j in range(n)] for i in range(n)],
        "unit": _e(n, 0),
        "comult": [[[1 if j == k == i else 0 for k in range(n)]
                    for j in range(n)] for i in range(n)],
        "counit": [1] * n,
        "antipode": [_e(n, (-i) % n) for i in range(n)],
    }


def constant_tensors(table):
    """Functions on a finite group, basis the indicator functions e_g."""
    n = len(table)
    ident = next(e for e in range(n)
                 if all(table[e][x] == x == table[x][e] for x in range(n)))
    inverse = [next(h for h in range(n) if table[g][h] == ident)
               for g in range(n)]
    return {
        "rank": n,
        "mult": [[[1 if i == j == k else 0 for k in range(n)]
                  for j in range(n)] for i in range(n)],
        "unit": [1] * n,
        "comult": [[[1 if table[h][hp] == g else 0 for hp in range(n)]
                    for h in range(n)] for g in range(n)],
        "counit": _e(n, ident),
        "antipode": [_e(n, inverse[g]) for g in range(n)],
    }


def unitriangular(m, rng):
    """Upper unitriangular integer matrix with every entry above the
    diagonal drawn from {-2, -1, 1, 2}, and its exact integer inverse."""
    P = [[1 if j == i else (rng.choice((-2, -1, 1, 2)) if j > i else 0)
          for j in range(m)] for i in range(m)]
    Q = [[0] * m for _ in range(m)]
    for j in range(m):
        Q[j][j] = 1
        for i in range(j - 1, -1, -1):
            Q[i][j] = -sum(P[i][k] * Q[k][j] for k in range(i + 1, j + 1))
    return P, Q


def permute(t, sigma):
    """The same tensors with basis vector sigma[i] renamed i."""
    m = t["rank"]
    R = range(m)
    return {
        "rank": m,
        "mult": [[[t["mult"][sigma[i]][sigma[j]][sigma[k]] for k in R] for j in R] for i in R],
        "unit": [t["unit"][sigma[k]] for k in R],
        "comult": [[[t["comult"][sigma[i]][sigma[j]][sigma[k]] for k in R] for j in R]
                   for i in R],
        "counit": [t["counit"][sigma[i]] for i in R],
        "antipode": [[t["antipode"][sigma[i]][sigma[k]] for k in R] for i in R],
    }


def rebase(t, P, Q):
    """Structure tensors in the basis f_i = sum_a P[i][a] e_a.

    P and Q = P^-1 are integer matrices, so the result is the same Hopf
    algebra over every base ring, with dense tensors."""
    m = t["rank"]
    R = range(m)

    def to_f(vec):  # coordinates in e  ->  coordinates in f
        return [sum(vec[c] * Q[c][d] for c in R) for d in R]

    def comb(rows, i):  # sum_a P[i][a] rows[a]
        return [sum(P[i][a] * rows[a][c] for a in R) for c in range(len(rows[0]))]

    # e-coordinates of f_i * e_b, then of f_i * f_j
    left = [[comb([t["mult"][a][b] for a in R], i) for b in R] for i in R]
    mult = [[to_f(comb([left[i][b] for b in R], j)) for j in R] for i in R]
    comult = []
    for i in R:
        D = [[sum(P[i][a] * t["comult"][a][b][c] for a in R) for c in R]
             for b in R]
        half = [[sum(D[b][c] * Q[c][e] for c in R) for e in R] for b in R]
        comult.append([[sum(Q[b][d] * half[b][e] for b in R) for e in R]
                       for d in R])
    return {
        "rank": m,
        "mult": mult,
        "unit": to_f(t["unit"]),
        "comult": comult,
        "counit": [sum(P[i][a] * t["counit"][a] for a in R) for i in R],
        "antipode": [to_f(comb(t["antipode"], i)) for i in R],
    }


def modulus(base):
    """n when every integer entry is stored reduced mod n, else None."""
    m = re.fullmatch(r"GF\((\d+)\)|Z/(\d+)|Dual\(GF\((\d+)\)\)", base)
    if m:
        return int(next(g for g in m.groups() if g))
    if base == "Q" or re.fullmatch(r"Zloc\(\d+\)", base):
        return None
    raise ValueError(f"no integer serialisation for {base}")


def serialise(t, base):
    """Scheme JSON dict with every entry as the string ffgs prints."""
    n = modulus(base)

    def s(x):
        return str(x % n if n else x)

    def walk(v):
        return [walk(x) for x in v] if isinstance(v, list) else s(v)

    d = {"base": base, "rank": t["rank"]}
    for key in ("mult", "unit", "comult", "counit", "antipode"):
        d[key] = walk(t[key])
    return d


def corrupt(d, slot, rng):
    """Copy of scheme dict d with one entry of slot ('counit' or
    'antipode') raised by one, at a seeded position."""
    n = modulus(d["base"])
    out = json.loads(json.dumps(d))
    if slot == "counit":
        vec, k = out["counit"], rng.randrange(d["rank"])
    else:
        vec, k = out["antipode"][rng.randrange(d["rank"])], rng.randrange(d["rank"])
    x = int(vec[k]) + 1
    vec[k] = str(x % n if n else x)
    return out


def zero_product_unit(d):
    """True when two nonzero unit coordinates multiply to zero in the base,
    the input class on which the known bialgebra-unit defect shows."""
    n = modulus(d["base"])
    if not n:
        return False
    u = [int(x) for x in d["unit"] if int(x) % n]
    return any(a * b % n == 0 for a in u for b in u)


def dual_dict(d):
    """Cartier dual by definition: the dual basis swaps mult and comult,
    unit and counit, and transposes the antipode."""
    m = range(d["rank"])
    return {
        "base": d["base"],
        "rank": d["rank"],
        "mult": [[[d["comult"][k][i][j] for k in m] for j in m] for i in m],
        "unit": list(d["counit"]),
        "comult": [[[d["mult"][j][k][i] for k in m] for j in m] for i in m],
        "counit": list(d["unit"]),
        "antipode": [[d["antipode"][j][i] for j in m] for i in m],
    }


def rng_for(seed, *labels):
    """Independent stream per (seed, label) so adding a task does not
    shift the inputs of the others."""
    return random.Random("/".join([str(seed), *map(str, labels)]))


def alpha_tensors(p):
    """alpha_p: R[x]/(x^p), x primitive, S(x^i) = (-1)^i x^i."""
    comult = [[[math.comb(i, j) if j + k == i else 0 for k in range(p)]
               for j in range(p)] for i in range(p)]
    return {
        "rank": p,
        "mult": [[_e(p, i + j) if i + j < p else [0] * p for j in range(p)]
                 for i in range(p)],
        "unit": _e(p, 0),
        "comult": comult,
        "counit": _e(p, 0),
        "antipode": [[(-1) ** i if k == i else 0 for k in range(p)]
                     for i in range(p)],
    }


def ot2_tensors(a, b):
    """Tate-Oort order 2: R[x]/(x^2 - a x), Delta x = x(x)1 + 1(x)x + b x(x)x."""
    return {
        "rank": 2,
        "mult": [[[1, 0], [0, 1]], [[0, 1], [0, a]]],
        "unit": [1, 0],
        "comult": [[[1, 0], [0, 0]], [[0, 1], [1, b]]],
        "counit": [1, 0],
        "antipode": [[1, 0], [0, 1]],
    }
