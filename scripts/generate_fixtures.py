#!/usr/bin/env python3
"""Generate the newform coefficient fixtures under fixtures/ from scratch.

This is a standalone oracle script: it recomputes Hecke eigenvalue data with
modular symbols for Gamma0(N) (Stein, "Modular Forms: A Computational
Approach", chapter 8) and writes the fixture JSON files the test suite and
CLI examples consume. It shares no code with the installed package, so the
two implementations can only agree by both being right.

Every fixture is cross-checked before it is written:
  * printed eigenvalues for the weight-6 level-81 quartic orbit, the
    weight-4 level-11 quadratic orbit and a_2, ..., a_19 of the weight-2
    level-45 and level-50 curves are asserted exactly;
  * the weight-2 level-11 form is asserted equal, coefficient by
    coefficient, to the eta-product q prod (1-q^n)^2 (1-q^(11n))^2;
  * Deligne bounds |a_p| <= 2 p^((k-1)/2) are checked at every embedding;
  * coordinate denominators must be supported on {2, 3}.

Run:  python3 scripts/generate_fixtures.py [--out DIR]
"""

import argparse
import json
import math
import os
from collections import defaultdict
from fractions import Fraction
from math import comb

import mpmath

F0 = Fraction(0)
F1 = Fraction(1)


def gcdex(a, b):
    """Return a tuple (x, y, g) where g = gcd(a, b) and a*x + b*y == g."""
    if b == 0:
        if a < 0:
            return -1, 0, -a
        return 1, 0, a
    q, r = divmod(a, b)
    x, y, g = gcdex(b, r)
    return y, x - y * q, g


def lift_ZmodnZ_star(n, d, a):
    """Given a divisor d of n and a unit a modulo d, lift a to a unit modulo n."""
    u, v = 1, n
    g = math.gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = math.gcd(v, g)
    x, y, _ = gcdex(u, v)
    return (u * x + a * y * v) % n


class P1:
    """Projective line over Z/NZ (Stein, Algorithms 8.29 and 8.32)."""

    def __init__(self, N):
        assert isinstance(N, int) and N >= 1
        self.N = N
        tmp = set()
        for u in range(N):
            for v in range(N):
                try:
                    tmp.add(self.reduce((u, v)))
                except ValueError:
                    continue
        self._list = sorted(tmp)
        self._index = {p: i for i, p in enumerate(self._list)}

    def __len__(self):
        return len(self._list)

    def __iter__(self):
        return iter(self._list)

    def reduce(self, p):
        """Compute the canonical form of a pair p (Stein, Algorithm 8.29)."""
        N = self.N
        u, v = p
        u %= N
        v %= N
        if u == 0:
            if math.gcd(N, v) == 1:
                return 0, 1
            raise ValueError
        _, s, g = gcdex(N, u)
        if math.gcd(g, v) > 1:
            raise ValueError
        s = lift_ZmodnZ_star(N, N // g, s)
        u, v = g, (s * v) % N
        if g == 1:
            return 1, v
        v = min((v * t) % N for t in range(1, N, N // g) if math.gcd(N, t) == 1)
        return g, v

    def index(self, p):
        return self._index[self.reduce(p)]


def sparse_rref(rows, ncols):
    """Exact reduced row echelon form of a sparse system over Q.

    rows is an iterable of {col: Fraction} dicts, each encoding one relation
    sum(coef * x_col) == 0. Returns (pivots, free) where pivots maps each
    pivot column c to {free_col: coef} with x_c == -sum(coef * x_free), and
    free is the sorted tuple of non-pivot columns.
    """
    pivots = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            coef = r.pop(c)
            if c in pivots:
                for cc, vv in pivots[c].items():
                    nv = r.get(cc, F0) - coef * vv
                    if nv:
                        r[cc] = nv
                    elif cc in r:
                        del r[cc]
            else:
                pivots[c] = {cc: vv / coef for cc, vv in r.items()}
                break
    # Back-substitute so pivot rows only involve free columns. A pivot row's
    # support lies strictly right of its pivot, so descending order guarantees
    # every substituted row is already clean.
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        for cc in [x for x in prow if x in pivots]:
            coef = prow.pop(cc)
            for f, vv in pivots[cc].items():
                nv = prow.get(f, F0) - coef * vv
                if nv:
                    prow[f] = nv
                elif f in prow:
                    del prow[f]
    free = tuple(c for c in range(ncols) if c not in pivots)
    return pivots, free


class ModularSymbols:
    """Modular symbols of even weight k >= 2 for Gamma0(N), M_k(Gamma0(N)).

    Manin symbols (i, c, d) are reduced modulo the two- and three-term
    relations; reduce_vector rewrites any symbol combination in terms of the
    free generators.
    """

    def __init__(self, k, N):
        assert k >= 2 and k % 2 == 0
        self.k = k
        self.N = N
        self.P1N = P1(N)
        self.msym = [(i, c, d) for i in range(k - 1) for c, d in self.P1N]

        rows = []
        for (i, c, d) in self.msym:
            row = defaultdict(Fraction)
            row[self.index((i, c, d))] += 1
            row[self.index((k - 2 - i, d, -c))] += (-1) ** i
            rows.append(row)
            row = defaultdict(Fraction)
            row[self.index((i, c, d))] += 1
            for j in range(k - 2 - i + 1):
                col = self.index((j, d, -c - d))
                row[col] += (-1) ** (k - 2 + j) * comb(k - 2 - i, j)
            for j in range(i + 1):
                col = self.index((k - 2 - i + j, -c - d, c))
                row[col] += (-1) ** (k - 2 - i + j) * comb(i, j)
            rows.append(row)

        self.pivots, self.free = sparse_rref(rows, len(self.msym))
        self.free_index = {c: i for i, c in enumerate(self.free)}

    def index(self, p):
        i, c, d = p
        return i * len(self.P1N) + self.P1N.index((c, d))

    def dim(self):
        return len(self.free)

    def reduce_vector(self, acc):
        """Rewrite a {msym_index: coef} combination in free-generator coordinates."""
        out = [F0] * self.dim()
        for mi, v in acc.items():
            if not v:
                continue
            if mi in self.free_index:
                out[self.free_index[mi]] += v
            else:
                for f, pv in self.pivots[mi].items():
                    out[self.free_index[f]] -= v * pv
        return out

    def boundary_matrix(self):
        """Rows of the boundary map on free generators (Stein, Algorithm 8.12)."""
        k = self.k
        bsym = BoundarySymbols(self.N)
        columns = defaultdict(dict)
        for col, e in enumerate(self.free):
            i, c, d = self.msym[e]
            a, b, g = gcdex(d, -c)
            assert g == 1
            entry = columns[col]
            r1 = bsym.index((a, c))
            entry[r1] = entry.get(r1, F0) + 0 ** (k - 2 - i)
            r2 = bsym.index((b, d))
            entry[r2] = entry.get(r2, F0) - 0 ** i
        rows = defaultdict(dict)
        for col, entry in columns.items():
            for r, v in entry.items():
                if v:
                    rows[r][col] = v
        return list(rows.values())

    def cuspidal_basis(self):
        """Basis vectors (free coordinates) of the cuspidal subspace."""
        pivots, free = sparse_rref(self.boundary_matrix(), self.dim())
        basis = []
        for f in free:
            vec = [F0] * self.dim()
            vec[f] = F1
            for c, prow in pivots.items():
                if f in prow:
                    vec[c] = -prow[f]
            basis.append(vec)
        return basis


class BoundarySymbols:
    """Boundary symbols for Gamma0(N) built up lazily (Stein, Algorithm 8.12)."""

    def __init__(self, N):
        self.N = N
        self._list = []

    def is_equiv(self, p, q):
        u1, v1 = p
        u2, v2 = q
        s1 = gcdex(u1, v1)[0]
        s2 = gcdex(u2, v2)[0]
        return (s1 * v2 - s2 * v1) % math.gcd(self.N, (v1 * v2) % self.N) == 0

    def index(self, p):
        for i, c in enumerate(self._list):
            if self.is_equiv(p, c):
                return i
        self._list.append(p)
        return len(self._list) - 1


def merel(n):
    """Compute the matrices in Merel's set X_n (Stein, section 8.3.2)."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield a, b, 0, d
                for c in range(1, d):
                    yield a, 0, c, d
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield a, b, bc // b, d


def hecke_apply(ms, n, w):
    """Apply the Hecke operator T_n to a vector in free-generator coordinates."""
    k, N = ms.k, ms.N
    support = [(col, ms.msym[ms.free[col]], w[col]) for col in range(len(w)) if w[col]]
    acc = defaultdict(Fraction)
    for p, q, r, s in merel(n):
        # p1[i][j] is the coefficient of X^j*Y^(i-j) in (p*X+q*Y)^i, same for p2.
        p1 = [[0] * (i + 1) for i in range(k - 1)]
        p2 = [[0] * (i + 1) for i in range(k - 1)]
        p1[0][0] = 1
        p2[0][0] = 1
        for i in range(k - 2):
            for j in range(i + 1):
                p1[i + 1][j] += q * p1[i][j]
                p1[i + 1][j + 1] += p * p1[i][j]
                p2[i + 1][j] += s * p2[i][j]
                p2[i + 1][j + 1] += r * p2[i][j]
        for col, (i, c, d), wc in support:
            c1 = (p * c + r * d) % N
            d1 = (q * c + s * d) % N
            if math.gcd(N, math.gcd(c1, d1)) > 1:
                continue
            for j in range(k - 1):
                coef = sum(
                    p1[i][u] * p2[k - 2 - i][j - u]
                    for u in range(max(0, i + j - (k - 2)), min(i, j) + 1)
                )
                if coef:
                    acc[ms.index((j, c1, d1))] += coef * wc
    return ms.reduce_vector(acc)


def dense_rref(mat):
    """In-place reduced row echelon form; returns the pivot (row, col) list."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = F1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                coef = mat[i][c]
                mat[i] = [a - coef * b for a, b in zip(mat[i], mat[r])]
        piv.append((r, c))
        r += 1
        if r == nrows:
            break
    return piv


def dense_nullspace(mat):
    """Kernel basis of a dense Fraction matrix (list of column vectors)."""
    ncols = len(mat[0]) if mat else 0
    work = [row[:] for row in mat]
    piv = dense_rref(work)
    piv_cols = {c: r for r, c in piv}
    basis = []
    for f in range(ncols):
        if f in piv_cols:
            continue
        vec = [F0] * ncols
        vec[f] = F1
        for c, r in piv_cols.items():
            vec[c] = -work[r][f]
        basis.append(vec)
    return basis


def solve_exact(columns, target):
    """Solve sum(x_j * columns[j]) == target exactly; assert consistency."""
    d = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(d)] + [target[i]] for i in range(nrows)]
    work = [row[:] for row in aug]
    piv = dense_rref(work)
    assert all(c < d for _, c in piv), "inconsistent linear system"
    assert len(piv) == d, "rank-deficient coordinate system"
    x = [F0] * d
    for r, c in piv:
        x[c] = work[r][d]
    for i in range(nrows):
        assert sum(columns[j][i] * x[j] for j in range(d)) == target[i]
    return x


# -- arithmetic in Q[alpha]/(g) ------------------------------------------------------


def poly_mulmod(a, b, g):
    """Multiply two coefficient vectors modulo the monic polynomial g."""
    d = len(g) - 1
    prod = [F0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    for top in range(len(prod) - 1, d - 1, -1):
        coef = prod[top]
        if coef:
            prod[top] = F0
            for j in range(d):
                prod[top - d + j] -= coef * Fraction(g[j])
    return prod[:d]


def eigenvalue_table(ms, g, n_max):
    """Hecke eigenvalues a_n (coordinates in Q[alpha]/(g)) for n <= n_max.

    g is the minimal polynomial of alpha = a_2, monic, low degree first.
    The eigenvector is cut out of the cuspidal subspace as ker g(T_2); the
    Krylov basis w, T_2 w, ..., T_2^(d-1) w then turns each T_p w into the
    coordinate vector of a_p. Composite indices follow the standard
    recurrences (multiplicativity; a_(p^(r+1)) = a_p a_(p^r) - p^(k-1)
    a_(p^(r-1)) for p not dividing N; a_(p^r) = a_p^r for p dividing N).
    """
    k, N = ms.k, ms.N
    d = len(g) - 1
    basis = ms.cuspidal_basis()
    s = len(basis)
    images = [hecke_apply(ms, 2, b) for b in basis]

    # Choose s independent coordinate rows of the basis matrix by elimination.
    rows_sel = []
    elim = []
    for i in range(ms.dim()):
        row = [basis[j][i] for j in range(s)]
        for er, lead in elim:
            if row[lead]:
                coef = row[lead]
                row = [a - coef * b for a, b in zip(row, er)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            inv = F1 / row[lead]
            elim.append(([v * inv for v in row], lead))
            rows_sel.append(i)
            if len(rows_sel) == s:
                break
    assert len(rows_sel) == s

    # T_2 on cuspidal coordinates: solve basis * X = images in one elimination.
    aug = [
        [basis[j][i] for j in range(s)] + [images[j][i] for j in range(s)]
        for i in rows_sel
    ]
    piv = dense_rref(aug)
    assert [c for _, c in piv] == list(range(s))
    T2 = [[aug[i][s + j] for j in range(s)] for i in range(s)]  # T2[i][j]
    for j in range(s):
        for i in range(ms.dim()):
            assert sum(basis[m][i] * T2[m][j] for m in range(s)) == images[j][i]

    # ker g(T_2) cuts out the two copies of the eigenform orbit.
    gT = [[Fraction(g[d]) if i == j else F0 for j in range(s)] for i in range(s)]
    for c in range(d - 1, -1, -1):
        nxt = [
            [sum(T2[i][m] * gT[m][j] for m in range(s)) for j in range(s)]
            for i in range(s)
        ]
        for i in range(s):
            nxt[i][i] += Fraction(g[c])
        gT = nxt
    kernel = dense_nullspace(gT)
    assert len(kernel) == 2 * d, f"ker g(T_2) has dimension {len(kernel)}, expected {2 * d}"

    # Lift one kernel vector to free coordinates and clear denominators.
    wc = kernel[0]
    w = [sum(basis[j][i] * wc[j] for j in range(s)) for i in range(ms.dim())]
    scale = 1
    for v in w:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    w = [v * scale for v in w]

    krylov = [w]
    for _ in range(d - 1):
        krylov.append(hecke_apply(ms, 2, krylov[-1]))

    a = {1: tuple([F1] + [F0] * (d - 1))}
    primes = [p for p in range(2, n_max + 1) if all(p % q for q in range(2, p))]
    for p in primes:
        v = krylov[1] if (p == 2 and d > 1) else hecke_apply(ms, p, krylov[0])
        a[p] = tuple(solve_exact(krylov, v))
    gfrac = [Fraction(c) for c in g]
    for n in range(2, n_max + 1):
        if n in a:
            continue
        p = next(q for q in primes if n % q == 0)
        m, r = n, 0
        while m % p == 0:
            m //= p
            r += 1
        if m > 1:
            a[n] = tuple(poly_mulmod(a[m], a[p ** r], gfrac))
            continue
        if N % p == 0:
            acc = a[p]
            for _ in range(r - 1):
                acc = tuple(poly_mulmod(acc, a[p], gfrac))
            a[n] = acc
        else:
            prev, cur = a[p ** (r - 2)], a[p ** (r - 1)]
            term = poly_mulmod(a[p], cur, gfrac)
            pk = Fraction(p ** (k - 1))
            a[n] = tuple(t - pk * v for t, v in zip(term, prev))
    return a


# -- independent cross-checks --------------------------------------------------------


def eta_product_11(n_max):
    """Coefficients of q prod (1-q^n)^2 (1-q^(11n))^2 through q^n_max."""
    series = [0] * (n_max + 1)
    series[0] = 1
    for m in (1, 11):
        for rep in range(2):
            for n in range(m, n_max + 1, m):
                # multiply by (1 - q^n): new[i] = old[i] - old[i-n]
                for i in range(n_max, n - 1, -1):
                    series[i] -= series[i - n]
    out = [0] * (n_max + 1)
    for i in range(n_max):
        out[i + 1] = series[i]
    return out


def check_deligne(a, g, k, N, n_max):
    roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(g)], maxsteps=200, extraprec=80)
    for p in range(2, n_max + 1):
        if any(p % q == 0 for q in range(2, p)) or N % p == 0:
            continue
        bound = 2 * mpmath.mpf(p) ** (mpmath.mpf(k - 1) / 2) + mpmath.mpf("1e-6")
        for rt in roots:
            val = sum(
                (mpmath.mpf(c.numerator) / c.denominator) * rt ** i
                for i, c in enumerate(a[p])
            )
            assert abs(val) <= bound, f"Deligne bound fails at p={p}"


def check_denominators(a, allowed=(2, 3)):
    for n, vec in a.items():
        for c in vec:
            den = c.denominator
            for q in allowed:
                while den % q == 0:
                    den //= q
            assert den == 1, f"denominator of a_{n} not supported on {allowed}"


def fixture_dict(label, k, N, g, a, n_max, steinberg_signs=None):
    an = {}
    for n in range(1, n_max + 1):
        an[str(n)] = [str(c) for c in a[n]]
    data = {
        "label": label,
        "weight": k,
        "level": N,
        "field_poly": list(g),
        "an": an,
        "non_cm": True,
    }
    if steinberg_signs is not None:
        data["steinberg_signs"] = steinberg_signs
    return data


def write_fixture(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
    ap.add_argument("--out", default=os.path.normpath(default_out))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    # Weight 2, level 11: the elliptic curve X_0(11), rational eigenvalues.
    ms = ModularSymbols(2, 11)
    assert len(ms.cuspidal_basis()) == 2  # 2 * dim S_2(Gamma0(11)) = 2 * 1
    g = (2, 1)  # alpha = a_2 = -2
    a11_2 = eigenvalue_table(ms, g, 30)
    eta = eta_product_11(30)
    for n in range(1, 31):
        assert a11_2[n] == (Fraction(eta[n]),), f"eta product mismatch at n={n}"
    assert a11_2[11] == (F1,)
    check_deligne(a11_2, g, 2, 11, 30)
    check_denominators(a11_2)
    write_fixture(
        os.path.join(args.out, "11-2a.json"),
        fixture_dict("11.2a", 2, 11, g, a11_2, 30, steinberg_signs={"11": 1}),
    )

    # Weight 4, level 11: quadratic orbit with alpha^2 = 2 alpha + 2.
    ms = ModularSymbols(4, 11)
    assert len(ms.cuspidal_basis()) == 4  # 2 * dim S_4(Gamma0(11)) = 2 * 2
    g = (-2, -2, 1)
    a11_4 = eigenvalue_table(ms, g, 5)
    assert a11_4[2] == (F0, F1)
    assert a11_4[3] == (Fraction(3), Fraction(-4))
    assert a11_4[4] == (Fraction(-6), Fraction(2))
    assert a11_4[5] == (Fraction(-7), Fraction(8))
    check_deligne(a11_4, g, 4, 11, 5)
    check_denominators(a11_4)
    write_fixture(
        os.path.join(args.out, "11-4a.json"),
        fixture_dict("11.4a", 4, 11, g, a11_4, 5),
    )

    # Weight 2, level 45 = 3^2 * 5: the elliptic curve 45a, the one newform
    # beside two copies of 15a (a_2 = -1). The character mod 3 has c^2 | 45,
    # so `verify` compares it against the twisted series E'.
    ms = ModularSymbols(2, 45)
    assert len(ms.cuspidal_basis()) == 6  # 2 * dim S_2(Gamma0(45)) = 2 * 3
    g = (-1, 1)  # alpha = a_2 = 1
    a45 = eigenvalue_table(ms, g, 40)
    printed = (1, 0, -1, -1, 0, 0, -3, 0, -1, 4, 0, -2, 0, 0, -1, -2, 0, 4)  # a_2, ..., a_19
    for n, an in enumerate(printed, 2):
        assert a45[n] == (Fraction(an),), f"45a mismatch at n={n}"
    check_deligne(a45, g, 2, 45, 40)
    check_denominators(a45)
    write_fixture(
        os.path.join(args.out, "45-2a.json"),
        fixture_dict("45.2a", 2, 45, g, a45, 40, steinberg_signs={"5": -1}),
    )

    # Weight 2, level 50 = 2 * 5^2: the newform with a_2 = 1. The other
    # newform (a_2 = -1) is its twist by the quadratic character mod 5. The
    # characters mod 5 of order 4 take values in Q(zeta_4), so `verify`
    # builds a twisted series E' whose coefficients are not all rational.
    ms = ModularSymbols(2, 50)
    assert len(ms.cuspidal_basis()) == 4  # 2 * dim S_2(Gamma0(50)) = 2 * 2
    g = (-1, 1)  # alpha = a_2 = 1
    a50 = eigenvalue_table(ms, g, 40)
    printed = (1, -1, 1, 0, -1, -2, 1, -2, 0, -3, -1, 4, -2, 0, 1, 3, -2, 5)  # a_2, ..., a_19
    for n, an in enumerate(printed, 2):
        assert a50[n] == (Fraction(an),), f"50a mismatch at n={n}"
    check_deligne(a50, g, 2, 50, 40)
    check_denominators(a50)
    write_fixture(
        os.path.join(args.out, "50-2a.json"),
        fixture_dict("50.2a", 2, 50, g, a50, 40, steinberg_signs={"2": 1}),
    )

    # Weight 6, level 81: quartic orbit of alpha = a_2.
    ms = ModularSymbols(6, 81)
    assert len(ms.cuspidal_basis()) == 78  # 2 * dim S_6(Gamma0(81)) = 2 * 39
    g = (792, -72, -84, 3, 1)
    a81 = eigenvalue_table(ms, g, 100)
    assert a81[2] == (F0, F1, F0, F0)
    assert a81[3] == (F0, F0, F0, F0)
    assert a81[4] == (Fraction(-32), F0, F1, F0)
    assert a81[5] == (Fraction(54), Fraction(25, 2), Fraction(-9, 4), Fraction(-1, 4))
    check_deligne(a81, g, 6, 81, 100)
    check_denominators(a81)
    write_fixture(
        os.path.join(args.out, "81-6c.json"),
        fixture_dict("81.6c", 6, 81, g, a81, 100),
    )
    write_fixture(
        os.path.join(args.out, "81-6c-printed.json"),
        fixture_dict("81.6c (printed excerpt)", 6, 81, g, a81, 5),
    )


if __name__ == "__main__":
    main()
