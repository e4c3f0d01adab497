#!/usr/bin/env python3
"""Offline generator for the triangle SBP quadrature tables.

Searches, for each polynomial degree N in 1..4, a volume quadrature on the
reference triangle with vertices (-1,-1), (1,-1), (-1,1) such that

* the node set contains, on each face, the (N+1)-point Gauss-Legendre rule
  mapped to that face (these become the surface quadrature, exact for face
  polynomials of degree 2N+1 >= 2N),
* all weights are positive and the volume rule is exact for total degree
  2N-1 (or better),
* nodal summation-by-parts operators with a diagonal norm and a 0/1 face
  extraction matrix exist (verified here end to end before freezing).

The search parameterizes the rule by symmetry orbits (centroid, 3-point and
6-point orbits in barycentric coordinates) with fixed boundary positions and
solves the moment equations with damped least squares from random restarts.

Writes src/posdg/_tri_tables.py, with the Delaunay subcells of each node set
for output. Run once; the output is committed.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial import Delaunay

RNG = np.random.default_rng(20240817)

V1 = np.array([-1.0, -1.0])
V2 = np.array([1.0, -1.0])
V3 = np.array([-1.0, 1.0])
VERTS = np.array([V1, V2, V3])

# faces listed counterclockwise: (start vertex, end vertex, outward unit normal)
FACES = [(0, 1, np.array([0.0, -1.0])),
         (1, 2, np.array([1.0, 1.0]) / np.sqrt(2.0)),
         (2, 0, np.array([-1.0, 0.0]))]


def exact_moment(a: int, b: int) -> float:
    """Exact integral of r^a s^b over the reference triangle (rational)."""
    total = Fraction(0)
    for i in range(a + 1):
        for j in range(b + 1):
            unit = Fraction(factorial(i) * factorial(j), factorial(i + j + 2))
            total += (comb(a, i) * comb(b, j)
                      * Fraction(2) ** (i + j)
                      * Fraction(-1) ** (a - i + b - j) * unit)
    return float(4 * total)


def bary_to_rs(lam: np.ndarray) -> np.ndarray:
    return lam @ VERTS


def orbit_s3() -> np.ndarray:
    return bary_to_rs(np.array([[1 / 3, 1 / 3, 1 / 3]]))


def orbit_s21(a: float) -> np.ndarray:
    lam = np.array([[a, a, 1 - 2 * a], [a, 1 - 2 * a, a], [1 - 2 * a, a, a]])
    return bary_to_rs(lam)


def orbit_s111(a: float, b: float) -> np.ndarray:
    c = 1 - a - b
    lam = np.array([[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]])
    return bary_to_rs(lam)


def face_nodes(n_face: int):
    """All boundary nodes as symmetry orbits from the 1D Gauss-Legendre rule.

    Returns (orbits, face_points) where orbits is a list of node arrays (one
    weight unknown per orbit) and face_points[f] is the ordered (n_face, 2)
    node array of face f.
    """
    t, _ = np.polynomial.legendre.leggauss(n_face)
    t = np.sort(t)
    orbits = []
    # +/- t pairs on all three faces form one 6-orbit; t=0 gives a 3-orbit
    for tv in t[t > 1e-14]:
        orbits.append(orbit_s111((1 - tv) / 2, (1 + tv) / 2))
    if np.any(np.abs(t) < 1e-14):
        orbits.append(orbit_s21(0.5))

    pts = []
    for i0, i1, _ in FACES:
        lam = np.zeros((n_face, 3))
        lam[:, i0] = (1 - t) / 2
        lam[:, i1] = (1 + t) / 2
        pts.append(bary_to_rs(lam))
    return orbits, pts


def monomial_exponents(deg: int):
    return [(a, b) for d in range(deg + 1) for a in range(d + 1) for b in [d - a]]


class OrbitSpec:
    """Interior orbit structure: 'c' centroid, '3' S21(a), '6' S111(a,b)."""

    def __init__(self, kinds: str):
        self.kinds = kinds
        self.n_pos = sum({"c": 0, "3": 1, "6": 2}[k] for k in kinds)
        self.n_orb = len(kinds)

    def nodes(self, pos: np.ndarray):
        out, i = [], 0
        for k in self.kinds:
            if k == "c":
                out.append(orbit_s3())
            elif k == "3":
                out.append(orbit_s21(pos[i]))
                i += 1
            else:
                out.append(orbit_s111(pos[i], pos[i + 1]))
                i += 2
        return out


def solve_rule(n: int, deg: int, spec: OrbitSpec, tries: int = 300):
    """Find positive orbit weights and interior positions matching all moments.

    Weights enter the moment equations linearly, so for fixed interior
    positions they are recovered by nonnegative least squares; only the
    handful of position parameters is optimized nonlinearly.
    """
    from scipy.optimize import minimize, nnls

    bnd_orbits, _ = face_nodes(n + 1)
    exps = monomial_exponents(deg)
    moments = np.array([exact_moment(a, b) for a, b in exps])
    nw = len(bnd_orbits) + spec.n_orb

    def orbit_cols(pos):
        orbits = bnd_orbits + spec.nodes(pos)
        cols = [np.array([np.sum(o[:, 0] ** a * o[:, 1] ** b) for a, b in exps])
                for o in orbits]
        return orbits, np.column_stack(cols)

    def nnls_misfit(pos):
        if np.any(pos < 0.02) or np.any(pos > 0.96):
            return 1e3
        # S111 orbits additionally need the third barycentric coordinate inside
        i = 0
        for k in spec.kinds:
            if k == "3":
                if pos[i] > 0.47:
                    return 1e3
                i += 1
            elif k == "6":
                if pos[i] + pos[i + 1] > 0.98:
                    return 1e3
                i += 2
        _, A = orbit_cols(pos)
        w, rnorm = nnls(A, moments)
        return rnorm + 1e-3 * np.sum(w < 1e-7)

    def finish(pos):
        orbits, A = orbit_cols(pos)
        w, _ = nnls(A, moments)
        if np.any(w < 1e-7):
            return None
        # joint polish to machine precision
        x0 = np.concatenate([w, pos])

        def res(x):
            _, Ax = orbit_cols(x[nw:])
            return Ax @ x[:nw] - moments

        sol = least_squares(res, x0, xtol=3e-16, ftol=3e-16, gtol=3e-16)
        w, pos = sol.x[:nw], sol.x[nw:]
        if np.max(np.abs(sol.fun)) > 5e-14 or np.any(w < 1e-7):
            return None
        orbits = bnd_orbits + spec.nodes(pos)
        nodes = np.vstack(orbits)
        weights = np.concatenate([np.full(len(o), wi) for wi, o in zip(w, orbits)])
        d = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=2)
        np.fill_diagonal(d, 1.0)
        if d.min() < 1e-3:
            return None
        return nodes, weights

    if spec.n_pos == 0:
        if nnls_misfit(np.zeros(0)) < 1e-12:
            return finish(np.zeros(0))
        return None

    best = None
    for _ in range(tries):
        p0 = RNG.uniform(0.05, 0.45, spec.n_pos)
        sol = minimize(nnls_misfit, p0, method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000))
        if sol.fun < 1e-11:
            out = finish(sol.x)
            if out is not None:
                return out
        if best is None or sol.fun < best:
            best = sol.fun
    return None


# ---------------------------------------------------------------------------
# verification: orthonormal triangle basis and operator construction
# ---------------------------------------------------------------------------

def jacobi_p(x, alpha, beta, n):
    """Orthonormal Jacobi polynomial on [-1,1] (Hesthaven-Warburton recurrence)."""
    x = np.asarray(x, dtype=float)
    gamma0 = (2 ** (alpha + beta + 1) / (alpha + beta + 1)
              * factorial(alpha) * factorial(beta) / factorial(alpha + beta))
    pl = [np.ones_like(x) / np.sqrt(gamma0)]
    if n == 0:
        return pl[0]
    gamma1 = (alpha + 1) * (beta + 1) / (alpha + beta + 3) * gamma0
    pl.append(((alpha + beta + 2) * x / 2 + (alpha - beta) / 2) / np.sqrt(gamma1))
    aold = 2 / (2 + alpha + beta) * np.sqrt((alpha + 1) * (beta + 1) / (alpha + beta + 3))
    for i in range(1, n):
        h1 = 2 * i + alpha + beta
        anew = (2 / (h1 + 2)
                * np.sqrt((i + 1) * (i + 1 + alpha + beta) * (i + 1 + alpha)
                          * (i + 1 + beta) / (h1 + 1) / (h1 + 3)))
        bnew = -(alpha ** 2 - beta ** 2) / h1 / (h1 + 2)
        pl.append((-aold * pl[i - 1] + (x - bnew) * pl[i]) / anew)
        aold = anew
    return pl[n]


def grad_jacobi_p(x, alpha, beta, n):
    if n == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return np.sqrt(n * (n + alpha + beta + 1)) * jacobi_p(x, alpha + 1, beta + 1, n - 1)


def rs_to_ab(r, s):
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    a = np.full_like(r, -1.0)
    ok = np.abs(1 - s) > 1e-12
    a[ok] = 2 * (1 + r[ok]) / (1 - s[ok]) - 1
    return a, s


def simplex_basis(r, s, i, j):
    a, b = rs_to_ab(r, s)
    return np.sqrt(2.0) * jacobi_p(a, 0, 0, i) * jacobi_p(b, 2 * i + 1, 0, j) * (1 - b) ** i


def grad_simplex_basis(r, s, i, j):
    a, b = rs_to_ab(r, s)
    fa, gb = jacobi_p(a, 0, 0, i), jacobi_p(b, 2 * i + 1, 0, j)
    dfa, dgb = grad_jacobi_p(a, 0, 0, i), grad_jacobi_p(b, 2 * i + 1, 0, j)
    dr = dfa * gb
    if i > 0:
        dr = dr * (0.5 * (1 - b)) ** (i - 1)
    ds = dfa * (gb * (0.5 * (1 + a)))
    if i > 0:
        ds = ds * (0.5 * (1 - b)) ** (i - 1)
    tmp = dgb * (0.5 * (1 - b)) ** i
    if i > 0:
        tmp = tmp - 0.5 * i * gb * (0.5 * (1 - b)) ** (i - 1)
    ds = ds + fa * tmp
    return 2 ** (i + 0.5) * dr, 2 ** (i + 0.5) * ds


def vandermonde(N, r, s):
    cols, dr_cols, ds_cols = [], [], []
    for i in range(N + 1):
        for j in range(N + 1 - i):
            cols.append(simplex_basis(r, s, i, j))
            dr, ds = grad_simplex_basis(r, s, i, j)
            dr_cols.append(dr)
            ds_cols.append(ds)
    return np.column_stack(cols), np.column_stack(dr_cols), np.column_stack(ds_cols)


def build_and_check_ops(N, nodes, weights):
    """Construct Q_r, Q_s by the skew-part solve and verify all identities."""
    r, s = nodes[:, 0], nodes[:, 1]
    npts = len(r)
    V, Vr, Vs = vandermonde(N, r, s)
    M = np.diag(weights)

    _, face_pts = face_nodes(N + 1)
    tq, wq = np.polynomial.legendre.leggauss(N + 1)
    order = np.argsort(tq)
    wq = wq[order]

    nfp = N + 1
    E = np.zeros((3 * nfp, npts))
    Bs = {0: np.zeros(3 * nfp), 1: np.zeros(3 * nfp)}
    for f, (i0, i1, nhat) in enumerate(FACES):
        L = np.linalg.norm(VERTS[i1] - VERTS[i0])
        for m in range(nfp):
            p = face_pts[f][m]
            d = np.linalg.norm(nodes - p, axis=1)
            iv = int(np.argmin(d))
            assert d[iv] < 1e-9, f"face node not in volume set (N={N})"
            E[f * nfp + m, iv] = 1.0
            Bs[0][f * nfp + m] = wq[m] * (L / 2) * nhat[0]
            Bs[1][f * nfp + m] = wq[m] * (L / 2) * nhat[1]

    ops = {}
    for k, Vk in enumerate((Vr, Vs)):
        EBE = E.T @ np.diag(Bs[k]) @ E
        R = M @ Vk - 0.5 * EBE @ V
        # solve S V = R for skew S via its upper-triangular entries
        iu, ju = np.triu_indices(npts, k=1)
        nb = V.shape[1]
        A = np.zeros((npts * nb, len(iu)))
        for col, (i, j) in enumerate(zip(iu, ju)):
            A[i * nb:(i + 1) * nb, col] = V[j]
            A[j * nb:(j + 1) * nb, col] = -V[i]
        svec, *_ = np.linalg.lstsq(A, R.reshape(-1), rcond=None)
        S = np.zeros((npts, npts))
        S[iu, ju] = svec
        S -= S.T
        Q = S + 0.5 * EBE
        err_acc = np.max(np.abs(Q @ V - M @ Vk))
        err_sbp = np.max(np.abs(Q + Q.T - EBE))
        err_cons = np.max(np.abs(Q @ np.ones(npts)))
        ops[k] = Q
        if max(err_acc, err_sbp, err_cons) > 1e-12:
            return None
    return ops


def main():
    target = Path(__file__).resolve().parent.parent / "src" / "posdg" / "_tri_tables.py"
    specs = {
        1: (2, ["c", "3"]),
        2: (4, ["c3", "33", "c33"]),
        3: (6, ["c33", "333", "c333", "36"]),
        4: (7, ["c333", "3333", "c36", "336", "c336", "66", "c3333"]),
    }
    only = {int(a) for a in sys.argv[1:]} or set(specs)
    tables = {}
    for N, (deg_hi, structures) in specs.items():
        if N not in only:
            continue
        found = None
        for deg in range(deg_hi, 2 * N - 2, -1):
            for st in structures:
                print(f"N={N}: trying degree {deg}, structure {st!r}", flush=True)
                res = solve_rule(N, deg, OrbitSpec(st))
                if res is None:
                    continue
                nodes, weights = res
                if build_and_check_ops(N, nodes, weights) is not None:
                    found = (deg, st, nodes, weights)
                    break
                print(f"N={N}: rule found but operator check failed", flush=True)
            if found:
                break
        if not found:
            print(f"N={N}: NO RULE FOUND", file=sys.stderr)
            sys.exit(1)
        deg, st, nodes, weights = found
        tq, wq = np.polynomial.legendre.leggauss(N + 1)
        order = np.argsort(tq)
        tables[N] = dict(deg=deg, structure=st, nodes=nodes, weights=weights,
                         face_t=tq[order], face_w=wq[order])
        print(f"N={N}: {len(weights)} nodes, structure {st}, exact to degree {deg}, "
              f"w in [{weights.min():.3e}, {weights.max():.3e}]")

    write_tables(target, tables)
    print(f"wrote {target}")


def write_tables(target: Path, tables: dict) -> None:
    """Write the module; each table holds deg, nodes, weights, face_t, face_w.

    The subcells are the Delaunay triangulation of the volume nodes, which
    the VTK writer draws each element with.
    """
    with open(target, "w") as f:
        f.write('"""Quadrature tables for triangle SBP operators (N = 1..4).\n\n'
                "Generated by scripts/generate_tri_tables.py (run once, output frozen).\n"
                "Volume nodes contain the per-face (N+1)-point Gauss-Legendre nodes;\n"
                "volume weights are positive and exact to the degree noted per entry.\n"
                "Subcells are the Delaunay triangles of the volume nodes, as node\n"
                "index triples, for output.\n"
                '"""\n\n')
        f.write("TRI_TABLES = {\n")
        for N, tab in tables.items():
            f.write(f"    {N}: {{\n")
            f.write(f"        'exactness_degree': {tab['deg']},\n")
            f.write("        'volume_nodes': [\n")
            for p in tab["nodes"]:
                f.write(f"            ({float(p[0])!r}, {float(p[1])!r}),\n")
            f.write("        ],\n")
            f.write("        'volume_weights': [\n")
            for w in tab["weights"]:
                f.write(f"            {float(w)!r},\n")
            f.write("        ],\n")
            f.write(f"        'face_t': {[float(x) for x in tab['face_t']]!r},\n")
            f.write(f"        'face_w': {[float(x) for x in tab['face_w']]!r},\n")
            f.write("        'subcells': [\n")
            for tri in Delaunay(np.asarray(tab["nodes"])).simplices:
                f.write(f"            {tuple(int(v) for v in tri)!r},\n")
            f.write("        ],\n")
            f.write("    },\n")
        f.write("}\n")


if __name__ == "__main__":
    main()
