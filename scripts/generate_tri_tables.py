#!/usr/bin/env python3
"""Offline generator for the triangle SBP quadrature tables.

Usage::

    python3 scripts/generate_tri_tables.py [N ...]

Searches, for each polynomial degree N in 1..4 (or only the degrees
given), a volume quadrature on the reference triangle with vertices
(-1,-1), (1,-1), (-1,1) such that

* the node set contains, on each face, the (N+1)-point Gauss-Legendre rule
  mapped to that face (these become the surface quadrature, exact for face
  polynomials of degree 2N+1 >= 2N),
* all weights are positive and the volume rule is exact for total degree
  2N-1 (or better).

The search parameterizes the rule by symmetry orbits (centroid, 3-point and
6-point orbits in barycentric coordinates) with fixed boundary positions and
solves the moment equations with damped least squares from random restarts.
A rule is accepted only if the solver's own operator builder,
``posdg.sbp.tri_ops``, builds its high- and low-order operators from it, and
every residual of ``posdg.sbp.check_ops`` is within its tolerance
(:func:`accept`).

Writes src/posdg/_tri_tables.py, with the Delaunay subcells of each node set
for output. The degrees not searched keep their committed entries. Run once;
the output is committed. Needs scipy.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial import Delaunay

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from posdg._tri_tables import TRI_TABLES  # noqa: E402
from posdg.sbp import check_ops, tri_ops  # noqa: E402

RNG = np.random.default_rng(20240817)

V1 = np.array([-1.0, -1.0])
V2 = np.array([1.0, -1.0])
V3 = np.array([-1.0, 1.0])
VERTS = np.array([V1, V2, V3])


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


def face_nodes(n_face: int) -> list:
    """All boundary nodes as symmetry orbits from the 1D Gauss-Legendre rule,
    one weight unknown per orbit."""
    t, _ = np.polynomial.legendre.leggauss(n_face)
    t = np.sort(t)
    orbits = []
    # +/- t pairs on all three faces form one 6-orbit; t=0 gives a 3-orbit
    for tv in t[t > 1e-14]:
        orbits.append(orbit_s111((1 - tv) / 2, (1 + tv) / 2))
    if np.any(np.abs(t) < 1e-14):
        orbits.append(orbit_s21(0.5))
    return orbits


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

    bnd_orbits = face_nodes(n + 1)
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


def table_entry(N: int, deg: int, nodes: np.ndarray, weights: np.ndarray):
    """A rule in the ``TRI_TABLES`` form, with its face rule and subcells."""
    tq, wq = np.polynomial.legendre.leggauss(N + 1)
    order = np.argsort(tq)
    return {
        "exactness_degree": deg,
        "volume_nodes": nodes,
        "volume_weights": weights,
        "face_t": tq[order],
        "face_w": wq[order],
        "subcells": Delaunay(np.asarray(nodes)).simplices,
    }


def accept(N: int, table: dict) -> bool:
    """Whether the solver builds operators from the rule that pass every
    identity check: ``tri_ops`` raises no ``RuntimeError`` (a face node
    missing, a disconnected node graph) and each ``check_ops`` residual is
    within its tolerance."""
    try:
        ops = tri_ops(N, table)
    except RuntimeError:
        return False
    return all(val <= tol for _, val, tol in check_ops(ops))


def merged(found: dict) -> dict:
    """The committed tables with the entries of ``found`` in place of theirs;
    the degrees not searched keep their committed entries."""
    return {**TRI_TABLES, **found}


def main():
    target = REPO / "src" / "posdg" / "_tri_tables.py"
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
                entry = table_entry(N, deg, *res)
                if accept(N, entry):
                    found = (st, entry)
                    break
                print(f"N={N}: rule found but operator check failed", flush=True)
            if found:
                break
        if not found:
            print(f"N={N}: NO RULE FOUND", file=sys.stderr)
            sys.exit(1)
        st, tables[N] = found
        weights = tables[N]["volume_weights"]
        print(f"N={N}: {len(weights)} nodes, structure {st}, exact to degree "
              f"{tables[N]['exactness_degree']}, "
              f"w in [{weights.min():.3e}, {weights.max():.3e}]")

    write_tables(target, merged(tables))
    print(f"wrote {target}")


def write_tables(target: Path, tables: dict) -> None:
    """Write the module from tables in the ``TRI_TABLES`` form.

    The subcells are the Delaunay triangulation of the volume nodes, which
    the VTK writer draws each element with (:func:`table_entry`).
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
            f.write(f"        'exactness_degree': {tab['exactness_degree']},\n")
            f.write("        'volume_nodes': [\n")
            for p in tab["volume_nodes"]:
                f.write(f"            ({float(p[0])!r}, {float(p[1])!r}),\n")
            f.write("        ],\n")
            f.write("        'volume_weights': [\n")
            for w in tab["volume_weights"]:
                f.write(f"            {float(w)!r},\n")
            f.write("        ],\n")
            f.write(f"        'face_t': {[float(x) for x in tab['face_t']]!r},\n")
            f.write(f"        'face_w': {[float(x) for x in tab['face_w']]!r},\n")
            f.write("        'subcells': [\n")
            for tri in tab["subcells"]:
                f.write(f"            {tuple(int(v) for v in tri)!r},\n")
            f.write("        ],\n")
            f.write("    },\n")
        f.write("}\n")


if __name__ == "__main__":
    main()
