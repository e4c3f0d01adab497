"""Command-line driver: run configs, convergence studies, text outputs.

Subcommands:

* ``run <config>``: march a case to its final time. Writes a per-step
  diagnostics CSV, the final field as CSV and as binary (big-endian)
  legacy VTK, and a limiter activity CSV (per-element blending
  parameters, recorded at the snapshot cadence and at the final step).
* ``convergence <config> --K 50,100,200``: L1/L2 error table over a mesh
  sequence, with observed rates where the sequence doubles.
* ``ops-check --elem tri --N 3``: reference-operator identity report
  (the residuals of ``posdg.sbp.check_ops``), optionally dumping the
  matrices as plain text for cross-implementation comparison.
* ``cases list``: available benchmark names.

Config files are flat ``key = value`` text with ``#`` comments; validation
reports every problem at once. All CSV files open with a schema comment
line so downstream tooling can detect layout drift. Floats are written
with 17 significant digits, which round-trips IEEE doubles exactly and
makes byte-level determinism checks meaningful.

The writers stream their files. The field and limiter CSVs are formed
and written in blocks of whole elements, about ``BLOCK_ROWS`` rows each,
so a writer holds one block of a file, not all of it, and the march, not
its output, sets a run's peak memory. The bytes written are those of
formatting the whole file at once. The VTK writer writes its header,
geometry and array sections in order, without joining them first.

The ``POSDG_WORKERS`` environment variable caps the thread count of the
underlying linear-algebra libraries, provided this module is imported
before numpy: it seeds ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` from it, which BLAS reads once, when it loads. A
process that imports numpy first must set those variables itself.
"""

from __future__ import annotations

import os

# BLAS libraries read their thread count from the environment at load
# time; seed it before anything imports numpy so a cap given via
# POSDG_WORKERS also holds in processes without threadpoolctl.
if os.environ.get("POSDG_WORKERS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["POSDG_WORKERS"])

import argparse
import dataclasses
import logging
import sys
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._tri_tables import TRI_TABLES
from .bc import BCSet, wall
from .cases import CASES, error_norms, get_case, schlieren
from .mesh import Mesh, rect_mesh
from .physics import conserved_to_primitive, internal_energy
from .sbp import build_ops, check_ops
from .timestepping import (LIMITED_MODES, MODES, StepDiagnostics, Stepper,
                           advance)

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "make_config",
    "load_config",
    "setup",
    "run",
    "convergence",
    "write_vtk",
    "ops_check",
    "main",
]

log = logging.getLogger("posdg")

SCHEMA = "posdg-csv v1"
ELEMS_2D = ("quad", "tri")
# largest shipped operator degree per element family; tri is the largest
# tabulated rule
MAX_N = {"line": 5, "quad": 5, "tri": max(TRI_TABLES)}
# rows of one CSV block: the field and limiter writers format and write
# whole elements, up to this many rows at a time (at least one element)
BLOCK_ROWS = 256


def _fmt(x) -> str:
    """17 significant digits: exact round-trip for IEEE doubles."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Carries the full list of configuration problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class RunConfig:
    """One fully specified solver invocation.

    ``None`` means "use the case recommendation" for cfl / t_final /
    wall_riemann and "derive from the case dimension" for elem. Meshes are
    sized either by the per-direction refinement ``K`` (scaled by the case
    aspect ratio) or by explicit ``Kx``/``Ky`` counts.
    """

    case: str
    N: int
    K: int = None
    Kx: int = None
    Ky: int = None
    elem: str = None
    mode: str = "elementwise"
    zeta: float = 0.1
    shock_capture: bool = False
    cfl: float = None
    t_final: float = None
    wall_riemann: bool = None
    outdir: str = "out"
    snap_every: int = 0


def _to_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


_CONVERT = {
    "case": str, "elem": str, "mode": str, "outdir": str,
    "N": int, "K": int, "Kx": int, "Ky": int, "snap_every": int,
    "zeta": float, "cfl": float, "t_final": float,
    "shock_capture": _to_bool, "wall_riemann": _to_bool,
}


def parse_config(text: str) -> dict:
    """Flat ``key = value`` lines with ``#`` comments -> raw string dict."""
    raw, problems = {}, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            problems.append(f"line {lineno}: expected 'key = value', "
                            f"got {body!r}")
            continue
        key, val = (part.strip() for part in body.split("=", 1))
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = val
    if problems:
        raise ConfigError(problems)
    return raw


def make_config(raw: dict, overrides: dict = None) -> RunConfig:
    """Convert and validate; raises ConfigError listing every problem.

    Fields that fail conversion (or are missing) are reported once and
    excluded from range validation, so one bad config surfaces its whole
    problem list in a single round.
    """
    problems, kw, bad = [], {}, set()
    merged = dict(raw)
    merged.update(overrides or {})
    for key, val in merged.items():
        if key not in _CONVERT:
            problems.append(f"unknown key {key!r}")
            continue
        if isinstance(val, str):
            try:
                kw[key] = _CONVERT[key](val)
            except ValueError as exc:
                problems.append(f"{key}: {exc}")
                bad.add(key)
        else:
            kw[key] = val
    for req in ("case", "N"):
        if req not in kw and req not in bad:
            problems.append(f"missing required key {req!r}")
            bad.add(req)
    kw.setdefault("case", "")
    kw.setdefault("N", 1)

    cfg = RunConfig(**kw)
    problems += _validate(cfg, skip=bad)
    if problems:
        raise ConfigError(problems)
    return cfg


def _validate(cfg: RunConfig, skip=frozenset()) -> list:
    problems = []
    case = None
    if cfg.case in CASES:
        case = get_case(cfg.case)
    elif "case" not in skip:
        problems.append(f"case: unknown case {cfg.case!r}; available: "
                        f"{', '.join(sorted(CASES))}")

    dim = case.dim if case is not None else None
    elem = cfg.elem
    if elem is not None:
        if elem not in ("line",) + ELEMS_2D:
            problems.append(f"elem: must be line, quad, or tri, "
                            f"got {cfg.elem!r}")
            elem = None
        elif dim == 1 and elem != "line":
            problems.append(f"elem: case {cfg.case!r} is one-dimensional; "
                            f"only 'line' applies")
        elif dim == 2 and elem == "line":
            problems.append(f"elem: case {cfg.case!r} is two-dimensional; "
                            f"use quad or tri")
    elif dim is not None:
        elem = "line" if dim == 1 else "quad"

    if "N" not in skip:
        if cfg.N < 1:
            problems.append(f"N: must be >= 1, got {cfg.N}")
        elif elem is not None and cfg.N > MAX_N[elem]:
            problems.append(f"N: operators for {elem!r} ship up to "
                            f"N={MAX_N[elem]}, got {cfg.N}")

    has_kxy = cfg.Kx is not None or cfg.Ky is not None
    if cfg.K is None and not has_kxy:
        problems.append("K: give K, or Kx and Ky for a 2D case")
    if cfg.K is not None and has_kxy:
        problems.append("K: give either K or Kx/Ky, not both")
    if has_kxy and (cfg.Kx is None or cfg.Ky is None):
        problems.append("K: Kx and Ky must be given together")
    if has_kxy and dim == 1:
        problems.append("K: Kx/Ky apply only to two-dimensional cases")
    for name in ("K", "Kx", "Ky"):
        val = getattr(cfg, name)
        if val is not None and val < 1:
            problems.append(f"{name}: must be >= 1, got {val}")

    if cfg.mode not in MODES:
        problems.append(f"mode: must be one of {', '.join(MODES)}, "
                        f"got {cfg.mode!r}")
    if not 0.0 <= cfg.zeta <= 1.0:
        problems.append(f"zeta: must lie in [0, 1], got {cfg.zeta}")
    if cfg.shock_capture and cfg.mode not in LIMITED_MODES:
        problems.append(f"shock_capture: needs a limited mode, one of "
                        f"{', '.join(LIMITED_MODES)}, got {cfg.mode!r}")
    if cfg.cfl is not None and not 0.0 < cfg.cfl <= 1.0:
        problems.append(f"cfl: must lie in (0, 1], got {cfg.cfl}")
    if cfg.t_final is not None and cfg.t_final <= 0.0:
        problems.append(f"t_final: must be > 0, got {cfg.t_final}")
    if cfg.snap_every < 0:
        problems.append(f"snap_every: must be >= 0, got {cfg.snap_every}")
    return problems


def load_config(path, overrides: dict = None) -> RunConfig:
    return make_config(parse_config(Path(path).read_text()), overrides)


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


def setup(cfg: RunConfig):
    """Build (case, mesh, stepper, u0, cfl, t_final) from a valid config."""
    case = get_case(cfg.case)
    if cfg.wall_riemann is not None:
        flavor = "riemann" if cfg.wall_riemann else "mirror"
        table = {tag: (wall(flavor) if bc.kind == "wall" else bc)
                 for tag, bc in case.bcs.table.items()}
        case = dataclasses.replace(case, bcs=BCSet(table))

    elem = cfg.elem or ("line" if case.dim == 1 else "quad")
    if case.dim == 2 and cfg.Kx is not None:
        (ax, bx), (ay, by) = case.domain
        mesh = rect_mesh(elem, (ax, bx, ay, by), cfg.Kx, cfg.Ky, cfg.N,
                         periodic=case.periodic, classify=case.classify)
    else:
        mesh = case.build_mesh(cfg.K, cfg.N, elem=elem)
    case = case.bind(mesh)

    cfl = case.cfl_for(elem) if cfg.cfl is None else cfg.cfl
    t_final = case.t_final if cfg.t_final is None else cfg.t_final

    stepper = Stepper(mesh, case.gas, case.bcs, mode=cfg.mode,
                      zeta=cfg.zeta, shock_capture=cfg.shock_capture)
    u0 = case.ic(mesh.xy)
    return case, mesh, stepper, u0, cfl, t_final


def _csv_line(values) -> str:
    return ",".join(v if isinstance(v, str) else _fmt(v) for v in values)


def _csv_rows(columns) -> str:
    """CSV lines from equal-length columns, as :func:`_csv_line` would.

    A column is a list of ready strings or an array of numbers, formatted
    with one pass over ``tolist()``.
    """
    text = [c if isinstance(c, list) else
            [f"{v:.17g}" for v in np.asarray(c, dtype=float).tolist()]
            for c in columns]
    return "".join([",".join(row) + "\n" for row in zip(*text)])


def _write_blocks(f, n_elements, rows_per_element, rows):
    """Write ``rows(ks)``, the CSV lines of the elements in slice ``ks``,
    for consecutive slices of whole elements with at most BLOCK_ROWS rows
    (one element where an element has more)."""
    step = max(1, BLOCK_ROWS // rows_per_element)
    for k0 in range(0, n_elements, step):
        f.write(rows(slice(k0, min(k0 + step, n_elements))))


def _write_limiter_rows(f, step, u, rep):
    """limiter.csv lines of one step: l_e, xi and the minima per element,
    written a block of elements at a time."""
    def rows(ks):
        n = ks.stop - ks.start
        uk = u[ks]
        xi = np.ones(n) if rep.shock_xi is None else rep.shock_xi[ks]
        return _csv_rows([[f"{step}"] * n,
                          [f"{k}" for k in range(ks.start, ks.stop)],
                          rep.l_elem[ks], xi, uk[..., 0].min(axis=1),
                          internal_energy(uk).min(axis=1)])

    _write_blocks(f, len(rep.l_elem), 1, rows)


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns a process exit status."""
    case, mesh, stepper, u0, cfl, t_final = setup(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    last = {"step": None, "rep": None, "recorded": None}
    with open(outdir / "diagnostics.csv", "w", newline="") as diag, \
            open(outdir / "limiter.csv", "w", newline="") as lim:
        diag.write(f"# {SCHEMA} diagnostics case={cfg.case} mode={cfg.mode}\n")
        diag.write(",".join(StepDiagnostics.columns(mesh.dim)) + "\n")
        lim.write(f"# {SCHEMA} limiter case={cfg.case} mode={cfg.mode}\n")
        lim.write("step,element,l_e,xi,min_rho,min_rhoe\n")

        def write_limiter_rows(step, u, rep):
            _write_limiter_rows(lim, step, u, rep)
            last["recorded"] = step

        def callback(step, t, u, row, rep):
            diag.write(_csv_line(row.values()) + "\n")
            last.update(step=step, rep=rep)
            if cfg.snap_every and step % cfg.snap_every == 0:
                if rep is not None:
                    write_limiter_rows(step, u, rep)
                l_elem = rep.l_elem if rep is not None else None
                write_vtk(outdir / f"snap_{step:06d}.vtk", mesh, case.gas,
                          u, l_elem=l_elem)

        try:
            u, _ = advance(stepper, u0, 0.0, t_final, cfl,
                           callback=callback, collect=False)
        except (FloatingPointError, RuntimeError) as exc:
            print(f"aborted: {exc}", file=sys.stderr)
            return 1

        # the final step always enters the limiter record
        if last["rep"] is not None and last["recorded"] != last["step"]:
            write_limiter_rows(last["step"], u, last["rep"])

        if case.exact is not None:
            e1 = error_norms(u, mesh, case, t=t_final, p=1)
            e2 = error_norms(u, mesh, case, t=t_final, p=2)
            diag.write(f"# final_L1 = {_fmt(e1)}\n")
            diag.write(f"# final_L2 = {_fmt(e2)}\n")
            print(f"final relative errors: L1 = {e1:.6e}  L2 = {e2:.6e}")

    _write_fields_csv(outdir / "final.csv", mesh, case.gas, u)
    l_elem = last["rep"].l_elem if last["rep"] is not None else None
    write_vtk(outdir / "final.vtk", mesh, case.gas, u, l_elem=l_elem)
    print(f"done: t = {t_final:g}, min rho = {u[..., 0].min():.3e}, "
          f"min rhoe = {internal_energy(u).min():.3e}")
    print(f"outputs in {outdir}")
    return 0


def _write_fields_csv(path, mesh: Mesh, gas, u):
    """final.csv: per node the element, the coordinates, the conserved and
    the primitive variables, formed and written a block of elements at a
    time (:func:`_write_blocks`)."""
    if mesh.dim == 1:
        cols = ["element", "x", "rho", "mom_x", "energy", "u", "p"]
    else:
        cols = ["element", "x", "y", "rho", "mom_x", "mom_y", "energy",
                "u", "v", "p"]
    Np = u.shape[1]

    def rows(ks):
        uk = u[ks]
        prim = conserved_to_primitive(uk, gas)
        element = [f"{k}" for k in range(ks.start, ks.stop) for _ in range(Np)]
        data = np.concatenate([mesh.xy[ks], uk, prim[..., 1:]], axis=-1)
        return _csv_rows([element, *data.reshape(-1, len(cols) - 1).T])

    with open(path, "w", newline="") as f:
        f.write(f"# {SCHEMA} fields\n")
        f.write(",".join(cols) + "\n")
        _write_blocks(f, u.shape[0], Np, rows)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def convergence(cfg: RunConfig, Ks: list) -> int:
    """March the configured case on each mesh in Ks; write the error table.

    Rates are log2(e_coarse / e_fine), reported only where the sequence
    actually doubles.
    """
    if get_case(cfg.case).exact is None:
        print(f"case {cfg.case!r} has no exact solution; "
              f"convergence needs one", file=sys.stderr)
        return 2

    rows = []
    for K in Ks:
        run_cfg = dataclasses.replace(cfg, K=K, Kx=None, Ky=None)
        case, mesh, stepper, u0, cfl, t_final = setup(run_cfg)
        try:
            u, _ = advance(stepper, u0, 0.0, t_final, cfl, collect=False)
        except (FloatingPointError, RuntimeError) as exc:
            print(f"aborted at K={K}: {exc}", file=sys.stderr)
            return 1
        e1 = error_norms(u, mesh, case, t=t_final, p=1)
        e2 = error_norms(u, mesh, case, t=t_final, p=2)
        rows.append((K, e1, e2))
        log.info("K=%d  L1=%.6e  L2=%.6e", K, e1, e2)

    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "convergence.csv"
    with open(path, "w", newline="") as f:
        f.write(f"# {SCHEMA} convergence case={cfg.case} "
                f"elem={cfg.elem or 'default'} N={cfg.N} mode={cfg.mode} "
                f"zeta={_fmt(cfg.zeta)}\n")
        f.write("K,L1,rate_L1,L2,rate_L2\n")
        print(f"{'K':>6} {'L1':>13} {'rate':>6} {'L2':>13} {'rate':>6}")
        for i, (K, e1, e2) in enumerate(rows):
            doubled = i > 0 and K == 2 * rows[i - 1][0]
            r1 = np.log2(rows[i - 1][1] / e1) if doubled else None
            r2 = np.log2(rows[i - 1][2] / e2) if doubled else None
            f.write(_csv_line([f"{K}", e1, "" if r1 is None else _fmt(r1),
                               e2, "" if r2 is None else _fmt(r2)]) + "\n")
            print(f"{K:6d} {e1:13.4e} "
                  + (f"{r1:6.2f} " if r1 is not None else f"{'':6} ")
                  + f"{e2:13.4e}"
                  + (f" {r2:6.2f}" if r2 is not None else ""))
    print(f"table written to {path}")
    return 0


# ---------------------------------------------------------------------------
# VTK output
# ---------------------------------------------------------------------------

_VTK_TYPE = {"line": 3, "quad": 9, "tri": 5}


def _subgrid_cells(mesh: Mesh) -> np.ndarray:
    """Reference-element subcell connectivity over the solution nodes.

    Lines split into N segments, quads into N^2 subquads on the tensor
    grid; triangles use the tabulated Delaunay triangulation of their
    nodes.
    """
    N = mesh.N
    if mesh.elem == "line":
        idx = np.arange(N)
        return np.stack([idx, idx + 1], axis=1)
    if mesh.elem == "quad":
        n = N + 1
        i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        i, j = i.ravel(), j.ravel()
        flat = lambda a, b: b * n + a
        return np.stack([flat(i, j), flat(i + 1, j),
                         flat(i + 1, j + 1), flat(i, j + 1)], axis=1)
    return np.array(TRI_TABLES[N]["subcells"])


# (weak reference to the mesh, its encoded geometry block): every snapshot
# of a run writes the same mesh, whose nodes and cells are fixed
_vtk_geometry_cache = (None, b"")


def _vtk_geometry(mesh: Mesh) -> bytes:
    """The POINTS, CELLS and CELL_TYPES sections of ``mesh``, cached for
    the most recent mesh."""
    global _vtk_geometry_cache
    ref, blob = _vtk_geometry_cache
    if ref is not None and ref() is mesh:
        return blob
    K, Np = mesh.xy.shape[:2]
    pts = np.zeros((K * Np, 3))
    pts[:, :mesh.dim] = mesh.xy.reshape(K * Np, mesh.dim)
    sub = _subgrid_cells(mesh)[None] + (np.arange(K) * Np)[:, None, None]
    n_cells, m = K * sub.shape[1], sub.shape[2]
    cells = np.insert(sub.reshape(n_cells, m), 0, m, axis=1)
    blob = b"".join([
        f"POINTS {K * Np} double\n".encode(), pts.astype(">f8").tobytes(),
        f"\nCELLS {n_cells} {cells.size}\n".encode(),
        cells.astype(">i4").tobytes(), f"\nCELL_TYPES {n_cells}\n".encode(),
        np.full(n_cells, _VTK_TYPE[mesh.elem]).astype(">i4").tobytes(), b"\n"])
    _vtk_geometry_cache = (weakref.ref(mesh), blob)
    return blob


def write_vtk(path, mesh: Mesh, gas, u, l_elem=None):
    """Binary (big-endian) legacy VTK unstructured grid of the nodal
    subgrid: ASCII header lines, each followed by its raw ``double`` or
    ``int`` array and a newline, so every value round-trips exactly. The
    sections are written in order, not joined into one buffer first.

    Point data: rho, u, v, p, the Schlieren transform of rho, and the
    per-element limiter parameter l_e broadcast to the element's nodes
    (all ones when no limiter ran).
    """
    K, Np = mesh.xy.shape[:2]
    prim = conserved_to_primitive(u, gas)
    l_e = np.ones(K) if l_elem is None else np.asarray(l_elem, dtype=float)
    data = [
        ("rho", u[..., 0]),
        ("u", prim[..., 1]),
        ("v", prim[..., 2] if mesh.dim == 2 else np.zeros(K * Np)),
        ("p", prim[..., -1]),
        ("schlieren", schlieren(u[..., 0], mesh)),
        ("l_e", np.repeat(l_e, Np)),
    ]

    parts = [b"# vtk DataFile Version 3.0\nposdg fields\nBINARY\n"
             b"DATASET UNSTRUCTURED_GRID\n", _vtk_geometry(mesh),
             f"POINT_DATA {K * Np}\n".encode()]
    for name, arr in data:
        parts += [f"SCALARS {name} double\nLOOKUP_TABLE default\n".encode(),
                  arr.astype(">f8").tobytes(), b"\n"]
    with open(path, "wb") as f:
        f.writelines(parts)


# ---------------------------------------------------------------------------
# operator report
# ---------------------------------------------------------------------------


def ops_check(elem: str, N: int, dump=None) -> int:
    """Print the reference-operator residuals of :func:`posdg.sbp.check_ops`;
    0 when all pass. ``dump`` names a directory for the matrices."""
    ops = build_ops(elem, N)
    status = 0
    for name, val, tol in check_ops(ops):
        verdict = "ok" if val <= tol else "FAIL"
        if verdict == "FAIL":
            status = 1
        print(f"{name:40s} {val:10.3e}  (tol {tol:.0e})  {verdict}")
    if dump is not None:
        _dump_ops(ops, Path(dump))
        print(f"operator matrices written to {dump}")
    return status


def _dump_ops(ops, outdir: Path):
    """Row-major plain-text matrices for cross-implementation comparison."""
    outdir.mkdir(parents=True, exist_ok=True)
    mats = {"nodes": ops.nodes, "weights": ops.weights[:, None],
            "E": ops.E}
    for k in range(ops.dim):
        mats[f"Q{k}"] = ops.Q[k]
        mats[f"QL{k}"] = ops.QL[k]
        mats[f"B{k}"] = ops.Bdiag[k][:, None]
    for name, mat in mats.items():
        with open(outdir / f"{name}.txt", "w", newline="") as f:
            f.write(f"# {ops.elem} N={ops.degree} {name} "
                    f"{mat.shape[0]}x{mat.shape[1]}\n")
            for row in np.atleast_2d(mat):
                f.write(" ".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _cap_workers():
    w = os.environ.get("POSDG_WORKERS")
    if not w:
        return
    try:
        limit = int(w)
    except ValueError:
        raise SystemExit(f"POSDG_WORKERS must be an integer, got {w!r}")
    try:
        import threadpoolctl
    except ImportError:
        return  # the env vars seeded at import time still apply
    threadpoolctl.threadpool_limits(limit)


def _overrides(args) -> dict:
    out = {}
    for name in ("N", "K", "elem", "mode", "zeta", "cfl", "t_final",
                 "outdir"):
        val = getattr(args, name, None)
        if val is not None:
            out[name] = val
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="posdg",
        description="entropy-stable DG solver with positivity limiting")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a key = value config file")
    for name, typ in (("N", int), ("elem", str), ("mode", str),
                      ("zeta", float), ("cfl", float), ("t_final", float),
                      ("outdir", str)):
        common.add_argument(f"--{name}", type=typ, default=None,
                            help=f"override the config {name}")

    runp = sub.add_parser("run", parents=[common],
                          help="march a configured case to its final time")
    runp.add_argument("--K", type=int, default=None,
                      help="override the config K")
    conv = sub.add_parser("convergence", parents=[common],
                          help="error table over a mesh refinement sequence")
    conv.add_argument("--K", dest="K_list", required=True,
                      help="comma-separated element counts, e.g. 50,100,200")
    ops = sub.add_parser("ops-check",
                         help="reference-operator identity report: SBP "
                              "identity and conservation of Q and QL, "
                              "derivative exactness, one-hot extraction")
    ops.add_argument("--elem", required=True, choices=("line", "quad", "tri"))
    ops.add_argument("--N", type=int, required=True)
    ops.add_argument("--dump", default=None,
                     help="directory for plain-text operator matrices")
    cases = sub.add_parser("cases", help="query the benchmark catalog")
    cases.add_argument("action", choices=("list",))

    args = parser.parse_args(argv)
    _cap_workers()
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    if args.command == "cases":
        for name in sorted(CASES):
            spec = get_case(name)
            print(f"{name:20s} {spec.dim}D  t_final={spec.t_final:g}  "
                  f"cfl={spec.cfl:g}")
        return 0
    if args.command == "ops-check":
        if not 1 <= args.N <= MAX_N[args.elem]:
            print(f"N must lie in 1..{MAX_N[args.elem]} for {args.elem}",
                  file=sys.stderr)
            return 2
        return ops_check(args.elem, args.N, dump=args.dump)

    overrides = _overrides(args)
    Ks = None
    if args.command == "convergence":
        try:
            Ks = [int(s) for s in args.K_list.split(",") if s.strip()]
        except ValueError:
            print(f"--K: expected comma-separated integers, "
                  f"got {args.K_list!r}", file=sys.stderr)
            return 2
        if not Ks or any(K < 1 for K in Ks):
            print(f"--K: counts must be positive, got {args.K_list!r}",
                  file=sys.stderr)
            return 2
        # the sequence supplies the mesh size; seed validation with it
        overrides["K"] = Ks[0]

    try:
        cfg = load_config(args.config, overrides)
    except FileNotFoundError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config: {problem}", file=sys.stderr)
        return 2

    if args.command == "run":
        return run(cfg)
    return convergence(cfg, Ks)


if __name__ == "__main__":
    sys.exit(main())
