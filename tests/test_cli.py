"""Tests for the command-line driver.

Covers config parsing with all-at-once validation, the run and
convergence artifacts (schema line, required diagnostics columns,
rate layout), structural validity of the legacy VTK output, the
operator report, and byte-level determinism of repeated runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posdg
from posdg.cases import get_case
from posdg.cli import (
    SCHEMA,
    ConfigError,
    RunConfig,
    _csv_line,
    _limiter_rows,
    _write_fields_csv,
    convergence,
    load_config,
    main,
    make_config,
    ops_check,
    parse_config,
    run,
    setup,
    write_vtk,
)
from posdg.limiter import LimiterReport
from posdg.mesh import rect_mesh
from posdg.physics import conserved_to_primitive, internal_energy

from oracles import write_vtk_ascii_ref


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_parse_config_skips_comments_and_blanks():
    raw = parse_config(
        "# a full-line comment\n"
        "case = leblanc   # trailing comment\n"
        "\n"
        "N = 2\n"
        "zeta = 0.5\n")
    assert raw == {"case": "leblanc", "N": "2", "zeta": "0.5"}


def test_parse_config_rejects_malformed_and_duplicate_lines():
    with pytest.raises(ConfigError) as exc:
        parse_config("case = leblanc\njust words\ncase = vortex\n")
    msgs = exc.value.problems
    assert len(msgs) == 2
    assert "line 2" in msgs[0]
    assert "duplicate" in msgs[1]


def test_make_config_applies_defaults_and_types():
    cfg = make_config({"case": "leblanc", "N": "2", "K": "50",
                       "shock_capture": "yes"})
    assert cfg == RunConfig(case="leblanc", N=2, K=50, shock_capture=True)
    assert cfg.mode == "elementwise" and cfg.zeta == 0.1


def test_make_config_reports_all_problems_at_once():
    for zeta in ("-1", "1.5"):
        with pytest.raises(ConfigError) as exc:
            make_config({"case": "nosuch", "N": "0", "K": "-1",
                         "mode": "wild", "zeta": zeta, "cfl": "2",
                         "frobnicate": "1"})
        text = str(exc.value)
        for field in ("case", "N", "K", "mode", "zeta: must lie in [0, 1]",
                      "cfl", "frobnicate"):
            assert field in text


def test_make_config_rejects_shock_capture_without_a_limiter():
    base = {"case": "leblanc", "N": "2", "K": "50", "shock_capture": "yes"}
    for mode in ("none", "low-only"):
        with pytest.raises(ConfigError, match="shock_capture: needs a "
                                              "limited mode"):
            make_config(dict(base, mode=mode))
    for mode in ("elementwise", "convex"):
        assert make_config(dict(base, mode=mode)).shock_capture


def test_make_config_requires_case_and_n():
    with pytest.raises(ConfigError) as exc:
        make_config({"K": "10"})
    assert "case" in str(exc.value) and "'N'" in str(exc.value)


def test_make_config_mesh_size_exclusivity():
    with pytest.raises(ConfigError, match="not both"):
        make_config({"case": "vortex", "N": "2", "K": "4", "Kx": "8",
                     "Ky": "4"})
    with pytest.raises(ConfigError, match="together"):
        make_config({"case": "vortex", "N": "2", "Kx": "8"})
    with pytest.raises(ConfigError, match="two-dimensional"):
        make_config({"case": "leblanc", "N": "2", "Kx": "8", "Ky": "4"})
    cfg = make_config({"case": "vortex", "N": "2", "Kx": "8", "Ky": "4"})
    assert (cfg.K, cfg.Kx, cfg.Ky) == (None, 8, 4)


def test_make_config_element_dimension_consistency():
    with pytest.raises(ConfigError, match="one-dimensional"):
        make_config({"case": "leblanc", "N": "2", "K": "10",
                     "elem": "quad"})
    with pytest.raises(ConfigError, match="two-dimensional"):
        make_config({"case": "vortex", "N": "2", "K": "4", "elem": "line"})
    with pytest.raises(ConfigError, match="ship up to"):
        make_config({"case": "vortex", "N": "5", "K": "4", "elem": "tri"})


def test_load_config_overrides_win(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("case = leblanc\nN = 2\nK = 50\nzeta = 0.1\n")
    cfg = load_config(path, {"K": 100, "zeta": 0.5})
    assert cfg.K == 100 and cfg.zeta == 0.5 and cfg.N == 2


# ---------------------------------------------------------------------------
# setup dispatch
# ---------------------------------------------------------------------------

def test_setup_low_only_skips_high_order_scheme():
    cfg = make_config({"case": "vortex", "N": "2", "K": "2",
                       "mode": "low-only"})
    _, mesh, stepper, u0, cfl, t_final = setup(cfg)
    assert stepper.high is None
    assert u0.shape == (mesh.n_elements, mesh.xy.shape[1], 4)
    assert cfl == get_case("vortex").cfl and t_final == 2.0


def test_setup_wall_flavor_override():
    base = make_config({"case": "dmr", "N": "1", "K": "4"})
    assert setup(base)[0].bcs.table[1].mode == "riemann"
    mirrored = make_config({"case": "dmr", "N": "1", "K": "4",
                            "wall_riemann": "false"})
    assert setup(mirrored)[0].bcs.table[1].mode == "mirror"


def test_setup_explicit_kx_ky():
    cfg = make_config({"case": "vortex", "N": "1", "Kx": "6", "Ky": "2"})
    _, mesh, _, _, _, _ = setup(cfg)
    assert mesh.n_elements == 12


def test_setup_tri_uses_tri_cfl():
    cfg = make_config({"case": "vortex", "N": "2", "K": "2", "elem": "tri"})
    assert setup(cfg)[4] == get_case("vortex").cfl_tri


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def leblanc_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("leblanc_run")
    cfg = make_config({"case": "leblanc", "N": "2", "K": "25",
                       "t_final": "0.05", "snap_every": "5",
                       "outdir": str(outdir)})
    status = run(cfg)
    return status, outdir


def test_run_completes_and_writes_artifacts(leblanc_run):
    status, outdir = leblanc_run
    assert status == 0
    for name in ("diagnostics.csv", "limiter.csv", "final.csv", "final.vtk"):
        assert (outdir / name).exists(), name
    assert list(outdir.glob("snap_*.vtk"))


def test_run_diagnostics_schema_and_positivity(leblanc_run):
    _, outdir = leblanc_run
    lines = (outdir / "diagnostics.csv").read_text().splitlines()
    assert lines[0].startswith("# posdg-csv v1 diagnostics")
    header = lines[1].split(",")
    assert "min_rho" in header and "min_rhoe" in header
    rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("#")]
    irho, irhoe = header.index("min_rho"), header.index("min_rhoe")
    for row in rows:
        assert float(row[irho]) > -1e-14
        assert float(row[irhoe]) > -1e-14
    # steps are consecutive from 1: the log is per-step, no gaps
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert any(ln.startswith("# final_L1") for ln in lines)


def test_run_limiter_csv_layout(leblanc_run):
    _, outdir = leblanc_run
    lines = (outdir / "limiter.csv").read_text().splitlines()
    assert lines[1] == "step,element,l_e,xi,min_rho,min_rhoe"
    rows = [ln.split(",") for ln in lines[2:]]
    assert rows, "limiter record must cover at least the final step"
    K = 25
    # every recorded step covers all elements exactly once
    steps = sorted({int(r[0]) for r in rows})
    assert len(rows) == K * len(steps)
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0


def test_run_fields_csv_matches_mesh(leblanc_run):
    _, outdir = leblanc_run
    lines = (outdir / "final.csv").read_text().splitlines()
    assert lines[1] == "element,x,rho,mom_x,energy,u,p"
    assert len(lines) == 2 + 25 * 3  # header lines + K * (N+1) nodes


def test_csv_writers_match_per_value_formatting(tmp_path):
    case = get_case("leblanc")
    mesh = case.build_mesh(4, 2)
    u = case.ic(mesh.xy)
    u[..., 0] *= 1.0 + 1e-15  # values needing all 17 digits
    u[0, 0, 1] = -0.0
    prim = conserved_to_primitive(u, case.gas)
    path = tmp_path / "final.csv"
    _write_fields_csv(path, mesh, case.gas, u)
    lines = [f"# {SCHEMA} fields", "element,x,rho,mom_x,energy,u,p"]
    for k in range(mesh.n_elements):
        for i in range(u.shape[1]):
            lines.append(_csv_line([f"{k}"] + list(mesh.xy[k, i])
                                   + list(u[k, i]) + list(prim[k, i, 1:])))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    rho_k = u[..., 0].min(axis=1)
    rhoe_k = internal_energy(u).min(axis=1)
    l_elem = np.linspace(0.0, 1.0, mesh.n_elements) / 3.0
    for xi in (None, np.full(mesh.n_elements, 0.7)):
        xi_k = np.ones(mesh.n_elements) if xi is None else xi
        expected = "".join(
            _csv_line(["12", f"{k}", l_elem[k], xi_k[k], rho_k[k],
                       rhoe_k[k]]) + "\n" for k in range(mesh.n_elements))
        assert _limiter_rows(12, u, LimiterReport(l_elem, xi)) == expected


def test_run_reports_validation_failures_via_main(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("case = leblanc\nN = 0\nK = 10\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "N" in err


def test_run_determinism_bit_identical(tmp_path):
    base = {"case": "vortex", "N": "2", "K": "2", "t_final": "0.1"}
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        cfg = make_config(dict(base, outdir=str(outdir)))
        assert run(cfg) == 0
        outs.append(outdir)
    for name in ("diagnostics.csv", "final.csv", "final.vtk"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_posdg_workers_pins_the_blas_thread_count(tmp_path):
    # a tri vortex sums its nodal rates and scatters through BLAS products,
    # which round differently on more than one thread; POSDG_WORKERS = 1
    # seeds the BLAS variables when posdg.cli is imported, so the run
    # writes the final state of a run with OPENBLAS_NUM_THREADS = 1, byte
    # for byte, on a host with more than one core too
    script = (
        "import sys\n"
        "from posdg.cli import main\n"
        "sys.exit(main(['run', sys.argv[1], '--outdir', sys.argv[2]]))\n")
    cfg = tmp_path / "vortex.cfg"
    cfg.write_text("case = vortex\nelem = tri\nN = 3\nK = 2\n"
                   "mode = convex\nt_final = 0.06\n")
    src = str(Path(posdg.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("POSDG_WORKERS", "OMP_NUM_THREADS",
                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src
    finals = []
    for sub, extra in (("workers", {"POSDG_WORKERS": "1"}),
                       ("blas", {"OPENBLAS_NUM_THREADS": "1"})):
        out = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path / sub)],
            env=dict(env, **extra), capture_output=True, text=True,
            timeout=120)
        assert out.returncode == 0, out.stderr
        finals.append((tmp_path / sub / "final.csv").read_bytes())
    assert finals[0] == finals[1]


def test_run_imports_no_scipy(tmp_path):
    # scipy is a test-only dependency: `posdg run`, VTK snapshots included,
    # must not import it on line, quad or tri meshes
    configs = {
        "line": "case = leblanc\nN = 2\nK = 10\nt_final = 0.02\n",
        "quad": "case = vortex\nN = 2\nK = 1\nelem = quad\nt_final = 0.2\n",
        "tri": "case = vortex\nN = 2\nK = 1\nelem = tri\nt_final = 0.2\n",
    }
    args = []
    for elem, text in configs.items():
        path = tmp_path / f"{elem}.cfg"
        path.write_text(text + f"snap_every = 1\noutdir = {tmp_path / elem}\n")
        args.append(str(path))
    script = (
        "import sys\n"
        "from posdg.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    assert main(['run', path]) == 0, path\n"
        "print('SCIPY', sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(posdg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, POSDG_WORKERS="1")
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "SCIPY []"
    for elem in configs:
        assert len(list((tmp_path / elem).glob("snap_*.vtk"))) > 1, elem


# ---------------------------------------------------------------------------
# convergence driver
# ---------------------------------------------------------------------------

def test_convergence_table_layout(tmp_path):
    cfg = make_config({"case": "viscous-shock", "N": "1", "K": "10",
                       "mode": "low-only", "t_final": "0.02",
                       "outdir": str(tmp_path)})
    assert convergence(cfg, [10, 20, 30]) == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0].startswith("# posdg-csv v1 convergence")
    assert lines[1] == "K,L1,rate_L1,L2,rate_L2"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["10", "20", "30"]
    assert rows[0][2] == "" and rows[0][4] == ""    # no coarser level
    assert rows[1][2] != "" and rows[1][4] != ""    # 10 -> 20 doubles
    assert rows[2][2] == "" and rows[2][4] == ""    # 20 -> 30 does not
    for r in rows:
        assert float(r[1]) > 0 and float(r[3]) > 0


def test_convergence_requires_exact_solution(tmp_path, capsys):
    cfg = make_config({"case": "sedov", "N": "1", "K": "4",
                       "outdir": str(tmp_path)})
    assert convergence(cfg, [4, 8]) == 2
    assert "exact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# VTK writer
# ---------------------------------------------------------------------------

def _decode_vtk(path):
    """(points, connectivity, cell types, {name: point array}) of a binary
    legacy VTK file, decoded strictly: the header reads BINARY, every data
    block has its exact byte count and is followed by a newline, and every
    byte of the file belongs to a section."""
    data = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text = data[pos:end].decode("ascii")
        pos = end + 1
        return text

    def block(count, dtype):
        nonlocal pos
        nbytes = count * np.dtype(dtype).itemsize
        assert pos + nbytes < len(data), "section cut short"
        assert data[pos + nbytes:pos + nbytes + 1] == b"\n"
        out = np.frombuffer(data, dtype, count, pos)
        pos += nbytes + 1
        return out

    assert line() == "# vtk DataFile Version 3.0"
    line()                                              # title
    assert line() == "BINARY"
    assert line() == "DATASET UNSTRUCTURED_GRID"
    key, n_pts, kind = line().split()
    assert (key, kind) == ("POINTS", "double")
    n_pts = int(n_pts)
    points = block(3 * n_pts, ">f8").reshape(n_pts, 3)
    key, n_cells, size = line().split()
    assert key == "CELLS"
    conn = block(int(size), ">i4")
    assert line() == f"CELL_TYPES {n_cells}"
    types = block(int(n_cells), ">i4")
    assert line() == f"POINT_DATA {n_pts}"
    arrays = {}
    while pos < len(data):
        key, name, kind = line().split()
        assert (key, kind) == ("SCALARS", "double")
        assert line() == "LOOKUP_TABLE default"
        arrays[name] = block(n_pts, ">f8")
    assert pos == len(data)
    return points, conn, types, arrays


def _decode_vtk_ascii(path):
    """The sections of an ASCII legacy VTK file, as :func:`_decode_vtk`."""
    lines = path.read_text().splitlines()
    assert lines[2] == "ASCII"
    n_pts = int(lines[4].split()[1])
    i = 5 + n_pts
    points = np.array([[float(v) for v in ln.split()]
                       for ln in lines[5:i]])
    n_cells = int(lines[i].split()[1])
    conn = np.array([int(v) for ln in lines[i + 1:i + 1 + n_cells]
                     for v in ln.split()])
    i += 2 + n_cells
    types = np.array([int(v) for v in lines[i:i + n_cells]])
    i += n_cells + 1
    arrays = {}
    while i < len(lines):
        arrays[lines[i].split()[1]] = np.array(
            [float(v) for v in lines[i + 2:i + 2 + n_pts]])
        i += 2 + n_pts
    return points, conn, types, arrays


def _parse_vtk(path):
    points, conn, types, arrays = _decode_vtk(path)
    cells, i = [], 0
    while i < len(conn):
        cells.append(conn[i:i + 1 + conn[i]].tolist())
        i += 1 + conn[i]
    assert len(cells) == len(types)
    return (len(points), cells, types.tolist(),
            {name: arr.tolist() for name, arr in arrays.items()})


@pytest.mark.parametrize("elem,vtk_type,nodes_per_cell",
                         [("quad", 9, 4), ("tri", 5, 3)])
def test_write_vtk_structure(tmp_path, elem, vtk_type, nodes_per_cell):
    case = get_case("vortex")
    (ax, bx), (ay, by) = case.domain
    mesh = rect_mesh(elem, (ax, bx, ay, by), 4, 2, 2,
                     periodic=case.periodic)
    u = case.ic(mesh.xy)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, case.gas, u)
    n_pts, cells, types, arrays = _parse_vtk(path)
    assert n_pts == mesh.n_elements * mesh.xy.shape[1]
    assert set(types) == {vtk_type}
    for c in cells:
        assert c[0] == nodes_per_cell
        assert all(0 <= j < n_pts for j in c[1:])
    assert set(arrays) == {"rho", "u", "v", "p", "schlieren", "l_e"}
    assert np.allclose(arrays["rho"], u[..., 0].reshape(-1))
    assert all(v == 1.0 for v in arrays["l_e"])


def test_write_vtk_line_elements(tmp_path):
    case = get_case("leblanc")
    mesh = case.build_mesh(5, 3)
    u = case.ic(mesh.xy)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, case.gas, u, l_elem=np.full(5, 0.25))
    n_pts, cells, types, arrays = _parse_vtk(path)
    assert n_pts == 5 * 4
    assert len(cells) == 5 * 3 and set(types) == {3}
    assert all(v == 0.25 for v in arrays["l_e"])
    assert all(v == 0.0 for v in arrays["v"])


def test_write_vtk_roundtrips_doubles(tmp_path):
    case = get_case("leblanc")
    mesh = case.build_mesh(3, 2)
    u = case.ic(mesh.xy)
    u[..., 0] *= 1.0 + 1e-15  # force a value needing all 17 digits
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, case.gas, u)
    _, _, _, arrays = _parse_vtk(path)
    assert arrays["rho"] == u[..., 0].reshape(-1).tolist()


# ---------------------------------------------------------------------------
# operator report and catalog listing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N", [("line", 4), ("quad", 2), ("tri", 3)])
def test_ops_check_passes(elem, N, capsys):
    assert ops_check(elem, N) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "SBP identity" in out


def test_ops_check_dump_writes_matrices(tmp_path, capsys):
    assert ops_check("quad", 1, dump=tmp_path / "ops") == 0
    capsys.readouterr()
    q0 = (tmp_path / "ops" / "Q0.txt").read_text().splitlines()
    assert q0[0].startswith("# quad N=1")
    mat = np.array([[float(v) for v in row.split()] for row in q0[1:]])
    ones = np.ones(mat.shape[1])
    assert np.abs(mat @ ones).max() < 1e-13


def test_main_cases_list(capsys):
    assert main(["cases", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("leblanc", "vortex", "sedov", "dmr"):
        assert name in out


def test_main_ops_check_rejects_degree_out_of_range(capsys):
    assert main(["ops-check", "--elem", "tri", "--N", "5"]) == 2
    assert "1..4" in capsys.readouterr().err


@pytest.mark.parametrize("with_l", [False, True])
@pytest.mark.parametrize("elem", ["line", "quad", "tri"])
def test_write_vtk_matches_ascii_oracle(tmp_path, elem, with_l):
    # the binary file decodes to exactly the values the 17-digit ASCII
    # writer prints, geometry included
    rng = np.random.default_rng(3)
    if elem == "line":
        case = get_case("leblanc")
        mesh = case.build_mesh(5, 3)
    else:
        case = get_case("vortex")
        (ax, bx), (ay, by) = case.domain
        mesh = rect_mesh(elem, (ax, bx, ay, by), 3, 2, 3,
                         periodic=case.periodic)
    noise = 1.0 + 1e-3 * rng.random(mesh.xy.shape[:2])
    u = case.ic(mesh.xy) * noise[..., None]
    l_elem = rng.random(mesh.n_elements) if with_l else None
    write_vtk(tmp_path / "b.vtk", mesh, case.gas, u, l_elem=l_elem)
    write_vtk_ascii_ref(tmp_path / "a.vtk", mesh, case.gas, u, l_elem=l_elem)
    new = _decode_vtk(tmp_path / "b.vtk")
    ref = _decode_vtk_ascii(tmp_path / "a.vtk")
    for a, b in zip(new[:3], ref[:3]):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert list(new[3]) == list(ref[3])
    for name in ref[3]:
        assert np.array_equal(new[3][name], ref[3][name]), name
