import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from berg.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args, **kw):
    result = runner.invoke(main, args, **kw)
    assert result.exit_code == 0, result.output
    return result.output


def test_ball_kernel_cmd(runner):
    out = _invoke(runner, ["ball-kernel", "--dim", "2", "--z", "0,0", "--w", "0,0"])
    data = json.loads(out)
    assert data["re"] == pytest.approx(2 / math.pi**2)
    assert data["im"] == 0


def test_ball_kernel_usage_error(runner):
    result = runner.invoke(main, ["ball-kernel", "--dim", "2", "--z", "0", "--w", "0,0"])
    assert result.exit_code == 2


def test_levi_cmd_builtin_and_file(runner, tmp_path):
    out = _invoke(runner, ["levi", "--rho", "sphere-2", "--point", "1,0"])
    data = json.loads(out)
    assert data["strictly_pseudoconvex"] and data["eigenvalues"] == [1.0]

    out = _invoke(runner, ["levi", "--rho", "u-domain", "--point", "0,0.5,0"])
    assert json.loads(out)["smooth"] is False

    # in C^1 the complex tangent space is {0}: vacuously strictly pseudoconvex
    out = _invoke(runner, ["levi", "--rho", "sphere-1", "--point", "1"])
    assert json.loads(out) == {"eigenvalues": [], "gradient_norm": 1.0, "smooth": True, "strictly_pseudoconvex": True}

    from berg.ball import sphere_defining_function

    path = tmp_path / "rho.json"
    path.write_text(json.dumps(sphere_defining_function(2).rho.to_json_dict()))
    out = _invoke(runner, ["levi", "--rho", str(path), "--point", "0,1"])
    assert json.loads(out)["eigenvalues"] == [1.0]


def test_levi_rejects_a_rho_that_is_not_real_valued(runner, tmp_path):
    terms = [[[1, 0], [1, 0], 1, 0], [[0, 1], [0, 1], 1, 0], [[1, 0], [0, 1], 0.5, 0], [[0, 0], [0, 0], -1, 0]]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dim": 2, "terms": terms}))
    result = runner.invoke(main, ["levi", "--rho", str(path), "--point", "0,1"])
    _one_line_usage_error(result)
    assert "real-valued" in result.output


def test_levi_off_surface_is_usage_error(runner):
    result = runner.invoke(main, ["levi", "--rho", "sphere-2", "--point", "0.5,0"])
    assert result.exit_code == 2
    _one_line_usage_error(runner.invoke(main, ["levi", "--rho", "sphere-x", "--point", "1,0"]))


GENS_I = [[[{"zeta": 4, "terms": [[1, "1"]]}, [0, 0]], [[0, 0], {"zeta": 4, "terms": [[1, "1"]]}]]]
GENS_MINUS = [[[{"zeta": 2, "terms": [[1, "1"]]}, [0, 0]], [[0, 0], {"zeta": 2, "terms": [[1, "1"]]}]]]
GENS_REFL = [[[{"zeta": 2, "terms": [[1, "1"]]}, [0, 0]], [[0, 0], [1, 0]]]]


def test_group_cmd(runner, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(GENS_I))
    data = json.loads(_invoke(runner, ["group", "--gens", str(path), "--check", "fpf"]))
    assert data == {"dim": 2, "exact": True, "fixed_point_free": True, "order": 4}

    path.write_text(json.dumps(GENS_REFL))
    data = json.loads(_invoke(runner, ["group", "--gens", str(path), "--check", "reflections"]))
    assert data["order"] == 2 and data["reflections"] == 1


ROTATION_5 = [math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)]


@pytest.mark.parametrize(
    "gens, exact, order",
    [
        pytest.param(GENS_REFL, True, 2, id="exact-minus"),
        pytest.param([[[[-1, 0], [0, 0]], [[0, 0], [1, 0]]]], False, 2, id="float-minus"),
        pytest.param([[[ROTATION_5, [0, 0]], [[0, 0], [1, 0]]]], False, 5, id="float-rotation-5"),
    ],
)
def test_group_checks_report_the_fixed_line_of_e2(runner, tmp_path, gens, exact, order):
    path = _write(tmp_path, "gens.json", gens)
    out = _invoke(runner, ["group", "--gens", path, "--check", "fpf"])
    assert out == json.dumps({"dim": 2, "exact": exact, "fixed_point_free": False, "order": order,
                              "witness_vector": [[0.0, 0.0], [1.0, 0.0]]}) + "\n"
    out = _invoke(runner, ["group", "--gens", path, "--check", "reflections"])
    assert json.loads(out) == {"dim": 2, "exact": exact, "order": order, "reflections": order - 1}


def test_basic_map_cmd_replays_and_writes_nothing(runner, tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(GENS_MINUS))
    out1 = _invoke(runner, ["basic-map", "--group", str(path), "--syzygies", "2"])
    data = json.loads(out1)
    assert data["degrees"] == [2, 2, 2]
    assert len(data["syzygies"]) == 1
    out2 = _invoke(runner, ["basic-map", "--group", str(path), "--syzygies", "2"])
    assert out1 == out2
    assert not list(home.iterdir())


def test_basic_map_has_no_cache_option(runner, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(GENS_MINUS))
    result = runner.invoke(main, ["basic-map", "--group", str(path), "--no-cache"])
    assert result.exit_code == 2 and "No such option" in result.output


def _one_line_usage_error(result):
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output


NON_UNITARY = [[[{"zeta": 4, "terms": [[1, "2"]]}]]]
MALFORMED = [[[1]]]
INFINITE_ZETA = [[[{"zeta": math.inf, "terms": []}]]]
Z5 = [[[{"zeta": 5, "terms": [[1, "1"]]}]]]
FLOAT_I = [[[[0, 1], [0, 0]], [[0, 0], [0, -1]]]]  # diag(i, -i) as [re, im] pairs
NOT_JSON = "[[[1"


@pytest.mark.parametrize(
    "command, gens, extra",
    [
        (["group", "--gens"], NON_UNITARY, []),
        (["group", "--gens"], MALFORMED, []),
        (["group", "--gens"], INFINITE_ZETA, []),
        (["group", "--gens"], Z5, ["--max-order", "3"]),
        (["basic-map", "--group"], FLOAT_I, []),
        (["basic-map", "--group"], NOT_JSON, []),
        (["group", "--gens"], None, []),
        (["group", "--gens"], [[]], []),
        (["basic-map", "--group"], [[]], []),
    ],
    ids=[
        "non-unitary",
        "malformed",
        "infinite-zeta",
        "closure-overflow",
        "basic-map-float-group",
        "not-json",
        "missing-file",
        "no-rows",
        "basic-map-no-rows",
    ],
)
def test_group_input_errors_exit_2(runner, tmp_path, command, gens, extra):
    path = tmp_path / "gens.json"
    if gens is not None:
        path.write_text(gens if isinstance(gens, str) else json.dumps(gens))
    _one_line_usage_error(runner.invoke(main, command + [str(path)] + extra))


@pytest.mark.parametrize(
    "args",
    [
        ["ball-kernel", "--dim", "1", "--z", "1", "--w", "1"],
        ["omega-kernel", "--z", "0,0", "--lambda", "1"],
        ["omega-kernel", "--z", "0,0", "--lambda", "2", "--series", "5"],
        ["ball-kernel", "--dim", "2", "--z", "x,0", "--w", "0,0"],
        ["ball-kernel", "--dim", "2", "--z", "0", "--w", "0,0"],
        ["omega-kernel", "--z", "0", "--lambda", "0.1"],
    ],
    ids=[
        "singular-ball",
        "boundary-contact",
        "divergent-series",
        "unparsable-coordinate",
        "ball-wrong-dimension",
        "omega-wrong-dimension",
    ],
)
def test_kernel_evaluation_errors_exit_2(runner, args):
    _one_line_usage_error(runner.invoke(main, args))


SAMPLES_FILE = "<samples file>"  # the test writes these and puts their paths here
GROUP_FILE = "<group file>"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["levi", "--rho", "sphere-2", "--point", "0.5,0"], "not on the zero set",
                     id="levi-off-surface"),
        pytest.param(["fit", "--kernel", "disk", "--dz", "1", "--dk", "1", "--samples", "1"],
                     "underdetermined fit", id="fit-underdetermined"),
        pytest.param(["fit", "--kernel", "disk", "--dz", "-1", "--dk", "1"],
                     "feature_degree must be at least 0, got -1", id="fit-negative-feature-degree"),
        pytest.param(["fit", "--kernel", "disk", "--dz", "1", "--dk", "1", "--samples", "-5"],
                     "sample count must be at least 1, got -5", id="fit-negative-samples"),
        pytest.param(["omega-grid", "--fiber", "1"], "--fiber must lie in (0, 1)", id="grid-fiber-on-boundary"),
        pytest.param(["omega-grid", "--fiber", "1.5"], "--fiber must lie in (0, 1)", id="grid-fiber-outside"),
        pytest.param(["omega-grid", "--fiber", "-1"], "--fiber must lie in (0, 1)", id="grid-fiber-negative"),
        pytest.param(["omega-grid", "--rmax", "-1"], "--rmax must be positive", id="grid-rmax-negative"),
        pytest.param(["omega-grid", "--steps", "0"], "--steps must be at least 1", id="grid-no-steps"),
        pytest.param(["moments", "--m", "2", "--alpha", "x"], "unusable monomial",
                     id="moments-alpha-unparsable"),
        pytest.param(["moments", "--m", "2", "--alpha", "1,1,1"], "alpha length must match",
                     id="moments-alpha-wrong-dimension"),
        pytest.param(["moments", "--m", "-1", "--alpha", "0,0"], "m must be nonnegative",
                     id="moments-m-negative"),
        pytest.param(["verify", "repro", "--n", "0"], "--n must be at least 2", id="repro-no-samples"),
        pytest.param(["verify", "orthogonality", "--n", "-4"], "--n must be at least 2",
                     id="orthogonality-negative-samples"),
        # one sample has no standard error, and JSON has no Infinity
        pytest.param(["verify", "repro", "--n", "1"], "--n must be at least 2, got 1", id="repro-one-sample"),
        pytest.param(["verify", "orthogonality", "--n", "1"], "--n must be at least 2, got 1",
                     id="orthogonality-one-sample"),
        pytest.param(["verify", "transform", "--n", "5"], "--n does not apply to the transform suite",
                     id="transform-samples"),
        pytest.param(["verify", "isometry", "--N", "5"], "--n does not apply to the isometry suite",
                     id="isometry-samples"),
        pytest.param(["verify", "isometry", "--seed", "5"], "--seed does not apply to the isometry suite",
                     id="isometry-seed"),
        pytest.param(["verify", "repro", "--n", "1000", "--tol", "1e-3"], "--tol does not apply to the repro suite",
                     id="repro-tol"),
        pytest.param(["verify", "orthogonality", "--n", "1000", "--tol", "1e-30"],
                     "--tol does not apply to the orthogonality suite", id="orthogonality-tol"),
        pytest.param(["fit", "--kernel", SAMPLES_FILE, "--dz", "0", "--dk", "1", "--samples", "-5"],
                     "--samples does not apply to a samples file", id="fit-samples-file-count"),
        pytest.param(["fit", "--kernel", SAMPLES_FILE, "--dz", "0", "--dk", "1", "--seed", "7"],
                     "--seed does not apply to a samples file", id="fit-samples-file-seed"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.2,0.3"], "--lambda takes one complex value",
                     id="omega-two-lambdas"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.2", "--tau", "0.1,5"],
                     "--tau takes one complex value", id="omega-two-taus"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.2", "--series", "-3"],
                     "--series must be a nonnegative truncation", id="omega-series-negative"),
        pytest.param(["fit", "--kernel", SAMPLES_FILE, "--dz", "0", "--dk", "1", "--boundary-check"],
                     "'boundary_features'", id="fit-samples-file-boundary-check"),
        pytest.param(["fit", "--kernel", "annulus", "--dz", "2", "--dk", "1", "--boundary-check"],
                     "surface annulus has no boundary sampler", id="fit-annulus-boundary-check"),
        pytest.param(["fit", "--kernel", "u", "--dz", "2", "--dk", "1", "--boundary-check"],
                     "surface u has no boundary sampler", id="fit-u-boundary-check"),
        pytest.param(["basic-map", "--group", GROUP_FILE, "--syzygies", "-1"],
                     "--syzygies must be a nonnegative degree bound, got -1", id="basic-map-negative-syzygies"),
        pytest.param(["verify", "transform", "--seed", "-1"], "seed: expected non-negative integer, got -1",
                     id="transform-negative-seed"),
        pytest.param(["verify", "repro", "--seed", "-1", "--n", "10"], "seed: expected non-negative integer, got -1",
                     id="repro-negative-seed"),
        pytest.param(["fit", "--kernel", "disk", "--dz", "1", "--dk", "1", "--seed", "-1"],
                     "seed: expected non-negative integer, got -1", id="fit-negative-seed"),
        # a negative tolerance fails every check, however small its residual
        pytest.param(["verify", "isometry", "--tol", "-1"], "--tol must be non-negative, got -1.0",
                     id="isometry-negative-tol"),
        pytest.param(["verify", "transform", "--tol", "-1e-30"], "--tol must be non-negative, got -1e-30",
                     id="transform-negative-tol"),
        pytest.param(["verify", "transform", "--tol", "nan"], "--tol must be finite, got nan", id="transform-tol-nan"),
        pytest.param(["ball-kernel", "--dim", "2", "--z", "nan,0", "--w", "0,0"], "(nan+0j) is not finite",
                     id="ball-nan"),
        pytest.param(["ball-kernel", "--dim", "1", "--z", "inf", "--w", "0"], "(inf+0j) is not finite", id="ball-inf"),
        pytest.param(["ball-kernel", "--dim", "2", "--z", "0,0", "--w", "0,-inf"], "is not finite",
                     id="ball-negative-inf"),
        pytest.param(["omega-kernel", "--z", "nan,0", "--lambda", "0.1"], "(nan+0j) is not finite", id="omega-nan"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "nan"], "(nan+0j) is not finite",
                     id="omega-lambda-nan"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.1", "--tau", "1e400"], "(inf+0j) is not finite",
                     id="omega-tau-overflows"),
        pytest.param(["levi", "--rho", "sphere-2", "--point", "nan,0"], "(nan+0j) is not finite", id="levi-nan"),
        # finite inputs whose kernel value overflows
        pytest.param(["ball-kernel", "--dim", "2", "--z", "1e308,0", "--w", "1e308,0"], "kernel value",
                     id="ball-value-overflows"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "1e308"], "kernel value", id="omega-value-overflows"),
        pytest.param(["omega-kernel", "--z", "1e308,1e308", "--lambda", "0.1", "--series", "2"],
                     "series does not converge", id="series-value-overflows"),
    ],
)
def test_unusable_evaluation_input_prints_one_error_line(runner, tmp_path, args, message):
    # a samples file the fit accepts without the options under test
    files = {SAMPLES_FILE: _write(tmp_path, "samples.json", {"features": [[x / 8.0] for x in range(8)],
                                                             "values": [1.0] * 8}),
             GROUP_FILE: _write(tmp_path, "gens.json", GENS_MINUS)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning would add lines
        result = runner.invoke(main, [files.get(a, a) for a in args])
    _one_line_usage_error(result)
    assert message in result.output


def test_oversized_fit_is_refused_before_it_allocates(runner, monkeypatch):
    import berg.algebraic

    # the disk 4/1 fit needs 60 samples x 30 unknowns = 1800 cells
    monkeypatch.setattr(berg.algebraic, "MAX_FIT_CELLS", 1799)
    result = runner.invoke(main, ["fit", "--kernel", "disk", "--dz", "4", "--dk", "1"])
    _one_line_usage_error(result)
    assert "60 samples x 30 unknowns is 1800 cells, above the limit of 1799" in result.output
    monkeypatch.undo()
    # 36.3 GiB of float64: refused before the samples are drawn
    start = time.perf_counter()
    result = runner.invoke(main, ["fit", "--kernel", "omega", "--dz", "40", "--dk", "3"])
    assert time.perf_counter() - start < 1.0
    _one_line_usage_error(result)
    assert "98728 samples x 49364 unknowns" in result.output


def test_oversized_grid_is_refused_before_it_allocates(runner, monkeypatch):
    import berg.cli

    monkeypatch.setattr(berg.cli, "MAX_GRID_POINTS", 8)
    result = runner.invoke(main, ["omega-grid", "--steps", "3"])
    _one_line_usage_error(result)
    assert "--steps 3 is 9 grid points, above the limit of 8" in result.output
    monkeypatch.undo()
    # 1025^2 points, about 250 MiB: refused before the grid is built
    result = runner.invoke(main, ["omega-grid", "--steps", "1025"])
    _one_line_usage_error(result)
    assert "--steps 1025 is 1050625 grid points, above the limit of 1048576" in result.output


def test_fit_samples_file_too_short_prints_one_error_line(runner, tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"features": [[0.1]], "values": [1.0]}))
    _one_line_usage_error(runner.invoke(main, ["fit", "--kernel", str(path), "--dz", "1", "--dk", "1"]))


def test_fit_samples_that_overflow_print_one_error_line(runner, tmp_path):
    # every value is finite, but the K column's norm is not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"features": [[x / 10] for x in range(1, 9)], "values": [1, 1, 1e308, 1, 1, 1, 1, 1]}))
    result = runner.invoke(main, ["fit", "--kernel", str(path), "--dz", "1", "--dk", "1"])
    _one_line_usage_error(result)
    assert "fit is not finite" in result.output


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["zeta", "terms"]), inner, max_size=2),
    max_leaves=12,
)
zeta_entries = st.fixed_dictionaries(
    {
        "zeta": st.integers(-1, 12) | st.integers(1025, 10**30) | json_values,
        "terms": st.lists(
            st.tuples(st.integers(-4, 4), st.sampled_from(["1", "-1", "1/2", "x"])), max_size=2
        ),
    }
)
numeric_pairs = st.lists(st.integers(-1, 1) | st.floats(), min_size=2, max_size=2)
entries = zeta_entries | numeric_pairs | json_values
matrices = st.integers(1, 2).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(st.lists(matrices, max_size=2) | json_values)
def test_group_json_fuzz_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gens.json"
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["group", "--gens", str(path), "--max-order", "24"])
    if result.exit_code == 0:
        assert json.loads(result.output)["order"] <= 24
    else:
        _one_line_usage_error(result)


def test_quotient_sum_and_push(runner, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(GENS_MINUS))
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[[[0.2, 0.1], [0.05, -0.3]], [[0.15, -0.2], [0.25, 0.1]]]]))
    out = _invoke(runner, ["quotient-sum", "--group", str(gens), "--dim", "2", "--pairs", str(pairs)])
    lines = out.strip().splitlines()
    assert lines[0] == "z,w,re,im"
    assert len(lines) == 2

    cover = tmp_path / "cover.json"
    cover.write_text(
        json.dumps(
            {
                "generators": GENS_MINUS,
                "map": [
                    {"dim": 2, "terms": [[[2, 0], 1, 0]]},
                    {"dim": 2, "terms": [[[1, 1], 1, 0]]},
                    {"dim": 2, "terms": [[[0, 2], 1, 0]]},
                ],
                "chart": [0, 1],
            }
        )
    )
    out = _invoke(runner, ["quotient-push", "--cover", str(cover), "--pairs", str(pairs)])
    assert out.startswith("z,w,re,im")


def test_omega_kernel_cmd(runner):
    closed = json.loads(_invoke(runner, ["omega-kernel", "--z", "0,0", "--lambda", "0.5"]))
    series = json.loads(
        _invoke(runner, ["omega-kernel", "--z", "0,0", "--lambda", "0.5", "--series", "300"])
    )
    assert closed["re"] == pytest.approx(series["re"], rel=1e-10)
    assert series["terms"] == 300


def test_moments_cmd(runner):
    data = json.loads(_invoke(runner, ["moments", "--m", "1", "--alpha", "0,0"]))
    assert data["exact"]["pi_power"] == 3
    assert data["exact"]["re"] == ["4"]
    # JSON has no Infinity, so both forms print a marker
    for form, key in (("--exact", "exact"), ("--numeric", "numeric")):
        out = _invoke(runner, ["moments", "--m", "1", "--alpha", "1,0", form])
        assert json.loads(out, parse_constant=_strict_constant) == {key: "infinite"}
    data = json.loads(_invoke(runner, ["moments", "--m", "2", "--alpha", "1,1", "--numeric"]))
    assert data["numeric"] == pytest.approx((2 * math.pi) ** 3 / 12)


def test_omega_grid_cmd(runner):
    out = _invoke(runner, ["omega-grid", "--steps", "3"])
    lines = out.strip().splitlines()
    assert lines[0] == "r1,r2,value"
    assert len(lines) == 10


def test_fit_cmd(runner):
    out = _invoke(runner, ["fit", "--kernel", "disk", "--dz", "4", "--dk", "1", "--boundary-check"])
    data = json.loads(out)
    assert data["residual"] <= 1e-10
    assert data["boundary_max"] <= 1e-8


def test_fit_cmd_samples_file(runner, tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(
        json.dumps(
            {
                "features": [[x / 20.0] for x in range(40)],
                "values": [2.5] * 40,
            }
        )
    )
    data = json.loads(_invoke(runner, ["fit", "--kernel", str(path), "--dz", "0", "--dk", "1"]))
    assert data["residual"] <= 1e-12


def test_verify_isometry_exit_codes(runner):
    result = runner.invoke(main, ["verify", "isometry"])
    assert result.exit_code == 0
    for line in result.output.strip().splitlines():
        assert json.loads(line)["passed"]


def test_verify_transform_small(runner):
    result = runner.invoke(main, ["verify", "transform", "--seed", "1"])
    assert result.exit_code == 0


def test_verify_tolerance_override(runner):
    result = runner.invoke(main, ["verify", "transform", "--tol", "1e-30"])
    assert result.exit_code == 1
    reports = {r["name"]: r for r in map(json.loads, result.output.strip().splitlines())}
    assert len(reports) == 9 and all(r["tolerance"] == 1e-30 for r in reports.values())
    for name in ("deck-symmetry:disk-2", "deck-symmetry:minus-identity"):
        assert reports[name]["residual"] == 0.0 and reports[name]["passed"]
    assert runner.invoke(main, ["verify", "isometry", "--tol", "0"]).exit_code == 0


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("which", ["repro", "orthogonality", "transform", "isometry"])
def test_verify_lines_are_strict_json(runner, which):
    # the smallest Monte Carlo run is where a standard error could be infinite
    result = runner.invoke(main, ["verify", which, *(["--n", "2"] if which in MONTE_CARLO else [])])
    assert result.exit_code in (0, 1), result.output
    lines = result.output.strip().splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=_strict_constant)


def test_a_failing_isometry_line_is_strict_json(runner, monkeypatch):
    # a wrong norm for z^7 breaks only the identity at (k, d) = (2, 3)
    import berg.verify

    shipped = berg.verify.disk_monomial_norm
    monkeypatch.setattr(berg.verify, "disk_monomial_norm", lambda j: shipped(j) * 2 if j == 7 else shipped(j))
    result = runner.invoke(main, ["verify", "isometry"])
    assert result.exit_code == 1, result.output
    reports = [json.loads(line, parse_constant=_strict_constant) for line in result.output.strip().splitlines()]
    failed = [r for r in reports if not r["passed"]]
    assert [r["name"] for r in failed] == ["isometry:z^2:w^3"]
    assert failed[0]["residual"] == pytest.approx(math.pi / 2, rel=1e-15)
    assert all(r["residual"] == 0.0 for r in reports if r["passed"])


def test_quotient_sum_over_a_matrix_with_no_rows_exits_2(runner, tmp_path):
    args = ["quotient-sum", "--group", _write(tmp_path, "g.json", [[]]), "--dim", "0"]
    _one_line_usage_error(runner.invoke(main, args + ["--pairs", _write(tmp_path, "p.json", [[[], []]])]))


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["moments", "--m", "not-an-int", "--alpha", "0,0"])
    assert result.exit_code == 2


def test_huge_exact_coefficient_exits_2_quickly(runner, tmp_path):
    path = tmp_path / "gens.json"
    for coeff in ("1e3000000", "1E-3000000", "1e3_000_000", "1" * 200, "1/" + "7" * 200):
        path.write_text(json.dumps([[[{"zeta": 4, "terms": [[1, coeff]]}]]]))
        start = time.perf_counter()
        result = runner.invoke(main, ["group", "--gens", str(path)])
        assert time.perf_counter() - start < 0.5
        _one_line_usage_error(result)
        assert "exact coefficient" in result.output


def test_exact_coefficients_within_the_bounds_still_parse(runner, tmp_path):
    i_unit = {"zeta": 4, "terms": [[1, "10e-1"], [0, "0/7"]]}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[[i_unit]], [[[1e-300, 0]]]]))
    result = runner.invoke(main, ["group", "--gens", str(path)])
    assert "not unitary" in result.output  # parsed, then rejected on unitarity
    path.write_text(json.dumps([[[i_unit]]]))
    assert json.loads(_invoke(runner, ["group", "--gens", str(path)]))["order"] == 4


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


COVER_MINUS = {
    "generators": GENS_MINUS,
    "map": [
        {"dim": 2, "terms": [[[2, 0], 1, 0]]},
        {"dim": 2, "terms": [[[1, 1], 1, 0]]},
        {"dim": 2, "terms": [[[0, 2], 1, 0]]},
    ],
}
PAIR = [[0.2, 0.1], [0.05, -0.3]]


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("levi", {"rho": {"dim": 2}}),
        ("levi", {"rho": [1, 2]}),
        # an exponent of 1.5 is refused, not read as 1 (which would give the sphere)
        ("levi", {"rho": {"dim": 2, "terms": [[[1.5, 0], [1, 0], 1, 0], [[0, 1], [0, 1], 1, 0],
                                               [[0, 0], [0, 0], -1, 0]]}}),
        ("quotient-sum", {"pairs": [[[[0.2, 0.1]], PAIR]]}),
        ("quotient-sum", {"pairs": [[[[0.2], [0.1, 0.0]], PAIR]]}),
        ("quotient-sum", {"pairs": [[[[0.6, 0], [0.8, 0]], [[0.6, 0], [0.8, 0]]]]}),
        ("quotient-sum", {"pairs": {"z": 1}}),
        ("quotient-push", {"pairs": [[[[0, 0], [0.1, 0.2]], PAIR]]}),
        ("quotient-push", {"pairs": [[[[0.6, 0], [0.8, 0]], [[0.6, 0], [0.8, 0]]]]}),
        ("quotient-push", {"cover": dict(COVER_MINUS, chart=[0, 7])}),
        ("quotient-push", {"cover": dict(COVER_MINUS, map=[{"dim": 2}])}),
        ("quotient-push", {"cover": [1]}),
        ("quotient-push", {"cover": dict(COVER_MINUS, map=[{"dim": 2, "terms": [[[2.5, 0], 1, 0]]},
                                                          *COVER_MINUS["map"][1:]])}),
        ("fit", {"samples": {"dim": 2}}),
        ("fit", {"samples": {"features": [["x"]], "values": [1]}}),
        ("fit", {"samples": {"features": [[0.1]] * 8, "values": [1.0] * 7 + [math.nan]}}),
        ("fit", {"samples": {"features": [[0.1]] * 7 + [[math.inf]], "values": [1.0] * 8}}),
        ("fit", {"samples": {"features": [[0.1]] * 8, "values": [1.0] * 8, "boundary_features": [[math.nan]]}}),
        ("fit", {"samples": {"features": [[x / 8] for x in range(8)], "values": [1.0] * 8, "boundary_features": []}}),
        ("fit", {"samples": {"features": [[x / 8] for x in range(8)], "values": [1.0] * 8,
                             "boundary_features": [[0.5, 0.2]]}}),
        ("quotient-sum", {"pairs": [[[[0.2, 0.1], [0.05, math.nan]], PAIR]]}),
        ("quotient-sum", {"pairs": [[PAIR, [[math.inf, 0], [0.1, 0]]]]}),
        ("quotient-sum", {"pairs": [[[[1e308, 0], [0, 0]], [[1e308, 0], [0, 0]]]]}),
        ("quotient-push", {"pairs": [[[[0.2, 0.1], [-math.inf, 0]], PAIR]]}),
        ("quotient-push", {"pairs": [[[[1e308, 0], [0, 0]], [[1e308, 0], [0, 0]]]]}),
        ("quotient-push", {"cover": dict(COVER_MINUS, map=[{"dim": 2, "terms": [[[2, 0], math.nan, 0]]},
                                                          *COVER_MINUS["map"][1:]])}),
    ],
    ids=[
        "levi-no-terms", "levi-list", "levi-fractional-exponent", "sum-one-number-coordinate", "sum-unpack", "sum-boundary-contact",
        "sum-object", "push-branch-point", "push-boundary-contact", "push-chart-range", "push-map-terms",
        "push-list", "push-fractional-exponent", "fit-no-features", "fit-string-feature", "fit-nan-value", "fit-inf-feature",
        "fit-nan-boundary-feature", "fit-no-boundary-features", "fit-boundary-feature-count", "sum-nan", "sum-inf", "sum-value-overflows", "push-negative-inf",
        "push-value-overflows", "push-nan-map-coefficient",
    ],
)
def test_json_input_errors_exit_2(runner, tmp_path, command, inputs):
    if command == "levi":
        args = ["levi", "--rho", _write(tmp_path, "rho.json", inputs["rho"]), "--point", "1,0"]
    elif command == "fit":
        args = ["fit", "--kernel", _write(tmp_path, "s.json", inputs["samples"]), "--dz", "1", "--dk", "1"]
        args += ["--boundary-check"] if "boundary_features" in inputs["samples"] else []
    else:
        pairs = _write(tmp_path, "pairs.json", inputs.get("pairs", [[PAIR, PAIR]]))
        if command == "quotient-sum":
            args = ["quotient-sum", "--group", _write(tmp_path, "g.json", GENS_MINUS), "--dim", "2"]
        else:
            args = ["quotient-push", "--cover", _write(tmp_path, "c.json", inputs.get("cover", COVER_MINUS))]
        args += ["--pairs", pairs]
    _one_line_usage_error(runner.invoke(main, args))


coordinates = st.lists(st.integers(-1, 1) | st.floats(-2, 2) | json_values, min_size=0, max_size=3)
points = st.lists(coordinates, min_size=1, max_size=3) | json_values
pair_files = st.lists(st.lists(points, min_size=2, max_size=2) | json_values, max_size=3) | json_values


@given(pair_files)
def test_pairs_json_fuzz_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        gens, pairs = Path(tmp) / "gens.json", Path(tmp) / "pairs.json"
        gens.write_text(json.dumps(GENS_MINUS))
        pairs.write_text(json.dumps(data))
        result = CliRunner().invoke(
            main, ["quotient-sum", "--group", str(gens), "--dim", "2", "--pairs", str(pairs)]
        )
    if result.exit_code == 0:
        lines = result.output.strip().splitlines()
        assert lines[0] == "z,w,re,im" and len(lines) == 1 + len(data)
    else:
        _one_line_usage_error(result)


# -- a fuzz over every command ---------------------------------------------------

EDGE = ["nan", "inf", "-inf", "0", "-1", "1e308", ""]  # float and complex option values
SIZES = st.sampled_from(["-1", "0", "1", "2"])  # every integer option: work stays small
edge_values = st.sampled_from(EDGE)


def _coordinates(count, values):
    """``count`` values, or now and then one too few or one too many."""
    sizes = st.sampled_from([count, count, count, max(count - 1, 1), count + 1])
    return sizes.flatmap(lambda k: st.lists(values, min_size=k, max_size=k))


def _complex_lists(count):
    return _coordinates(count, st.sampled_from(EDGE + ["0.3", "0.2j"])).map(",".join)


@st.composite
def _command(draw, name, required, optional=(), flags=()):
    """argv for ``name``: every required option, a drawn subset of the
    optional ones and of the flags."""
    args = list(name)
    for option, values in required:
        args += [option, draw(values)]
    for option, values in optional:
        if draw(st.booleans()):
            args += [option, draw(values)]
    return args + [flag for flag in flags if draw(st.booleans())]


FILES = {"GROUP": GENS_MINUS, "COVER": COVER_MINUS,
         "SAMPLES": {"features": [[x / 8.0] for x in range(8)], "values": [1.0] * 8},
         "BOUNDED": {"features": [[x / 8.0] for x in range(8)], "values": [1.0] * 8,
                     "boundary_features": [[1.0]]}}
edge_numbers = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 1e308, "", 0.3])
pair_points = _coordinates(2, st.lists(edge_numbers, min_size=2, max_size=2))
MONTE_CARLO = ("repro", "orthogonality")
commands = st.one_of(
    st.sampled_from([1, 2]).flatmap(lambda n: _command(
        ["ball-kernel", "--dim", str(n)], [("--z", _complex_lists(n)), ("--w", _complex_lists(n))])),
    st.sampled_from([("sphere-1", 1), ("sphere-2", 2), ("u-domain", 3)]).flatmap(lambda rho: _command(
        ["levi", "--rho", rho[0]], [("--point", _complex_lists(rho[1]))])),
    _command(["group", "--gens", "GROUP"], [], [("--check", st.sampled_from(["fpf", "reflections"])),
                                                 ("--max-order", SIZES)]),
    _command(["basic-map", "--group", "GROUP"], [], [("--syzygies", SIZES), ("--max-order", SIZES)]),
    _command(["quotient-sum", "--group", "GROUP", "--pairs", "PAIRS"], [("--dim", st.sampled_from(["2", "2", "1"]))],
             [("--max-order", SIZES)]),
    _command(["quotient-push", "--cover", "COVER", "--pairs", "PAIRS"], []),
    _command(["omega-kernel"], [("--z", _complex_lists(2)), ("--lambda", _complex_lists(1))],
             [("--w", _complex_lists(2)), ("--tau", _complex_lists(1)), ("--series", SIZES)]),
    _command(["moments"], [("--m", SIZES), ("--alpha", _coordinates(2, SIZES).map(",".join))], flags=["--numeric"]),
    _command(["omega-grid"], [], [("--rmax", edge_values), ("--steps", SIZES), ("--fiber", edge_values)]),
    _command(["fit"], [("--kernel", st.sampled_from(["disk", "ball2", "omega", "annulus", "u", "SAMPLES", "BOUNDED"])),
                       ("--dz", SIZES), ("--dk", SIZES)],
             [("--samples", SIZES), ("--seed", SIZES)], flags=["--boundary-check"]),
    st.sampled_from(["repro", "orthogonality", "transform", "isometry"]).flatmap(lambda which: _command(
        ["verify", which],
        [("--n", SIZES)] if which in MONTE_CARLO else [],  # a default-sized Monte Carlo run takes 0.5 s
        [("--seed", SIZES), ("--tol", edge_values)] + ([] if which in MONTE_CARLO else [("--n", SIZES)]))),
)


@settings(deadline=2000, max_examples=200)
@given(commands, st.lists(st.tuples(pair_points, pair_points), min_size=1, max_size=2))
def test_every_command_exits_0_or_2_on_edge_values(args, pairs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: _write(Path(tmp), f"{name}.json", data) for name, data in FILES.items()}
        paths["PAIRS"] = _write(Path(tmp), "pairs.json", pairs)
        result = CliRunner().invoke(main, [paths.get(a, a) for a in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert "nan" not in result.stdout.lower(), result.output
    if result.exit_code == 2:
        assert sum(line.startswith("Error: ") for line in result.output.splitlines()) == 1, result.output
    else:
        assert result.exit_code == 0 or (result.exit_code == 1 and args[0] == "verify"), result.output
