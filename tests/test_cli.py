import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

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
    ],
    ids=[
        "non-unitary",
        "malformed",
        "infinite-zeta",
        "closure-overflow",
        "basic-map-float-group",
        "not-json",
        "missing-file",
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
        pytest.param(["verify", "repro", "--n", "0"], "--n must be at least 1", id="repro-no-samples"),
        pytest.param(["verify", "orthogonality", "--n", "-4"], "--n must be at least 1",
                     id="orthogonality-negative-samples"),
        pytest.param(["verify", "transform", "--n", "5"], "--n does not apply to the transform suite",
                     id="transform-samples"),
        pytest.param(["verify", "isometry", "--N", "5"], "--n does not apply to the isometry suite",
                     id="isometry-samples"),
        pytest.param(["verify", "isometry", "--seed", "5"], "--seed does not apply to the isometry suite",
                     id="isometry-seed"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.2,0.3"], "--lambda takes one complex value",
                     id="omega-two-lambdas"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.2", "--tau", "0.1,5"],
                     "--tau takes one complex value", id="omega-two-taus"),
        pytest.param(["omega-kernel", "--z", "0,0", "--lambda", "0.2", "--series", "-3"],
                     "--series must be a nonnegative truncation", id="omega-series-negative"),
    ],
)
def test_unusable_evaluation_input_prints_one_error_line(runner, args, message):
    result = runner.invoke(main, args)
    _one_line_usage_error(result)
    assert message in result.output


def test_fit_samples_file_too_short_prints_one_error_line(runner, tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"features": [[0.1]], "values": [1.0]}))
    _one_line_usage_error(runner.invoke(main, ["fit", "--kernel", str(path), "--dz", "1", "--dk", "1"]))


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
    data = json.loads(_invoke(runner, ["moments", "--m", "1", "--alpha", "1,0"]))
    assert data["exact"] == "infinite"
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
        ("quotient-sum", {"pairs": [[[[0.2, 0.1]], PAIR]]}),
        ("quotient-sum", {"pairs": [[[[0.2], [0.1, 0.0]], PAIR]]}),
        ("quotient-sum", {"pairs": [[[[0.6, 0], [0.8, 0]], [[0.6, 0], [0.8, 0]]]]}),
        ("quotient-sum", {"pairs": {"z": 1}}),
        ("quotient-push", {"pairs": [[[[0, 0], [0.1, 0.2]], PAIR]]}),
        ("quotient-push", {"pairs": [[[[0.6, 0], [0.8, 0]], [[0.6, 0], [0.8, 0]]]]}),
        ("quotient-push", {"cover": dict(COVER_MINUS, chart=[0, 7])}),
        ("quotient-push", {"cover": dict(COVER_MINUS, map=[{"dim": 2}])}),
        ("quotient-push", {"cover": [1]}),
        ("fit", {"samples": {"dim": 2}}),
        ("fit", {"samples": {"features": [["x"]], "values": [1]}}),
    ],
    ids=[
        "levi-no-terms", "levi-list", "sum-one-number-coordinate", "sum-unpack", "sum-boundary-contact",
        "sum-object", "push-branch-point", "push-boundary-contact", "push-chart-range", "push-map-terms",
        "push-list", "fit-no-features", "fit-string-feature",
    ],
)
def test_json_input_errors_exit_2(runner, tmp_path, command, inputs):
    if command == "levi":
        args = ["levi", "--rho", _write(tmp_path, "rho.json", inputs["rho"]), "--point", "1,0"]
    elif command == "fit":
        args = ["fit", "--kernel", _write(tmp_path, "s.json", inputs["samples"]), "--dz", "1", "--dk", "1"]
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
