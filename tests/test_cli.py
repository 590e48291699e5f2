import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3walls import strata, verify
from k3walls.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    return json.loads(out)


def test_rho_command(capsys):
    code, out, err = run_cli(capsys, "rho", "--g", "5", "--r", "1", "--d", "3")
    assert code == 0
    assert payload(out)["result"] == {"rho": -1}
    assert "rho" in err


def test_rho_k_example(capsys):
    code, out, _ = run_cli(capsys, "rho-k", "--g", "5", "--k", "2", "--r", "1", "--d", "3")
    assert code == 0
    result = payload(out)["result"]
    assert result["rho_k"] == 1
    assert result["argmax_ell"] == [1]


def test_walls_example(capsys):
    code, out, _ = run_cli(
        capsys, "walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "0,1,0,-1", "--type", "[[1,1]]",
    )
    assert code == 0
    walls = payload(out)["result"]["walls"]
    assert {"w": "25/132", "kind": "line_bundle", "e": 1,
            "destabilizer": {"r": 1, "x": 0, "y": 1, "s": 1}} == walls[0]


def test_walls_default_eps(capsys):
    code, out, _ = run_cli(capsys, "walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1",
                           "--type", "[[1,1]]")
    assert code == 0
    result = payload(out)["result"]
    # heuristic for (g=3, k=2, a0=0): M = 4, so min(2/9, 1/2)/2
    assert result["eps"] == "1/9"
    assert result["walls"][0]["kind"] == "line_bundle"


@pytest.mark.parametrize("command", ["walls", "plot-walls"])
@pytest.mark.parametrize("text", ["[[1e400,1]]", "[[1.5,1]]", '[["2",1]]', "[[true,1]]", "{}"])
def test_type_payload_must_be_integer_pairs(capsys, tmp_path, command, text):
    # JSON decodes 1e400 to inf, which int() cannot convert; no payload here is integer pairs
    argv = [command, "--g", "3", "--k", "2", "--eps", "1/10", "--v", "0,1,0,-1", "--type", text]
    out_file = tmp_path / "walls.svg"
    if command == "plot-walls":
        argv += ["--out", str(out_file)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert payload(out)["error"]["code"] == "ill_formed_type"
    assert not out_file.exists()


def test_tableaux_example(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--g", "2", "--k", "2", "--r", "1", "--d", "1")
    assert code == 0
    result = payload(out)["result"]
    assert result["feasible"] is False
    assert result["rho_k"] == -1


def test_decompose_plain(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "7", "--ell", "5")
    assert code == 0
    result = payload(out)["result"]
    assert (result["e"], result["m1"], result["m2"]) == (1, 2, 1)
    assert "degeneracy" not in result


def test_decompose_with_context(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--r", "1", "--ell", "1",
        "--g", "5", "--k", "2", "--d", "3",
    )
    assert code == 0
    block = payload(out)["result"]["degeneracy"]
    assert block["expected_dim"] == 1
    assert block["s"] == 4
    assert "h0" in block["h0_conditions"]


def test_types_command(capsys):
    code, out, _ = run_cli(
        capsys, "types", "--g", "5", "--k", "2", "--v", "0,1,0,-1", "--r", "1",
    )
    assert code == 0
    result = payload(out)["result"]
    assert [item["type"] for item in result["items"]] == [[[0, 2]], [[1, 1]], [[1, 1], [0, 1]]]
    dims = {json.dumps(item["type"]): item["dim"] for item in result["items"]}
    assert dims["[[0, 2]]"] == 4
    ells = [item["ell"] for item in result["items"]]
    assert ells == [0, 1, 0]
    verdicts = [item["verdict"] for item in result["items"]]
    assert verdicts == ["empty_by_necessity", "non_empty", "empty_by_necessity"]


def test_types_budget(capsys, monkeypatch):
    # r = 10, the largest table that prints, has 353,657 types; r = 12 ran away
    assert strata.MAX_TYPES >= 353_657
    monkeypatch.setattr(strata, "MAX_TYPES", 100)
    argv = ["types", "--g", "6", "--k", "2", "--v", "0,1,0,0", "--r", "12"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert payload(out)["error"]["code"] == "budget_exhausted"
    assert "101 types > limit 100" in err
    code, out, _ = run_cli(capsys, *argv[:-1], "3")  # 35 types
    assert code == 0
    assert len(payload(out)["result"]["items"]) == 35


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--g", "2", "--k", "2", "--v", "0,2,0", "--r", "-2"], "bad_genus"),
        (["--g", "5", "--k", "2", "--v", "0,2,0", "--r", "-2"], "bad_vector"),
        (["--g", "5", "--k", "2", "--v", "0,2,0,-1", "--r", "-2"], "bad_vector_shape"),
        (["--g", "5", "--k", "2", "--v", "0,1,0,-1", "--r", "-2"], "bad_rank"),
    ],
)
def test_types_error_order(capsys, argv, error):
    # genus, then vector, then shape, then rank
    code, out, _ = run_cli(capsys, "types", *argv)
    assert code == 1
    assert payload(out)["error"]["code"] == error


def test_chain_command(capsys):
    code, out, _ = run_cli(capsys, "chain", "--g", "4", "--k", "3", "--r", "1", "--d", "3")
    assert code == 0
    result = payload(out)["result"]
    assert len(result["components"]) == 4
    assert result["report"]["ok"] is True
    assert result["report"]["total_adjusted"] == 0


def test_verify_command(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lattice", "--max-g", "4", "--max-k", "3")
    assert code == 0
    result = payload(out)["result"]
    assert result["failed"] == 0
    assert "PASS" in err


def test_verify_all_full_scale(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-g", "8", "--max-k", "5")
    assert code == 0
    result = payload(out)["result"]
    assert result["failed"] == 0
    assert result["passed"] == 22
    assert err.count("PASS") >= 22


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--max-g", "2", "--max-k", "5"], "bad_genus"),
        (["--max-g", "8", "--max-k", "1"], "bad_pencil_degree"),
        (["--max-g", "2", "--max-k", "1"], "bad_genus"),
    ],
)
def test_verify_rejects_empty_grid(capsys, argv, error):
    # below g = 3 or k = 2 the grid has no surface, so a check could only pass vacuously
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", *argv)
    assert code == 1
    assert payload(out)["error"]["code"] == error


def test_check_names_follow_function_names():
    # every check_<suite>_<rest> of verify is registered once, under its suite,
    # and reports as <suite>.<rest>
    assert tuple(verify.CHECKS) == verify.SUITES
    defined = [fn for name, fn in vars(verify).items() if name.startswith("check_")]
    registered = [fn for fns in verify.CHECKS.values() for fn in fns]
    assert sorted(registered, key=id) == sorted(defined, key=id)
    assert len(set(registered)) == len(registered)
    for suite, fns in verify.CHECKS.items():
        assert all(fn.__name__.startswith(f"check_{suite}_") for fn in fns), suite
    reported = [res.name for res in verify.run_checks("all", 3, 2)]
    assert len(reported) == len(set(reported)) == 22


@pytest.mark.parametrize(
    "exc, detail",
    [
        (verify.CheckFailed("deliberate failure"), "deliberate failure"),
        (ValueError("deliberate crash"), "raised ValueError: deliberate crash"),
    ],
    ids=["check_failed", "value_error"],
)
def test_verify_exit_two_on_failure(capsys, monkeypatch, exc, detail):
    def check_lattice_zzz_injected(max_g, max_k):
        raise exc

    monkeypatch.setitem(verify.CHECKS, "lattice", verify.CHECKS["lattice"] + [check_lattice_zzz_injected])
    code, out, err = run_cli(capsys, "verify", "--suite", "lattice", "--max-g", "3", "--max-k", "2")
    assert code == 2
    result = payload(out)["result"]
    assert result["failed"] == 1
    assert {"name": "lattice.zzz_injected", "ok": False, "detail": detail} in result["checks"]
    assert "FAIL lattice.zzz_injected" in err


def test_exit_code_on_bad_flag(capsys):
    code, out, _ = run_cli(capsys, "rho-k", "--g", "5", "--k", "2", "--r", "1")
    assert code == 1
    assert payload(out)["error"]["code"] == "bad_usage"


def test_exit_code_on_unknown_subcommand(capsys):
    code, out, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_exit_code_on_bad_rational(capsys):
    code, out, _ = run_cli(
        capsys, "walls", "--g", "3", "--k", "2", "--eps", "1/0",
        "--v", "0,1,0,-1", "--type", "[[1,1]]",
    )
    assert code == 1
    assert payload(out)["error"]["code"] == "bad_rational"


def test_rho_k_huge_rank_answers_at_once(capsys):
    # the maximum sits at the clamped vertex; no list of r+1 values is built
    r = 10**20
    code, out, _ = run_cli(capsys, "rho-k", "--g", "5", "--k", "2", "--r", str(r), "--d", "3")
    assert code == 0
    assert payload(out)["result"] == {"rho_k": -2 * r + 3, "argmax_ell": [r]}


ABOVE = str(2**996)  # the least integer past the input bound
HUGE = "1" + "0" * 2500  # a product of two of these has about 5,000 digits


@pytest.mark.parametrize(
    "argv, error",
    [
        (["rho", "--g", "1", "--r", HUGE, "--d", "1"], "bad_usage"),
        (["rho", "--g", "1", "--r", ABOVE, "--d", "1"], "bad_usage"),
        (["rho", "--g", "1", "--r", "1" + "0" * 5000, "--d", "1"], "bad_usage"),
        (["verify", "--max-g", ABOVE], "bad_usage"),
        (["plot-walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", "--viewport=1e5000,1e4000,0,1"],
         "bad_viewport"),
        (["plot-walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", f"--viewport=0,1,0,1/{ABOVE}"],
         "bad_viewport"),
        (["walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", "--type", "[[1,1]]", "--eps", f"1/{ABOVE}"],
         "bad_eps"),
        (["walls", "--g", "3", "--k", "2", "--v", f"0,1,0,-{ABOVE}", "--type", "[[1,1]]"], "bad_vector"),
        (["walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", "--type", f"[[{ABOVE},1]]"], "bad_type"),
        (["walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", "--type", f"[[1{'0' * 5000},1]]"], "bad_type"),
    ],
    ids=["rho", "rho_just_above", "rho_past_str_limit", "verify", "viewport", "viewport_denominator",
         "eps", "vector", "type", "type_past_str_limit"],
)
def test_integer_inputs_are_bounded(capsys, tmp_path, argv, error):
    # an input integer past 996 bits (300 digits) is refused where it is parsed,
    # before any result that could pass the 4,300-digit int-to-str limit is printed
    if argv[0] == "plot-walls":
        argv = argv + ["--out", str(tmp_path / "x.svg")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert payload(out)["error"]["code"] == error


def test_integer_inputs_at_the_bound_print(capsys):
    # the largest inputs allowed: the wall position with the default eps has
    # about ten times their digits, and still prints
    top = str(2**996 - 1)
    code, out, _ = run_cli(
        capsys, "walls", "--g", top, "--k", top, "--v", f"0,1,-{top},-{top}", "--type", f"[[{top},1]]",
    )
    assert code == 0
    assert len(payload(out)["result"]["walls"][0]["w"]) > 2500


def test_exit_code_on_domain_error(capsys):
    code, out, _ = run_cli(capsys, "chain", "--g", "4", "--k", "2", "--r", "1", "--d", "3")
    assert code == 1
    assert payload(out)["error"]["code"] == "pencil_too_small"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["tableaux", "--g", "3", "--k", "0", "--r", "1", "--d", "2"], "bad_pencil_degree"),
        (["tableaux", "--g", "5", "--k", "-2", "--r", "1", "--d", "3"], "bad_pencil_degree"),
        (["rho-k", "--g", "5", "--k", "0", "--r", "1", "--d", "3"], "bad_pencil_degree"),
        # the grid and rank checks still come first
        (["tableaux", "--g", "5", "--k", "0", "--r", "-1", "--d", "3"], "bad_grid"),
        (["rho-k", "--g", "5", "--k", "0", "--r", "-1", "--d", "3"], "bad_rank"),
        # a negative node budget is bad input, checked after the pencil degree
        (["tableaux", "--g", "3", "--k", "2", "--r", "1", "--d", "2", "--budget", "-1"], "bad_budget"),
        (["tableaux", "--g", "3", "--k", "0", "--r", "1", "--d", "2", "--budget", "-1"], "bad_pencil_degree"),
    ],
)
def test_exit_code_on_bad_pencil_degree(capsys, argv, error):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert payload(out)["error"]["code"] == error


@pytest.mark.parametrize(
    "argv, flag, value, error",
    [
        (["walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", "--type", "[[1,1]]"],
         "--eps", "-1/2", "bad_eps"),
        (["plot-walls", "--g", "3", "--k", "2", "--eps", "1/10", "--v", "0,1,0,-1"],
         "--viewport", "-1,1,-0.2,1", None),
        (["types", "--g", "5", "--k", "2", "--r", "1"], "--v", "-1,1,0,-2", None),
    ],
    ids=["eps", "viewport", "vector"],
)
def test_leading_minus_value(capsys, tmp_path, argv, flag, value, error):
    # a value starting with a minus sign is a value, with or without "="
    if argv[0] == "plot-walls":
        argv = argv + ["--out", str(tmp_path / "x.svg")]
    spaced = run_cli(capsys, *argv, flag, value)
    joined = run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced == joined
    code, out, _ = spaced
    if error is None:
        assert code == 0
        assert payload(out)["inputs"][flag.removeprefix("--")] == value
    else:
        assert code == 1
        assert payload(out)["error"]["code"] == error


def test_plot_walls_unwritable_out(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "plot-walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1",
        "--out", str(tmp_path / "missing" / "x.svg"),
    )
    assert code == 1
    assert payload(out)["error"]["code"] == "bad_output"


def test_plot_walls_two_lines(capsys, tmp_path):
    out_path = tmp_path / "walls.svg"
    code, out, _ = run_cli(
        capsys, "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "0,1,0,-1", "--type", "[[2,1],[1,1]]", "--out", str(out_path),
    )
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('<line class="wall"') == 2
    assert '<path class="parabola"' in svg
    assert payload(out)["result"]["wall_count"] == 2


def test_plot_walls_projection_point(capsys, tmp_path):
    out_path = tmp_path / "proj.svg"
    code, out, _ = run_cli(
        capsys, "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "1,0,1,1", "--out", str(out_path),
    )
    assert code == 0
    svg = out_path.read_text()
    assert '<circle class="projection"' in svg
    # the point sits at b = 5/11 in a (-1, 1) viewport: px = (5/11+1)/2*640
    assert 'cx="465.454545455"' in svg
    assert payload(out)["warnings"] == ["no walls requested; diagram shows the parabola only"]


@pytest.mark.parametrize(
    "vector, type_text, slanted, vertical, warnings",
    [
        ("-1,1,0,-3", "[[2,1],[1,1]]", 2, 0, []),
        ("1,0,0,0", "[[1,1]]", 0, 1, []),
        ("1,0,0,1", "[[1,1]]", 0, 0, ["wall at w=0 degenerates at the projection point"]),
        ("0,0,0,-1", "[[1,1]]", 0, 0, ["vector has vanishing imaginary part; no wall line drawn"]),
    ],
    ids=["ranked", "vertical", "degenerate", "vanishing_imaginary"],
)
def test_plot_walls_line_kinds(capsys, tmp_path, vector, type_text, slanted, vertical, warnings):
    out_path = tmp_path / "walls.svg"
    code, out, _ = run_cli(
        capsys, "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10",
        f"--v={vector}", "--type", type_text, "--out", str(out_path),
    )
    assert code == 0
    ends = re.findall(r'<line class="wall" x1="([^"]+)" y1="[^"]+" x2="([^"]+)"', out_path.read_text())
    assert sum(x1 != x2 for x1, x2 in ends) == slanted
    assert sum(x1 == x2 for x1, x2 in ends) == vertical
    assert payload(out)["warnings"] == warnings


@pytest.mark.parametrize("argv", [["--help"], ["rho", "--help"]], ids=["--help", "rho --help"])
def test_help_returns_zero(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "usage: k3walls" in out


def test_plot_walls_deterministic(capsys, tmp_path):
    args = ["plot-walls", "--g", "3", "--k", "2", "--eps", "1/10",
            "--v", "0,1,0,-1", "--type", "[[1,1]]"]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(capsys, *args, "--out", str(a))
    run_cli(capsys, *args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_json_output_is_sorted_and_stable(capsys):
    _, out1, _ = run_cli(capsys, "rho-k", "--g", "5", "--k", "2", "--r", "1", "--d", "3")
    _, out2, _ = run_cli(capsys, "rho-k", "--g", "5", "--k", "2", "--r", "1", "--d", "3")
    assert out1 == out2
    doc = payload(out1)
    assert doc["schema_version"] == "1"
    assert list(doc.keys()) == sorted(doc.keys())


@pytest.mark.parametrize(
    "viewport",
    ["-1,1,0,1e-400", "1,1,0,1", "0,1,x,1", "0,1,0"],
    ids=["overflow", "degenerate", "unparsable", "three_entries"],
)
def test_plot_walls_bad_viewport(capsys, tmp_path, viewport):
    # a coordinate beyond the float range is the viewport's fault, not a crash
    out_file = tmp_path / "x.svg"
    code, out, _ = run_cli(
        capsys, "plot-walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1",
        f"--viewport={viewport}", "--out", str(out_file),
    )
    assert code == 1
    assert payload(out)["error"]["code"] == "bad_viewport"
    assert not out_file.exists()


# ------------------------------------------------------------ CLI contract

# tokens any text option may get, most of them malformed for it; the last
# ones hold integers past the input bound
TEXT = st.sampled_from(
    ["-1/2", "1e-400", "x", "{}", "[[1,1]]", "[[1e400,1]]", "", "0", "1/0",
     "0,1,0,-1", "-1,1,0,1e-400", "all",
     ABOVE, HUGE, f"1/{ABOVE}", f"0,1,0,-{ABOVE}", f"[[{ABOVE},1]]", "1e5000,1e4000,0,1"]
)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


G, K, R, D = _ints(2, 12), _ints(1, 6), _ints(-1, 4), _ints(-1, 12)
VECTOR = st.sampled_from(
    ["0,1,0,-1", "0,1,0,-3", "0,1,-1,-2", "-1,1,0,-2", "1,0,1,1", "2,1,0,1", "0,2,0,-1"]
)
VIEWPORT = st.sampled_from(["-1,1,-0.2,1", "-1/2,1/2,-1/10,1", "-1,1,0,1e-400", "1,1,0,1"])
TYPE = st.sampled_from(["[[1,1]]", "[[2,1],[1,1]]", "[[0,2]]", "[[3,1],[1,1]]", "[]", "[[1,0]]"])
EPS = st.sampled_from(["1/10", "1/7", "1", "-1/2", "0"])
# subcommand -> {option: values, or None for a flag}; the bounds keep every call
# small: types r <= 6, verify at most (4, 3), tableaux always gets a node budget
OPTIONS = {
    "rho": {"--g": G, "--r": R, "--d": D},
    "rho-k": {"--g": G, "--k": K, "--r": R, "--d": D},
    "decompose": {"--r": _ints(-1, 8), "--ell": _ints(-1, 8), "--g": G, "--k": K, "--d": D},
    "types": {"--g": G, "--k": K, "--r": _ints(-2, 6), "--v": VECTOR,
              "--refined": None, "--square-filter": None},
    "walls": {"--g": G, "--k": K, "--eps": EPS, "--v": VECTOR, "--type": TYPE},
    "tableaux": {"--g": G, "--k": K, "--r": R, "--d": D},
    "chain": {"--g": G, "--k": _ints(-1, 8), "--r": R, "--d": D},
    "verify": {"--suite": st.sampled_from(["all", *verify.SUITES, "x"]), "--max-g": _ints(2, 4),
               "--max-k": _ints(1, 3)},
    "plot-walls": {"--g": G, "--k": K, "--eps": EPS, "--v": VECTOR, "--type": TYPE,
                   "--viewport": VIEWPORT},
}


@st.composite
def argvs(draw):
    # a clean argv gives every option a value from its own domain; a noisy one
    # may also drop an option, leave it without a value, or give it any token
    command = draw(st.sampled_from([*OPTIONS, "frobnicate"]))
    noisy = draw(st.booleans())
    argv = [command]
    for flag, values in OPTIONS.get(command, {}).items():
        if values is None or (noisy and draw(st.booleans())):
            if draw(st.booleans()):
                argv.append(flag)
            continue
        value = draw(st.one_of(values, TEXT) if noisy else values)
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if command == "tableaux":
        argv += ["--budget", "10000"]
    return argv


@given(argv=argvs(), missing_dir=st.booleans())
@settings(max_examples=150, deadline=None)
def test_cli_contract(tmp_path_factory, argv, missing_dir):
    # whatever the argv: one JSON document on stdout, exit 0, 1 or 2, no exception
    if argv[0] == "plot-walls":
        out_dir = tmp_path_factory.getbasetemp() / ("missing" if missing_dir else "")
        argv = [*argv, "--out", str(out_dir / "x.svg")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    text = out.getvalue()
    assert text.count("\n") == 1 and text.endswith("\n"), argv
    doc = json.loads(text)
    assert ("error" in doc) == (code == 1), argv
