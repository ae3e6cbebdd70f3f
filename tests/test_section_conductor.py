"""Exact local conductors of sections, in the library and through the CLI.

``section_conductor`` reads valuations and expands only a Ga pole part; the
oracle is the Laurent route (``expand_at`` or ``localize_form``) at a
precision past every valuation the input can have.  The CLI ``conductor``
command must print the oracle's profile byte for byte.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modsym import cli
from modsym.curve import INF
from modsym.errors import ModsymError, NoEvaluationMap, ZeroFunction
from modsym.kahler import DifferentialForm, dlog
from modsym.localfield import (
    conductor_ga,
    conductor_gm,
    conductor_omega,
    expand_at,
    localize_form,
    section_conductor,
)

# field -> (finite points: rational, then higher degree; constants)
FIELDS = {
    "F7(t)": (["t", "t-3", "t^2+1"], ["1", "3"]),
    "Q(t)": (["t", "t+2", "t^2+1", "t^2-2"], ["1", "5"]),
    "F3(u)(t)": (["t", "t-u", "t^2-u"], ["1", "u", "u+1"]),
    "F7(u)(t)": (["t", "t+u", "t^3-u"], ["1", "u", "2*u"]),
}


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    return code, buf.getvalue()


def dumps(body):
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def sections(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    points, consts = FIELDS[name]
    exps = [draw(st.integers(-3, 3)) for _ in points]
    c = draw(st.sampled_from(consts))
    g = "*".join([c] + [f"({p})^{e}" for p, e in zip(points, exps) if e])
    return name, g, draw(st.sampled_from(points + ["inf"]))


def resolving(g):
    """A precision past |v_x(g)| at every point x: deg(num) + deg(den) + 2."""
    num, den = g
    return len(num) + len(den)


def outcome(fn, *args, **kwargs):
    """What the CLI prints for a computation: (exit code, stdout)."""
    try:
        body, code = fn(*args, **kwargs).to_json(), 0
    except ModsymError as e:
        body, code = {"error": type(e).__name__, "message": str(e)}, 2
    return code, dumps(body)


def oracle(R, tag, g, point, prec):
    lau = expand_at(R, g, point, prec=prec)
    return (conductor_gm if tag == "Gm" else conductor_ga)(lau)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sections(), st.sampled_from(["Ga", "Gm"]))
def test_section_conductor_matches_laurent_route(case, tag):
    name, g_text, pt_text = case
    R = cli.parse_field(name)
    g = cli.parse_elem(R, g_text)
    point = cli.parse_point(R, pt_text)
    # a Ga pole at a higher-degree point over F_p(u) needs p-th roots in an
    # algebraic extension of F_p(u): both routes raise UnsupportedField there
    expected = outcome(oracle, R, tag, g, point, resolving(g))
    assert outcome(section_conductor, R, tag, g, point) == expected
    argv = ["conductor", "--tag", tag, "--field", name, "--f", g_text, "--point", pt_text]
    assert run(*argv) == expected


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sections(), st.sampled_from([[], ["t+1"], ["t-2", "t^2+1"]]))
def test_cli_omega_conductor_matches_laurent_route(case, dlogs):
    name, g_text, pt_text = case
    R = cli.parse_field(name)
    point = cli.parse_point(R, pt_text)
    if point != INF and len(point) != 2:
        return  # forms are localized at rational points and infinity only
    g = cli.parse_elem(R, g_text)
    form = DifferentialForm.scalar(R, g)
    for b in dlogs:
        form = form.wedge(dlog(R, cli.parse_elem(R, b)))
    # the dlogs add at most 3 to a valuation; dt at infinity adds 2 more
    local = localize_form(R, form, point, prec=resolving(g) + 5)
    argv = ["conductor", "--tag", f"Omega({len(dlogs)})", "--field", name, "--f", g_text,
            "--point", pt_text]
    for b in dlogs:
        argv += ["--dlog", b]
    assert run(*argv) == outcome(conductor_omega, local, form.degree)


@pytest.mark.parametrize(
    "argv, body",
    [
        (["--tag", "Gm", "--field", "Q(t)", "--f", "t", "--point", "t"],
         {"characteristic": 0, "result": 1, "tag": "Gm", "witness": {"valuation": 1}}),
        (["--tag", "Ga", "--field", "Q(t)", "--f", "t", "--point", "t"],
         {"characteristic": 0, "result": 0, "tag": "Ga", "witness": {}}),
        (["--tag", "Gm", "--field", "F3(u)(t)", "--f", "1/t^3", "--point", "inf"],
         {"characteristic": 3, "result": 1, "tag": "Gm", "witness": {"valuation": 3}}),
        (["--tag", "Omega(1)", "--field", "Q(t)", "--f", "t^12", "--dlog", "t+1", "--point", "t"],
         {"characteristic": 0, "result": 0, "tag": "Omega(1)",
          "witness": {"s": {"level": 0, "valuation": 12}}}),
        (["--tag", "Omega(1)", "--field", "F7(t)", "--f", "t^1000", "--dlog", "t+1", "--point", "t"],
         {"characteristic": 7, "result": 0, "tag": "Omega(1)",
          "witness": {"s": {"level": 0, "valuation": 1000}}}),
    ],
)
def test_inputs_that_needed_a_precision(argv, body):
    assert run("conductor", *argv) == (0, dumps(body))


def test_gm_at_an_inseparable_point():
    # t^7 - u over F7(u) is purely inseparable: no expansion, but a valuation
    R = cli.parse_field("F7(u)(t)")
    point = cli.parse_point(R, "t^7-u")
    prof = section_conductor(R, "Gm", cli.parse_elem(R, "(t^7-u)^2/t"), point)
    assert (prof.result, prof.witness) == (1, {"valuation": 2})
    assert section_conductor(R, "Ga", cli.parse_elem(R, "1/t"), point).result == 0


def test_zero_and_unknown_sections():
    R = cli.parse_field("F7(t)")
    point = cli.parse_point(R, "t")
    assert section_conductor(R, "Ga", R.zero, point).result == 0
    with pytest.raises(ZeroFunction, match="Gm sections are nonzero"):
        section_conductor(R, "Gm", R.zero, point)
    with pytest.raises(NoEvaluationMap):
        section_conductor(R, "Z", R.one, point)
    assert run("conductor", "--tag", "Gm", "--field", "F7(t)", "--f", "0") == (
        2, dumps({"error": "ZeroFunction", "message": "Gm sections are nonzero"}))


def validation(message):
    return 1, dumps({"error": "validation", "message": message})


@pytest.mark.parametrize(
    "argv",
    [
        ["residue", "--field", "Q(t)", "--a", "1", "--f", "t^2-1", "--point", "t^2-1"],
        ["conductor", "--tag", "Gm", "--field", "F7(t)", "--f", "t", "--point", "t^2-2"],
        ["conductor", "--tag", "Ga", "--field", "F7(u)(t)", "--f", "1/t", "--point", "t^2-u^2"],
        ["conductor", "--tag", "Gm", "--field", "Q(t)", "--f", "t", "--point", "1"],
        ["relation", "--field", "Q(t)", "--f", "t", "--section", "Gm:t@t^2-1:1"],
        ["admissible", "--field", "Q(t)", "--source", "t^2-1:1", "--g", "t", "--target", "gm"],
    ],
)
def test_reducible_points_are_rejected(argv):
    assert run(*argv) == validation("point polynomials must be irreducible")


def test_irreducible_points_still_parse():
    R = cli.parse_field("F7(u)(t)")
    assert len(cli.parse_point(R, "t^7-u")) == 8
    assert len(cli.parse_point(R, "t-u")) == 2


def test_deep_nesting_is_a_validation_error():
    deep = "(" * 3000 + "t" + ")" * 3000
    assert run("conductor", "--tag", "Gm", "--field", "Q(t)", "--f", deep) == validation(
        "expression nested too deeply")
    shallow = "(" * 50 + "t" + ")" * 50
    assert run("conductor", "--tag", "Gm", "--field", "Q(t)", "--f", shallow)[0] == 0


@pytest.mark.parametrize(
    "tag, dlogs, degree",
    [("Omega(7)", [], 0), ("Omega(x)", [], 0), ("Omega(1)", [], 0), ("Omega(0)", ["t+1"], 1),
     ("Omega(1.0)", ["t+1"], 1), ("Omegafoo", [], 0)],
)
def test_omega_degree_must_match_the_form(tag, dlogs, degree):
    argv = ["conductor", "--tag", tag, "--field", "Q(t)", "--f", "t"]
    for b in dlogs:
        argv += ["--dlog", b]
    assert run(*argv) == validation(f"tag {tag!r} does not match a form of degree {degree}")


def test_plain_omega_takes_the_form_degree():
    code, out = run("conductor", "--tag", "Omega", "--field", "Q(t)", "--f", "1/t",
                    "--dlog", "t+1", "--point", "t")
    assert code == 0
    assert json.loads(out)["tag"] == "Omega(1)"


def test_no_precision_option():
    assert "--precision" not in cli.build_parser().format_help()
