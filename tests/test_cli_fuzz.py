"""Every CLI input ends in exit 0, 1 or 2 with one JSON object on stdout.

A hypothesis fuzz over every subcommand and over the base fields Q, F2, F3,
F7, F3(u), F7(u) and Q(u), with curve elements of t-degree at most 3 (larger
Q(u) inputs reach the slow gcd of ROADMAP item 2).  Each input runs through
``cli.main`` in this process, so a traceback fails the test, and gets a time
budget.  A second test runs the README commands and a few more in fresh
interpreters under several ``PYTHONHASHSEED`` values and asks for identical
bytes.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modsym import cli
from modsym.fields import ExtField, field_to_descriptor
from modsym.fixtures import FIXTURES

from test_no_sympy import README_COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"
BASES = ["Q", "F2", "F3", "F7", "F3(u)", "F7(u)", "Q(u)"]
BUDGET_S = 10.0
TARGETS = ["ga", "gm", "box", "prod:ga,gm:sum", "prod:gm,gm:max", "prod:ga,ga:sum", "inf:2", "t:1,inf:1"]
TAGS = ["Ga", "Gm", "Z", "Omega(1)", "KM(1)", "Ga(2)"]


def _junk(rng):
    return "".join(rng.choice("tu()+-*/^0123456789 ,:@x") for _ in range(rng.randint(0, 8)))


def _const(rng):
    n = rng.randint(-3, 5)
    return f"({n})" if n < 0 else str(n)


def _coeff(rng, base, var):
    """A small coefficient of a polynomial in var."""
    c = _const(rng)
    if "(u)" in base and var != "u" and rng.random() < 0.5:
        c = rng.choice(["u", f"({c}+u)", f"{c}*u^2", f"1/(u+{rng.randint(1, 3)})"])
    return c


def _poly(rng, base, deg, var="t"):
    terms = [f"{_coeff(rng, base, var)}*{var}^{i}" for i in range(deg)]
    return "+".join(terms + [f"{var}^{deg}"])


def _elem(rng, base, var="t"):
    """An element of degree at most 3 in var, or now and then malformed text.

    With var None, a constant of the base.
    """
    r = rng.random()
    if r < 0.05:
        return _junk(rng)
    if r < 0.15 or var is None:
        return _coeff(rng, base, var)
    num = _poly(rng, base, rng.randint(0, 3), var)
    if rng.random() < 0.5:
        return f"{_coeff(rng, base, var)}*({num})"
    den = _poly(rng, base, rng.randint(1, 3 - min(2, rng.randint(0, 3))), var)
    return f"({num})/({den})"


def _point(rng, base):
    r = rng.random()
    if r < 0.2:
        return "inf"
    if r < 0.25:
        return _junk(rng)
    return _poly(rng, base, rng.choice([1, 1, 2]))


def _divisor(rng, base):
    return ",".join(f"{_point(rng, base)}:{rng.randint(-1, 3)}" for _ in range(rng.randint(0, 3)))


def _value_json(rng, L, tag):
    if tag == "Z":
        return rng.randint(-3, 3)
    if rng.random() < 0.05:
        return _junk(rng)
    return L.elem_to_json(L.rand(rng))


def _term_field(rng, K):
    """K itself, or a quadratic or inseparable step above it."""
    r = rng.random()
    if r < 0.6:
        return K
    if r < 0.8 or K.char == 0:
        # x^2 - c: reducible for some c, which the library refuses
        c = K.from_int(rng.choice([2, 3, 5, -1]))
        return ExtField(K, "x", (K.neg(c), K.zero, K.one))
    y = K.rand(rng)
    return ExtField(K, "x", (K.neg(y),) + (K.zero,) * (K.char - 1) + (K.one,))


def _sum_json(rng, base):
    K = cli.parse_field(base)
    terms = []
    for _ in range(rng.randint(0, 2)):
        L = _term_field(rng, K)
        tags = [rng.choice(TAGS) for _ in range(rng.randint(1, 3))]
        terms.append({"coeff": rng.randint(-2, 2), "ext": field_to_descriptor(L),
                      "entries": [{"tag": tag, "value": _value_json(rng, L, tag)} for tag in tags]})
    data = {"convention": rng.choice(["sum", "max"]), "terms": terms}
    text = json.dumps(data)
    return text if rng.random() > 0.05 else text[: rng.randint(0, len(text))]


def _cycle_json(rng, base):
    K = cli.parse_field(base)
    terms = []
    for _ in range(rng.randint(0, 2)):
        L = _term_field(rng, K)
        terms.append({"ext": field_to_descriptor(L), "coeff": rng.randint(-2, 2),
                      "coords": [L.elem_to_json(L.rand(rng)) for _ in range(2)]})
    ambient = {"m1": rng.choice(["GaM", "GmM", "Z"]), "m2": rng.choice(["GaM", "GmM"]),
               "conv": rng.choice(["sum", "max"])}
    return json.dumps({"ambient": ambient, "terms": terms})


def _dlogs(rng, base):
    out = []
    for _ in range(rng.randint(0, 2)):
        out += ["--dlog", _elem(rng, base)]
    return out


def command(rng):
    """A random argument list for one subcommand."""
    base = rng.choice(BASES)
    curve = f"{base}(t)"
    sub = rng.choice(["residue", "reciprocity-check", "conductor", "relation", "eval",
                      "admissible", "probe", "chow-class", "higher-class", "fixtures"])
    if sub == "residue":
        return [sub, "--field", curve, "--a", _elem(rng, base), "--f", _elem(rng, base),
                "--point", _point(rng, base)] + _dlogs(rng, base)
    if sub == "reciprocity-check":
        return [sub, "--field", curve, "--a", _elem(rng, base), "--f", _elem(rng, base)] + _dlogs(rng, base)
    if sub == "conductor":
        dl = _dlogs(rng, base)
        tag = rng.choice(["Ga", "Gm", "Omega", f"Omega({len(dl) // 2})", "Omega(3)", "Z"])
        return [sub, "--tag", tag, "--field", curve, "--f", _elem(rng, base),
                "--point", _point(rng, base)] + (dl if tag.startswith("Omega") else [])
    if sub == "relation":
        argv = [sub, "--field", curve, "--f", _elem(rng, base)]
        for _ in range(rng.randint(1, 2)):
            argv += ["--section", f"{rng.choice(['Ga', 'Gm', 'Z'])}:{_elem(rng, base)}@{_divisor(rng, base)}"]
        return argv
    if sub == "eval":
        return [sub, "--map", rng.choice(["omega", "jet", "milnor"]), "--field", base,
                "--sum", _sum_json(rng, base)]
    if sub == "admissible":
        argv = [sub, "--field", curve, "--source", _divisor(rng, base), "--target", rng.choice(TARGETS)]
        for _ in range(rng.randint(1, 3)):
            argv += ["--g", _elem(rng, base)]
        return argv
    if sub == "probe":
        return [sub, f"({_elem(rng, 'Q', 's')},{_elem(rng, 'Q', 's')})"]
    if sub == "chow-class":
        return [sub, "--field", base, "--cycle", _cycle_json(rng, base)]
    if sub == "higher-class":
        var = "u" if "(u)" in base else None
        argv = [sub, "--field", base, "--a", _elem(rng, base, var)]
        for _ in range(rng.randint(0, 2)):
            argv += ["--b", _elem(rng, base, var)]
        return argv
    return [sub, "--set", rng.choice(sorted(FIXTURES))] if rng.random() < 0.8 else [sub, "--all"]


def run_main(argv):
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    return code, buf.getvalue(), time.perf_counter() - start


def check(argv):
    code, out, elapsed = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    assert isinstance(json.loads(out), dict), (argv, out)
    assert elapsed <= BUDGET_S, (argv, elapsed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1))
def test_every_input_ends_in_a_json_exit(seed):
    check(command(random.Random(seed)))


# -- byte-identical output under every hash seed ----------------------------------

RUN_ALL = (
    "import io, json, sys\n"
    "from contextlib import redirect_stdout\n"
    "from modsym import cli\n"
    "for argv in json.loads(sys.stdin.read()):\n"
    "    buf = io.StringIO()\n"
    "    with redirect_stdout(buf):\n"
    "        code = cli.main(['--json', *argv])\n"
    "    print(code, buf.getvalue(), end='')\n"
)

GATE_COMMANDS = README_COMMANDS + [
    ["residue", "--field", "F7(u)(t)", "--a", "1/(t^7-u)", "--f", "t", "--point", "t^7-u"],
    ["conductor", "--tag", "Omega(1)", "--field", "Q(u)(t)", "--f", "t/(t-u)", "--dlog", "t",
     "--point", "t-u"],
    # 2-forms in du and dt, where _d and wedge iterate sets of variables
    ["reciprocity-check", "--field", "F7(u)(t)", "--a", "u/(t^2+u)", "--dlog", "t-u",
     "--f", "(t-1)/(t^2+u*t+1)"],
    ["residue", "--field", "F7(u)(t)", "--a", "u/(t^2+u)", "--dlog", "t-u",
     "--f", "(t-1)/(t^2+u*t+1)", "--point", "t^2+u"],
]


def test_output_ignores_the_hash_seed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    procs = [subprocess.Popen([sys.executable, "-c", RUN_ALL], env={**env, "PYTHONHASHSEED": str(seed)},
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for seed in (0, 1, 2)]
    outs = [p.communicate(json.dumps(GATE_COMMANDS).encode(), timeout=300) for p in procs]
    assert all(p.returncode == 0 for p in procs), [err.decode()[-2000:] for _, err in outs]
    assert outs[0][0].count(b"\n") == len(GATE_COMMANDS)
    assert outs[0][0] == outs[1][0] == outs[2][0]


def test_the_seed_is_an_option_only():
    argv = [sys.executable, "-m", "modsym.cli", "--json", *README_COMMANDS[0]]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    plain = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    # MODSYM_SEED is no setting: not even a malformed value is read
    ignored = subprocess.run(argv, env={**env, "MODSYM_SEED": "x"}, capture_output=True, timeout=120)
    seeded = subprocess.run(argv[:4] + ["--seed", "5"] + argv[4:], env=env, capture_output=True, timeout=120)
    assert plain.returncode == ignored.returncode == seeded.returncode == 0
    assert plain.stdout == ignored.stdout == seeded.stdout
