"""Checks that survive ``python -O``: the CLI exponent and degree limits and
the invariants of zero-cycle sums and jets, raised as ``InvalidInput`` errors."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modsym import cli
from modsym.chow import GA, GM, zero_cycle
from modsym.errors import DegreeTooLarge, ExponentTooLarge, IncompatibleTerms
from modsym.fields import FpField, QField, RatFunField
from modsym.kahler import DifferentialForm, JetElement, dlog

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_in_fresh_process(*argv, timeout):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "modsym.cli", "--json", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


class TestExponentLimit:
    def test_huge_exponent_exits_1_quickly(self):
        # a fresh process, so a missing limit times out instead of hanging the suite
        t0 = time.perf_counter()
        proc = _cli_in_fresh_process(
            "residue", "--field", "F7(u)(t)", "--a", "u", "--f", "t^99999999", "--point", "t",
            timeout=5,
        )
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"] == "ExponentTooLarge"

    @pytest.mark.parametrize("n", [cli.MAX_EXPONENT + 1, -cli.MAX_EXPONENT - 1])
    def test_limit_is_on_the_absolute_value(self, n):
        R = cli.parse_field("Q(t)")
        with pytest.raises(ExponentTooLarge):
            cli._ExprParser(R, f"t^{n}").parse()

    @pytest.mark.parametrize("n", [cli.MAX_EXPONENT, -cli.MAX_EXPONENT])
    def test_limit_itself_is_accepted(self, n):
        R = cli.parse_field("F7(t)")
        t = R.from_poly((0, 1))
        assert cli._ExprParser(R, f"t^{n}").parse() == R.pow(t, n)


class TestDegreeLimit:
    N = cli.MAX_DEGREE // 2  # (t+u)^N has degree N in t plus N in u

    def test_largest_dense_power_answers(self):
        t0 = time.perf_counter()
        proc = _cli_in_fresh_process(
            "residue", "--field", "F7(u)(t)", "--a", "u", "--f", f"(t+u)^{self.N}", "--point", "t",
            timeout=10,
        )
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"residue": []}

    def test_next_dense_power_exits_1_quickly(self):
        t0 = time.perf_counter()
        proc = _cli_in_fresh_process(
            "residue", "--field", "F7(u)(t)", "--a", "u", "--f", f"(t+u)^{self.N + 1}", "--point", "t",
            timeout=5,
        )
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"] == "DegreeTooLarge"

    @pytest.mark.parametrize("op", ["*", "/"])
    def test_products_are_bounded(self, op):
        R = cli.parse_field("F7(u)(t)")
        cli._ExprParser(R, f"t^{self.N}{op}u^{self.N}").parse()
        with pytest.raises(DegreeTooLarge):
            cli._ExprParser(R, f"t^{self.N}{op}u^{self.N + 1}").parse()

    def test_degree_sums_the_levels(self):
        R = cli.parse_field("F7(u)(t)")
        v = cli._ExprParser(R, "(t^2+u^3)/(t-u^4)").parse()
        assert cli._degree(R, v) == 2 + 4


class TestZeroCycleSum:
    def test_different_ambient_pairs(self):
        K = RatFunField(FpField(7), "u")
        z1 = zero_cycle(K, (GA, GM), [(K, (K.one, K.one), 1)])
        z2 = zero_cycle(K, (GA, GA), [(K, (K.one, K.one), 1)])
        with pytest.raises(IncompatibleTerms):
            z1 + z2

    def test_different_bases(self):
        K = RatFunField(FpField(7), "u")
        L = RatFunField(QField(), "u")
        z1 = zero_cycle(K, (GA, GM), [(K, (K.one, K.one), 1)])
        z2 = zero_cycle(L, (GA, GM), [(L, (L.one, L.one), 1)])
        with pytest.raises(IncompatibleTerms):
            z1 + z2

    def test_same_ambient_adds_terms(self):
        K = RatFunField(FpField(7), "u")
        z = zero_cycle(K, (GA, GM), [(K, (K.one, K.one), 1)])
        assert (z + z).terms == z.terms * 2


class TestJetElement:
    def test_part_must_be_a_one_form(self):
        K = RatFunField(QField(), "u")
        with pytest.raises(IncompatibleTerms):
            JetElement(K, DifferentialForm.scalar(K, K.one), K.one)

    def test_one_form_accepted(self):
        K = RatFunField(QField(), "u")
        u = K.from_poly((0, 1))
        jet = JetElement(K, dlog(K, u), K.one)
        assert jet.omega.degree == 1
