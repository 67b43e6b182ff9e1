"""Tests of the benchmark's oracle and output checks (standard library only).

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import unittest
from fractions import Fraction

import oracle
import run

QUINTIC = ((4,), ((5,),))
BICUBIC = ((2, 2), ((3,), (3,)))
HUB = ((1, 1, 1, 1), ((2,), (2,), (2,), (2,)))


class OracleHandValues(unittest.TestCase):
    def test_quintic(self):
        self.assertEqual(oracle.euler(*QUINTIC), -200)
        self.assertEqual(
            oracle.hilbert(*QUINTIC), (0, Fraction(25, 6), 0, Fraction(5, 6))
        )

    def test_bicubic(self):
        self.assertEqual(oracle.euler(*BICUBIC), -162)

    def test_hub(self):
        self.assertEqual(oracle.euler(*HUB), -128)

    def test_conifold_of_the_split_quintic(self):
        split = ((4, 1), ((4, 1), (1, 1)))
        self.assertEqual(oracle.sites(*split), [(1, (0, 1))])
        self.assertEqual(oracle.contract(*split, 1, (0, 1)), QUINTIC)
        self.assertEqual(oracle.euler(*split) - oracle.euler(*QUINTIC), 2 * 16)

    def test_refuses_what_is_not_a_cicy_threefold(self):
        with self.assertRaises(oracle.OracleError):
            oracle.euler((3,), ((4,),))  # quartic K3 surface
        with self.assertRaises(oracle.OracleError):
            oracle.euler((4,), ((4,),))  # not Calabi-Yau


class ChecksBite(unittest.TestCase):
    """Every tampered output must count as a failed op, every clean one pass."""

    @classmethod
    def setUpClass(cls):
        cls.program = run.import_program()

    def check_workload(self, name, expected_caught):
        run.OUT.mkdir(parents=True, exist_ok=True)
        caught, misjudged = run.self_test(run.WORKLOADS[name](self.program, 0))
        self.assertEqual(misjudged, [])
        self.assertEqual(caught, expected_caught)

    def test_sweep(self):
        self.check_workload("sweep", 2)  # wrong ODP count, tampered waypoint

    def test_invariants(self):
        self.check_workload("invariants", 3)  # wrong Euler, Hilbert, ODP

    def test_cli(self):
        self.check_workload("cli", 4)  # all four through the JSON reports


if __name__ == "__main__":
    unittest.main()
