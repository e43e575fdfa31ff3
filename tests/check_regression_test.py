#!/usr/bin/env python3
"""Exit-code contract of bench/check_regression.py on the fixtures in
tests/fixtures/check_regression/: 0 when every compared row is within the
ratio, 1 on a regression, 2 when nothing is compared.

    python3 tests/check_regression_test.py
"""
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "bench", "check_regression.py")
FIXTURES = os.path.join(ROOT, "tests", "fixtures", "check_regression")


def fixtures(prefix):
    return [os.path.join(FIXTURES, f"{prefix}_{i}.json") for i in (1, 2, 3)]


def check(*args):
    return subprocess.run([sys.executable, CHECKER, *args], capture_output=True,
                          text=True).returncode


class CheckRegression(unittest.TestCase):
    def test_medians_pass_over_one_noisy_run(self):
        self.assertEqual(check("--current", *fixtures("steady"),
                               "--baseline", *fixtures("parent")), 0)

    def test_the_noisy_run_alone_fails_the_two_file_form(self):
        self.assertEqual(check(fixtures("steady")[1], fixtures("parent")[0]), 1)

    def test_two_file_form_passes_a_steady_run(self):
        self.assertEqual(check(fixtures("steady")[0], fixtures("parent")[0]), 0)

    def test_regression_fails(self):
        self.assertEqual(check("--current", *fixtures("slower"),
                               "--baseline", *fixtures("parent")), 1)

    def test_filter_can_exclude_the_regressed_row(self):
        self.assertEqual(check("--current", *fixtures("slower"),
                               "--baseline", *fixtures("parent"), "--filter", "^BM_Sweep"), 0)

    def test_vacuous_filter_exits_2(self):
        self.assertEqual(check("--current", *fixtures("steady"),
                               "--baseline", *fixtures("parent"), "--filter", "^BM_Nope"), 2)

    def test_mixed_forms_are_rejected(self):
        self.assertEqual(check(fixtures("steady")[0], fixtures("parent")[0],
                               "--baseline", fixtures("parent")[1]), 2)


if __name__ == "__main__":
    unittest.main()
