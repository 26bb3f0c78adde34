import sys
from fractions import Fraction

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line-per-criterion acceptance report after capture ends."""
    for mod in list(sys.modules.values()):
        lines = getattr(mod, "ACCEPTANCE_REPORT_LINES", None)
        if lines:
            terminalreporter.section("acceptance criteria")
            for line in sorted(lines):
                terminalreporter.write_line(line)
            break


@pytest.fixture(scope="session")
def mis_coefficients():
    """The temporal foil: f_1..f_n of the Mueller-Israel-Stewart attractor of
    Bjorken flow, f(w) = sum_n f_n w^-n (Heller & Spalinski, Phys. Rev. Lett.
    115 (2015) 072501), in exact Fractions.  The attractor equation
    C_tau w f f' + 4 C_tau f^2 + (w - 16 C_tau/3) f - 4 C_eta/9
    + 16 C_tau/9 - 2w/3 = 0 gives f_0 = 2/3 and
    f_{n+1} = -C_tau sum_{a+b=n} (4 - b) f_a f_b + (16 C_tau/3) f_n,
    plus 4 C_eta/9 - 16 C_tau/9 at n = 0.  The package covers only the
    spatial series, so this stays with the tests."""

    def build(c_eta, c_tau, n):
        c_eta, c_tau = Fraction(c_eta), Fraction(c_tau)
        f = [Fraction(2, 3)]
        for m in range(n):
            step = 16 * c_tau / 3 * f[m] - c_tau * sum(
                (4 - b) * f[m - b] * f[b] for b in range(m + 1))
            f.append(step + (4 * c_eta / 9 - 16 * c_tau / 9 if m == 0 else 0))
        return f[1:]

    return build
