"""Independent reference values for Luxembourg-norm computations.

mpmath at 40 digits; frozen into tests/test_orlicz.py.

Run:  python3 tools/oracles/orlicz_oracle.py
"""

import mpmath as mp

mp.mp.dps = 40


def main():
    print("# unit dirac at i, f = 2, phi = t^2 log(1+t): solve phi(2/lam) = 1")
    u = mp.findroot(lambda u: u * u * mp.log(1 + u) - 1, mp.mpf("1.1"))
    print(f"lam = {mp.nstr(2 / u, 20)}")


if __name__ == "__main__":
    main()
