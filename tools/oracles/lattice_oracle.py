"""Independent reference values for lattice geometry.

mpmath at 40 digits; frozen into tests/test_lattice.py.

Run:  python3 tools/oracles/lattice_oracle.py
"""

import mpmath as mp

mp.mp.dps = 40


def main():
    d = mp.mpf("0.5")
    d2 = d * d
    lo = mp.log((1 + d2 / 20) / (1 - d2 / 20)) / (4 * mp.log(2))
    hi = mp.log((1 + d2 / 4) / (1 - d2 / 4)) / (4 * mp.log(2))
    print(f"gamma_lo(0.5) = {mp.nstr(lo, 20)}")
    print(f"gamma_hi(0.5) = {mp.nstr(hi, 20)}")
    print(f"s_delta(0.5) = {mp.nstr(-1 + (1 + d2 / 20) ** mp.mpf('0.25'), 20)}")

    print("# disjointness margins at the midpoint gamma, delta=0.5")
    g = (lo + hi) / 2
    sd = -1 + (1 + d2 / 20) ** mp.mpf("0.25")
    # same row, adjacent columns: centers d2/8 apart, radii s_d each
    same_row = d2 / 8 - 2 * sd
    print(f"same_row_gap = {mp.nstr(same_row, 20)}   (positive = disjoint)")
    # same column, adjacent rows: vertical spacing (2^g - 1)
    r = mp.mpf(2) ** g
    cross_row = (r - 1) - sd * (r + 1)
    print(f"cross_row_gap = {mp.nstr(cross_row, 20)}   (positive = disjoint)")

    print("# small vertical bands: top of J'_j vs bottom of J'_{j+1}")
    top = (1 + d2 / 20) ** mp.mpf("0.25")
    bot = (1 - d2 / 20) ** mp.mpf("0.25") * r
    print(f"jprime_gap = {mp.nstr(bot - top, 20)}   (positive = disjoint)")

    print("# minimum small-disk gap over window (20, 7), radius rho * height")
    for k in (1, 3, 10):
        print(f"window_gap(rho={k}*s_delta) = "
              f"{mp.nstr(window_gap(d, g, k * sd, 7), 40)}")


def window_gap(d, g, rho, j_max):
    """Smallest (center distance - radius sum) of the small disks over
    the window |l| <= l_max, |j| <= j_max, both bounds at least 1.

    Every gap scales with the lower row's height s = 2^(g j).  Points at
    l = 0 in rows j and j + m leave s [R (1 - rho) - (1 + rho)] with
    R = 2^(g m), smallest at m = 1 for rho < 1; an x offset only adds
    distance; horizontal neighbours in a row leave s [d^2/8 - 2 rho].
    So the minimum sits at an extreme row: the lowest if the bracket is
    positive, the highest if it is negative.
    """
    r = mp.mpf(2) ** g
    cross = (r - 1) - rho * (1 + r)
    same = d * d / 8 - 2 * rho
    return min([cross * r ** j for j in (-j_max, j_max - 1)]
               + [same * r ** j for j in (-j_max, j_max)])


if __name__ == "__main__":
    main()
