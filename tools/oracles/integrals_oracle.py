"""Independent reference values for half-plane integrals.

All values come from mpmath.quad at 30 digits, with no shared code with
the package quadrature.  Frozen into tests/test_halfplane.py,
tests/test_quadrature.py, tests/test_bergman.py, tests/test_carleson.py.

Run:  python3 tools/oracles/integrals_oracle.py
"""

import mpmath as mp

mp.mp.dps = 30

# y^tau box transform references: the unit-width box [0, 1] x [y0, 1],
# interior (y0 = 2^-9) and boundary (y0 = 0), at points on both sides of it
BOX_TAUS = ("-0.8", "-0.5", "-0.2")
BOX_Y0S = {"2**-9": mp.mpf(2) ** -9, "0": mp.mpf(0)}
BOX_POINTS = ("0.5+0.01j", "0.03+0.2j", "1+0.05j", "-0.7+0.3j", "2.5+1j",
              "-10+0.01j", "11+0.01j", "11+2j")
# with alpha = 0.5: near the box, high above it and far to its side
BOX_ALPHA_POINTS = ("0.5+0.01j", "1+0.05j", "-0.7+0.3j", "2.5+1j",
                    "0.5+30j", "3+40j", "11+0.01j", "100+0.01j", "1000+0.1j")


def box_transform(tau, y0, z, alpha=0):
    """Im(z)^m int_{y0}^1 y^tau int_0^1 |x + iy - conj(z)|^-2m dx dy.

    Here m = 2 + alpha.  For alpha = 0 the inner x-integral is the
    antiderivative difference at 30 digits; for any other alpha it is an
    mpmath quadrature of its own.
    The outer one runs in t = y^(1+tau), which takes the weight y^tau into
    dt / (1+tau) and leaves no endpoint singularity at y0 = 0; it is split
    at Im(z), the scale of the kernel, and geometrically toward y0.
    """
    x, h = mp.re(z), mp.im(z)
    e = 1 + tau
    m = 2 + mp.mpf(alpha)

    def prim(u, c):
        return u / (2 * c ** 2 * (u ** 2 + c ** 2)) + mp.atan(u / c) / (2 * c ** 3)

    def inner(t):
        c = t ** (1 / e) + h
        if alpha == 0:
            return (prim(1 - x, c) - prim(-x, c)) / e
        return mp.quad(lambda u: (u * u + c * c) ** -m, [-x, 1 - x]) / e

    lo = y0 if y0 > 0 else mp.mpf(10) ** -30
    cuts = sorted({mp.mpf(y0), h, mp.mpf(1),
                   *(mp.exp(v) for v in mp.linspace(mp.log(lo), 0, 40))})
    return h ** m * mp.quad(inner, [c ** e for c in cuts if y0 <= c <= 1])


def main():
    print("# line integral of |x+iy|^{-a} dx, y=2, a=3 (beta closed form 1/2)")
    v = mp.quad(lambda x: (x * x + 4) ** mp.mpf("-1.5"), [-mp.inf, mp.inf])
    print(f"line_y2_a3 = {mp.nstr(v, 20)}")

    print("# halfline integral y^1 (y+2)^{-4} dy (beta closed form 1/24)")
    v = mp.quad(lambda y: y / (y + 2) ** 4, [0, mp.inf])
    print(f"halfline_t2_a1_b4 = {mp.nstr(v, 20)}")

    print("# modular of the decay function: |1-iz|^{-3}, squared, alpha=0")
    # inner x integral in closed form via the line formula, then y quad
    def outer(y):
        a = 6
        return mp.beta(mp.mpf("0.5"), (a - 1) / mp.mpf(2)) * (1 + y) ** (1 - a)
    v = mp.quad(outer, [0, mp.inf])
    print(f"decay_m3_p2_a0 = {mp.nstr(v, 20)}   (3*pi/32 = {mp.nstr(3 * mp.pi / 32, 20)})")

    print("# same with alpha=1 weight")
    def outer1(y):
        a = 6
        return y * mp.beta(mp.mpf("0.5"), (a - 1) / mp.mpf(2)) * (1 + y) ** (1 - a)
    v = mp.quad(outer1, [0, mp.inf])
    ref = mp.beta(mp.mpf("0.5"), mp.mpf("2.5")) * mp.beta(2, 3)
    print(f"decay_m3_p2_a1 = {mp.nstr(v, 20)}   closed {mp.nstr(ref, 20)}")

    print("# disk second moment: integral of y^2 over disk center (0,1) r=0.5")
    # classical: pi r^2 (y0^2 + r^2/4)
    r = mp.mpf("0.5")
    v = mp.quad(lambda rho, th: (1 + rho * mp.sin(th)) ** 2 * rho,
                [0, r], [-mp.pi, mp.pi])
    print(f"disk_y2_c1_r05 = {mp.nstr(v, 20)}  "
          f"closed {mp.nstr(mp.pi * r**2 * (1 + r**2 / 4), 20)}")

    print("# squared A^2_0 norm of the normalized kernel at i (expect pi/4)")
    def f(x, y):
        return y / ((x * x + (y + 1) ** 2) ** 2)
    v = 0
    # |k_i(z)|^2 = Im(i)^2 / |z+i|^4 with Im weight from normalization
    v = mp.quad(lambda y: mp.quad(lambda x: 1 / (x * x + (y + 1) ** 2) ** 2,
                                  [-mp.inf, mp.inf]), [0, mp.inf])
    print(f"normkernel_sq_at_i = {mp.nstr(v, 20)}   (pi/4 = {mp.nstr(mp.pi / 4, 20)})")

    print("# Berezin transform of V_0 at z=i, alpha=0 (expect pi/4)")
    v = mp.quad(lambda y: mp.quad(lambda x: 1 / (x * x + (y + 1) ** 2) ** 2,
                                  [-mp.inf, mp.inf]), [0, mp.inf])
    print(f"berezin_v0_at_i = {mp.nstr(v, 20)}")

    print("# L2 modular of dirac-at-i Berezin symbol (expect pi/96)")
    # btilde(z) = y^2/|i - zbar|^4; integrate btilde^2 over C+ with alpha=0
    def bt2(x, y):
        return y ** 4 / ((x * x + (y + 1) ** 2) ** 4)
    v = mp.quad(lambda y: mp.quad(lambda x: bt2(x, y), [-mp.inf, mp.inf]),
                [0, mp.inf])
    print(f"dirac_berezin_l2_modular = {mp.nstr(v, 20)}   "
          f"(pi/96 = {mp.nstr(mp.pi / 96, 20)})")
    lux = mp.sqrt(v) / 2
    print(f"dirac_berezin_lux_phi3 = {mp.nstr(lux, 20)}")

    print("# Gram entry: <K_w, K_w'> A^2_0 for w=i, w'=0.5+2i")
    # closed form K_0(w', w)/c'_0 with c'_0 = 1/pi
    w = mp.mpc(0, 1)
    wp = mp.mpc("0.5", 2)
    closed = mp.pi * ((wp - mp.conj(w)) / mp.mpc(0, 1)) ** (-2)

    def integrand(x, y):
        z = mp.mpc(x, y)
        kw = ((z - mp.conj(w)) / mp.mpc(0, 1)) ** (-2)
        kwp = ((z - mp.conj(wp)) / mp.mpc(0, 1)) ** (-2)
        return kw * mp.conj(kwp)

    v = mp.quad(lambda y: mp.quad(lambda x: integrand(x, y), [-mp.inf, mp.inf]),
                [0, 2, mp.inf])
    print(f"gram_i_05p2i_quad = {mp.nstr(v, 15)}")
    print(f"gram_i_05p2i_closed = {mp.nstr(closed, 15)}")

    print("# Berezin of dirac at i evaluated at z=2i, alpha=0")
    # Im(z)^2 / |i - conj(z)|^4 at z=2i: 4 / |i+2i|^4 = 4/81
    print(f"berezin_dirac_at_2i = {mp.nstr(mp.mpf(4) / 81, 20)}")

    print("# y^tau box transforms on [0,1] x [y0,1], alpha=0: (y0, tau, z, value)")
    for y0_text, y0 in BOX_Y0S.items():
        for tau in BOX_TAUS:
            for z in BOX_POINTS:
                v = box_transform(mp.mpf(tau), y0, mp.mpc(complex(z)))
                print(f"    ({y0_text}, {tau}, {z}, {mp.nstr(v, 17)}),")

    print("# the same transform with alpha = 0.5 (m = 2.5) and tau = -0.5")
    for z in BOX_ALPHA_POINTS:
        v = box_transform(mp.mpf("-0.5"), BOX_Y0S["2**-9"],
                          mp.mpc(complex(z)), mp.mpf("0.5"))
        print(f"    ({z}, {mp.nstr(v, 17)}),")


if __name__ == "__main__":
    main()
