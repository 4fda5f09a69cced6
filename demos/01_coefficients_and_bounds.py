"""Parsing time-dependent coefficients and extracting their bounds.

Every model coefficient is a small expression in the time variable, and
``parse`` returns its tree.  The bounds over [0, oo) drive the
closed-form criteria: sinusoidal patterns get exact analytic bounds,
everything else a dense grid scan.
"""

import math

from ussir import bounds, parse, serialize
from ussir.expr import evaluate

COEFFICIENTS = [
    ("transmission", "0.3+0.1*sin(4*t)"),
    ("recovery", "0.8+0.04*cos(7*t)"),
    ("exponent (saturating)", "1+t/(1+t)"),
    ("diffusion (two-phase)", "0.141+0.02*(sin(t)+cos(t))"),
    ("exponent (log form)", "1+ln(1+abs(sin(t)))"),
]


def main():
    print("coefficient expressions, values, and bounds over [0, oo)\n")
    for label, text in COEFFICIENTS:
        f = parse(text)
        b = bounds(f)
        print(f"{label:24s} {text}")
        print(f"{'':24s} f(0) = {evaluate(f, t=0.0):.6g}, f(pi/2) = {evaluate(f, t=math.pi / 2):.6g}")
        print(f"{'':24s} inf = {b.inf:.10g}, sup = {b.sup:.10g}  [{b.method}]")
        print(f"{'':24s} canonical form: {serialize(f)}\n")

    two_phase = parse("0.141+0.02*(sin(t)+cos(t))")
    b = bounds(two_phase)
    print("the two-phase amplitude is exact:")
    print(f"  sup - 0.141 = {b.sup - 0.141:.12f}")
    print(f"  0.02*sqrt2  = {0.02 * math.sqrt(2):.12f}")


if __name__ == "__main__":
    main()
