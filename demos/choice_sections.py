"""Definable choice in action.

For a family of nonempty fibers over a parameter, build a section g with
g(lambda) in the fiber, evaluate it exactly at rational parameters, and
show the four case regions that drive the construction.
"""

from fractions import Fraction

from sharpcells import parse_formula
from sharpcells.choice import choice

# fiber over l: the open ray (l, +infinity); case C, g = inf + 1
ray = parse_formula("x - l > 0")
fn = choice(ray, 1, fiber_vars=["x"])
for lam in (Fraction(0), Fraction(1, 2), Fraction(-3)):
    coords, cases = fn.evaluate([lam])
    print(f"ray fiber at l={lam}: g = {coords[0].as_fraction()}"
          f"  (case {cases[0]})")

# bounded fiber: the open interval (l, l+1); case D, g = midpoint
interval = parse_formula("(x - l > 0) and (l + 1 - x > 0)")
fn = choice(interval, 1, fiber_vars=["x"])
coords, cases = fn.evaluate([Fraction(2)])
print(f"interval fiber at l=2: g = {coords[0].as_fraction()}"
      f"  (case {cases[0]})")

# two-dimensional fiber, chosen one coordinate at a time
box = parse_formula(
    "(x - l > 0) and (y - x > 0) and (l + 5 - y > 0)")
fn = choice(box, 2, fiber_vars=["x", "y"])
coords, cases = fn.evaluate([Fraction(1)])
print("triangle fiber at l=1: g =",
      tuple(str(c.as_fraction()) for c in coords),
      " cases", "".join(cases))

# the regions themselves are first-order formulas with their own FD
print("\nregion formulas for the ray family:")
for case, rec in fn.stages[0]["regions"].items():
    print(f"  {case}: FD {rec['fd'].as_tuple()}")
print("choice function FD:", fn.fd.as_tuple())

# an algebraic landmark stays exact: fiber (sqrt(2), infinity)
alg = parse_formula("(x^2 - 2 > 0) and (x > 0)")
fn = choice(alg, 1, fiber_vars=["x"])
coords, cases = fn.evaluate([])
g = coords[0]
print("\nfiber (sqrt 2, inf): g = sqrt(2) + 1 ~", float(g))
gm1 = g - 1
print("check, exactly: (g - 1)^2 - 2 =",
      (gm1 * gm1 - 2).as_fraction())
