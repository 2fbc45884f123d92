"""Frozen reference values shared across the test suite.

Each constant is pinned by at least two independent routes inside the suite
(closed form vs extraction algorithm, exact vs floating linear algebra), so a
regression in any single route trips a comparison here.
"""

from fractions import Fraction as F

# First 36 non-zero Verblunsky parameters of the Riesz measure (the dense
# variant's full parameter sequence), in order.
NONZERO_PARAMS_36 = [
    F(1, 2), F(-1, 3), F(5, 8), F(-1, 13),
    F(1, 14), F(-1, 15), F(-1, 4), F(-1, 9),
    F(1, 10), F(-1, 11), F(21, 32), F(-1, 53),
    F(1, 54), F(-1, 55), F(-3, 52), F(-1, 49),
    F(1, 50), F(-1, 51), F(5, 56), F(-1, 61),
    F(1, 62), F(-1, 63), F(-1, 20), F(-1, 57),
    F(1, 58), F(-1, 59), F(-11, 48), F(-1, 37),
    F(1, 38), F(-1, 39), F(-1, 12), F(-1, 33),
    F(1, 34), F(-1, 35), F(1, 8), F(-1, 45),
]

# Sparse-variant parameters: three zeros, then each value above, repeating.
INTERLEAVED_FIRST_8 = [F(0), F(0), F(0), F(1, 2), F(0), F(0), F(0), F(-1, 3)]

# Anchor integers A_1..A_17.
BACKBONE_17 = [
    13, 53, 61, 37, 45, 213, 221, 197, 205, 245, 253, 229, 237, 149, 157, 133, 141,
]

# Non-zero Taylor coefficients of the Caratheodory function F through z^64.
CARATHEODORY_F = {
    0: F(1), 4: F(1), 12: F(1, 2), 16: F(1), 20: F(1, 2),
    44: F(1, 4), 48: F(1, 2), 52: F(1, 4), 60: F(1, 2), 64: F(1),
}

# Non-zero Taylor coefficients of the Schur function f through z^31.
SCHUR_F = {
    3: F(1, 2), 7: F(-1, 4), 11: F(3, 8), 15: F(3, 16),
    19: F(-1, 32), 23: F(-5, 64), 27: F(-17, 128), 31: F(-29, 256),
}

# Progression tallies at n = 40: members of progression j in [1, 40] for
# j = 0..6, zero after.
COUNTS_AT_40 = [20, 10, 5, 2, 2, 0, 1]
