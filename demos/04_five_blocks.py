"""Split a compatible pair into its five invariant blocks.

Any absolutely compatible pair decomposes the space into five mutually
orthogonal pieces: where a is the identity, where b is, where a
vanishes, where b vanishes, and a strict remainder on which both act
with spectrum inside (0,1).  We build such a pair as a direct sum,
scramble it, and recover the pieces.
"""

import numpy as np

from abscompat import (
    dagger,
    five_block_decompose,
    haar_unitary,
    hermitize,
    is_abs_compatible,
    random_abscompat_pair,
)


def main():
    sa, sb = random_abscompat_pair(4, seed=21)
    a = np.zeros((8, 8), dtype=complex)
    b = np.zeros_like(a)
    a[:4, :4], b[:4, :4] = sa, sb
    a[4, 4], b[4, 4] = 1.0, 0.35   # a acts as the unit here
    a[5, 5], b[5, 5] = 0.6, 1.0    # b acts as the unit here
    a[6, 6], b[6, 6] = 0.0, 0.8    # a vanishes here
    a[7, 7], b[7, 7] = 0.45, 0.0   # b vanishes here

    u = haar_unitary(8, seed=22)
    a = hermitize(u @ a @ dagger(u))
    b = hermitize(u @ b @ dagger(u))
    print("pair compatible:", bool(is_abs_compatible(a, b)))

    fb = five_block_decompose(a, b)
    print("block ranks:", fb.ranks())

    for name in ("unit_a", "unit_b", "null_a", "null_b"):
        # + 0.0 prints a rounded -0.0 as 0.0
        print("restriction of a to %-6s:" % name, np.round(np.diag(fb.blocks_a[name]).real, 6) + 0.0)
        print("restriction of b to %-6s:" % name, np.round(np.diag(fb.blocks_b[name]).real, 6) + 0.0)

    sa_rec = fb.blocks_a["strict"]
    sb_rec = fb.blocks_b["strict"]
    print("strict block spectra of a:", np.round(np.linalg.eigvalsh(sa_rec), 6))
    print("strict block spectra of b:", np.round(np.linalg.eigvalsh(sb_rec), 6))
    print("strict block compatible:", bool(is_abs_compatible(sa_rec, sb_rec)))


if __name__ == "__main__":
    main()
