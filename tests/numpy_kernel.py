"""Reference linearized-kernel dimension for the tests.

This is the construction gapn.linearized_kernel_dim replaced: column t
of L(x) = sum_s a_s * x**(p**s) is built term by term as
a_s * (x**t)**(p**s), each product and power read from the field's log
and antilog tables, and the columns are summed digit by digit.  It shares
no arithmetic with the polynomial path, and its rank is numpy_rank's.
"""

from gapnkit.monomial import digits_of

import numpy_rank


def linearized_kernel_dim(ctx, d: int) -> int:
    """n minus the rank of L's matrix, for a normalized weight-p d."""
    p, n, group = ctx.p, ctx.n, ctx.order - 1
    log, antilog = ctx.log_table, ctx.antilog_table
    images = []
    for t in range(n):
        column = [0] * n
        for s, a_s in enumerate(digits_of(d, p)):
            if a_s:
                frob = int(log[p**t]) * p ** (s % n)  # log of (x**t)**(p**s)
                term = int(antilog[(int(log[a_s]) + frob) % group])
                column = [(u + v) % p for u, v in zip(column, digits_of(term, p, n))]
        images.append(column)
    return n - numpy_rank.rank_mod_p(images, p)
