"""One sha256 over a seeded corpus of exact-layer results.

The corpus covers both existence phrasings, `pair_condition`, both
predictions, `shift_algebra_check`, `wf_pullback` and `linear_image` on
`suites._random_pair` draws (half-integer generators, theta over
`suites._THETA_FAMILY` and 0), and `rref`, `extreme_rays` and
`nonneg_solve` on `suites._random_rational_matrix` draws.  Every exact
value is hashed as a reduced "p/q" string, so the pin covers values and
not their Python types: a change of representation keeps it, a changed
verdict, witness, generator or selector moves it.
"""

import hashlib
import json
import random
from fractions import Fraction

from twistlab.calculus import (
    existence_condition,
    existence_condition_theta_inv,
    pair_condition,
    predicted_product_wf,
    predicted_star_wf,
    shift_algebra_check,
    wf_pullback,
)
from twistlab.cones import linear_image, set_to_obj
from twistlab.rational import extreme_rays, integer_form, nonneg_solve, rref
from twistlab.suites import _THETA_FAMILY, _j_theta, _random_pair, _random_rational_matrix, _zero_theta

PAIRS = 64
MATRICES = 200
PIN = "be03a9e6de4ae23e06e380956f92fce8f5402d383befc327b7cdf8d777d675d8"


def _canon(x):
    """x with every exact number as its reduced "p/q" string."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    return [_canon(v) for v in x]


def _rational(rng, rows, cols):
    """A rows x cols matrix of integers and halves in [-2, 2]."""
    return tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(cols))
                 for _ in range(rows))


def _pair_records(rng):
    thetas = (*_THETA_FAMILY, _zero_theta(2))
    for i in range(PAIRS):
        theta = thetas[i % len(thetas)]
        u, v = _random_pair(rng, theta)
        rec = {"i": i}
        res = existence_condition(u, v, theta)
        rec["existence"] = [res.holds, res.witness]
        if any(any(row) for row in theta):
            res = existence_condition_theta_inv(u, v, theta)
            rec["existence_theta_inv"] = [res.holds, res.witness]
        res = pair_condition(u)
        rec["pair_condition"] = [res.holds, res.witness]
        rec["predicted_product"] = set_to_obj(predicted_product_wf(u, v, theta))
        rec["predicted_star"] = set_to_obj(predicted_star_wf(u, v, theta))
        rep = shift_algebra_check(u, v, _j_theta(4, theta[0][1]))
        rec["shift_algebra"] = [rep.passed] + [[c.name, c.passed, c.exact, c.witness]
                                               for c in rep.conditions]
        amap = _rational(rng, 2, rng.randint(1, 2))
        res = wf_pullback(u, amap)
        rec["pullback"] = [res.defined, set_to_obj(res.wavefront), res.undefined_witness]
        rec["linear_image"] = set_to_obj(linear_image(v, _rational(rng, rng.randint(1, 4), 4)))
        yield rec


def _matrix_records(rng):
    for i in range(MATRICES):
        m, k = rng.randint(1, 4), rng.randint(1, 7)
        a = _random_rational_matrix(rng, m, k)
        ai, _ = integer_form(a)
        red, d, pivots = rref(ai)
        gens = tuple(zip(*a))
        yield {"i": i, "rref": [[[Fraction(x, d) for x in row] for row in red], pivots],
               "extreme_rays": extreme_rays(ai, k), "nonneg_solve": nonneg_solve(gens[:-1], gens[-1])}


def corpus_digest() -> str:
    h = hashlib.sha256()
    for rec in (*_pair_records(random.Random(27)), *_matrix_records(random.Random(28))):
        h.update(json.dumps(_canon(rec), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_exact_corpus_pinned():
    assert corpus_digest() == PIN


if __name__ == "__main__":
    print(corpus_digest())
