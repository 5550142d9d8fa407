"""Past validation, evaluation runs on floats and gives the same bits.

Vectors built with the trusted constructor, as SampleBlock.pair and the
extremal descent build them, must give the same GapReport as vectors
validated afresh, and the pair norms must equal those of the vector
operations (p_norm of combine).  The public sum_abs_powers and p_norm
must equal their float helpers, and the re-paired sums those of the
re-paired sequences.
"""

from hypothesis import given, settings, strategies as st

from clarkson.catalog import (
    DEFAULT_POLICY,
    REGISTRY,
    Constraint,
    GapReport,
    InequalityId,
    _repaired_sums,
    evaluate,
    report,
)
from clarkson.core import (
    NonnegVector,
    RealVector,
    Weights,
    _p_norm,
    _sum_abs_powers,
    combine,
    p_norm,
    sum_abs_powers,
)

PAIR_NORM_IDS = [id for id in REGISTRY
                 if id not in (InequalityId.COR_16, InequalityId.SUMPOW_212,
                               InequalityId.REARR_GAIN_217)]

magnitudes = st.floats(min_value=0.0, max_value=1e3)
masses = st.floats(min_value=0.5, max_value=2.0)


@st.composite
def cases(draw):
    """(id, x, y, w, p, q): a valid pair for one registry entry, as float lists."""
    id = draw(st.sampled_from(sorted(REGISTRY, key=lambda i: i.value)))
    entry = REGISTRY[id]
    n = 1 if id is InequalityId.COR_16 else draw(st.integers(1, 10))
    x = draw(st.lists(magnitudes, min_size=n, max_size=n))
    y = draw(st.lists(magnitudes, min_size=n, max_size=n))
    if entry.constraint is Constraint.SIGNED:
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2 * n, max_size=2 * n))
        x = [s * a for s, a in zip(signs, x)]
        y = [s * b for s, b in zip(signs[n:], y)]
    elif entry.constraint is Constraint.DOMINATED_PAIR:
        x, y = [max(a, b) for a, b in zip(x, y)], [min(a, b) for a, b in zip(x, y)]
    w = draw(st.none() | st.lists(masses, min_size=n, max_size=n)) if entry.weighted else None
    if entry.constraint is Constraint.SIGNED:
        p, q = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0])), None
    elif id is InequalityId.SUMPOW_212:
        p = q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    elif id is InequalityId.COR_16:
        p = q = draw(st.sampled_from([2.0, 3.0, 4.5]))
    else:
        p = draw(st.sampled_from([2.0, 2.5, 3.0, 4.0]))
        q = p + draw(st.sampled_from([0.0, 0.7, 1.0, 2.0]))
    return id, x, y, w, p, q


def bits(rep: GapReport) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in rep.__dict__.values())


def vectors(id, x, y, w, trusted):
    vec = RealVector if REGISTRY[id].constraint is Constraint.SIGNED else NonnegVector
    if trusted:
        weights = None if w is None else Weights._trusted(tuple(w))
        return vec._trusted(tuple(x)), vec._trusted(tuple(y)), weights
    return vec(x), vec(y), None if w is None else Weights(w)


@given(cases())
@settings(max_examples=400)
def test_trusted_vectors_give_the_same_report(case):
    id, x, y, w, p, q = case
    xv, yv, wv = vectors(id, x, y, w, False)
    xt, yt, wt = vectors(id, x, y, w, True)
    assert bits(evaluate(id, xt, yt, p, q, wt)) == bits(evaluate(id, xv, yv, p, q, wv))


@given(cases().filter(lambda case: case[0] in PAIR_NORM_IDS))
@settings(max_examples=200)
def test_pair_norms_equal_the_vector_operations(case):
    id, x, y, w, p, q = case
    xv, yv, wv = vectors(id, x, y, w, False)
    entry = REGISTRY[id]
    norms = [p_norm(v, p, wv) for v in
             (xv, yv, combine(xv, yv, "plus"), combine(xv, yv, "minus"))]
    ps, qs = entry.exponents(p, q)
    want = report(id, ps, qs, *entry.sides(*norms, ps, qs), DEFAULT_POLICY)
    assert bits(evaluate(id, xv, yv, p, q, wv)) == bits(want)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12),
       st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0]), st.booleans(), st.data())
def test_public_norms_equal_the_float_helpers(entries, p, weighted, data):
    m = (data.draw(st.lists(masses, min_size=len(entries), max_size=len(entries)))
         if weighted else None)
    w = None if m is None else Weights(m)
    v = RealVector(entries)
    assert sum_abs_powers(v, p, w).hex() == _sum_abs_powers(tuple(entries), p, m).hex()
    assert p_norm(v, p, w).hex() == _p_norm(tuple(entries), p, m).hex()


@given(st.lists(st.tuples(magnitudes, magnitudes) | magnitudes.map(lambda a: (a, a)),
                min_size=1, max_size=12),
       st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 1.5]))
def test_repaired_sums_equal_the_sums_of_the_repaired_sequences(pairs, k):
    # The reference re-pairs the entries (ties unswapped) and sums each side.
    x, y = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    u, v = zip(*[(a, b) if a >= b else (b, a) for a, b in pairs])
    want = tuple(_sum_abs_powers(side, k).hex() for side in (x, y, u, v))
    got = _repaired_sums(x, y, k, 0.5)
    assert tuple(t.hex() for t in got[:4]) == want and got[4] == 0.5
