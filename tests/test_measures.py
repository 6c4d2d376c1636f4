"""The factored grid evaluator is a fast path of the term lists: on the
same channels it must agree with the batched joint-tensor evaluator and,
reading the same side pmfs, with the single-channel evaluator."""

import numpy as np
import pytest

import crrd
from crrd.measures import HB_CR_TERMS, POINT_TERMS, GridTerms, MITerm, batch_joint, \
    batch_terms, entropy_rows, side_pmfs, term_value_grad
from conftest import ALL_TERMS, random_source

TERM_LISTS = tuple((t,) for t in ALL_TERMS) + (
    HB_CR_TERMS,
    POINT_TERMS,
    # H(Xh1|Y2) cancels between the two terms
    (MITerm((1,), 2), MITerm((2,), 2, (1,))),
    # repeated entries add up
    (MITerm((1,), 1), MITerm((1,), 1), MITerm((1, 2), None)),
)

#: (|X|, |Y1|, |Y2|, m1, m2)
SHAPES = ((2, 2, 2, 2, 2), (3, 2, 3, 2, 3), (2, 3, 1, 3, 1), (1, 2, 2, 2, 2))


def _sparse_source(rng, nx, ny1, ny2):
    """Random source with zero-mass cells, so some side symbols are seen
    from one source symbol only."""
    mass = rng.dirichlet(np.ones(nx * ny1 * ny2)).reshape(nx, ny1, ny2)
    mass *= rng.random(mass.shape) > 0.4
    mass[:, 0, 0] += 0.05   # every x keeps some mass
    return crrd.JointSource(mass)


def _grid_rows(rng, n_rows, cells, units=4):
    """Grid pmfs (multiples of 1/units), many with zero-mass cells."""
    counts = rng.multinomial(units, np.full(cells, 1.0 / cells), size=n_rows)
    counts[: cells] = units * np.eye(cells, dtype=int)   # pure rows
    return counts / units


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("terms", TERM_LISTS, ids=str)
def test_grid_terms_match_batched_joint(terms, shape):
    nx, ny1, ny2, m1, m2 = shape
    for seed in range(3):
        rng = np.random.default_rng(seed)
        src = _sparse_source(rng, nx, ny1, ny2)
        rows = [_grid_rows(rng, 12, m1 * m2) for _ in range(src.nx)]
        idx = tuple(rng.integers(0, 12, size=40) for _ in range(src.nx))
        grid = GridTerms(terms, side_pmfs(src), rows, [entropy_rows(r) for r in rows],
                         (m1, m2))
        batch = np.stack([r[i] for r, i in zip(rows, idx)], axis=1)
        want = batch_terms(batch_joint(src, batch.reshape(-1, src.nx, m1, m2)), terms)
        np.testing.assert_allclose(grid.eval(idx), want, rtol=0, atol=1e-12)


def _point_source(rng, nx, ny):
    """side_pmfs input of the point layout: a 2-axis p(x, y)."""
    return rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)


#: (layout, source builder, (m1, m2)); the point layout has no Y2
LAYOUTS = (
    ("broadcast", lambda rng: random_source(rng, 2, 3, 2), (2, 2)),
    ("broadcast-3", lambda rng: random_source(rng, 3, 2, 2), (3, 2)),
    ("point", lambda rng: _point_source(rng, 2, 3), (3, 1)),
    ("point-3", lambda rng: _point_source(rng, 3, 2), (2, 1)),
)


@pytest.mark.parametrize("term, layout", [
    pytest.param(t, layout, id=f"{layout[0]}-{t}") for layout in LAYOUTS for t in ALL_TERMS
    if layout[0].startswith("broadcast") or t.y_axis != 2])
def test_single_channel_and_grid_evaluators_agree(term, layout):
    _, build, (m1, m2) = layout
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sides = side_pmfs(build(rng))
        nx = sides[None].shape[0]
        q = np.stack([rng.dirichlet(np.ones(m1 * m2)) for _ in range(nx)])
        q[0, 0] = 0.0   # one zero-mass cell
        q[0] /= q[0].sum()
        rows = [q[x][None] for x in range(nx)]
        grid = GridTerms((term,), sides, rows, [entropy_rows(r) for r in rows], (m1, m2))
        want = term_value_grad(sides, q.reshape(nx, m1, m2), term)[0]
        got = grid.eval(tuple(np.zeros(1, dtype=int) for _ in range(nx)))
        assert abs(got[0] - want) < 1e-12, (seed, got[0], want)
