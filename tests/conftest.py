"""Fixtures shared by the test modules: empty qk caches and the mutations
the negative controls inject.

Each verification report must be shown to FAIL on a wrong input.  The
mutations are applied here, from outside the library, so that the library
carries no option that only tests set:

- drop_vanishing(*steps) suppresses the vanishing rule on those flag steps,
  which on step 2 deletes the q_2 corrections of the Whitney relations;
- skip_surgery makes the degree-lowering factor surgery of
  verify_flag_reduction return z_d untouched;
- drop_unit omits the 1/(1 - q_1) factor from the critical-locus image of
  eXbar1_{n-2} in coulomb_equivalence.
"""

import contextlib
import functools

import pytest

from qkflag import presentation, qk
from qkflag.weyl import z_d


def _swap_qk_caches(mp):
    # every cached function defined in qk gets an empty twin, which mp throws
    # away again when it is undone
    for name, fn in list(vars(qk).items()):
        if hasattr(fn, "cache_clear") and fn.__module__ == qk.__name__:
            mp.setattr(qk, name, functools.lru_cache(maxsize=None)(fn.__wrapped__))


@pytest.fixture
def fresh_qk_caches(monkeypatch):
    """Empty qk caches for this test, so that a patched helper is really read
    and nothing it shaped outlives the test."""
    _swap_qk_caches(monkeypatch)


@pytest.fixture
def drop_vanishing():
    """A context manager that drops the vanishing rule on the given steps.

    Solved columns are cached by (space, j, bound, w), with nothing that
    tells the mutated rule from the proven one, so the mutation runs on empty
    qk caches and leaves the proven entries as they were."""
    real = qk._vanishes

    @contextlib.contextmanager
    def dropping(*steps):
        with pytest.MonkeyPatch.context() as mp:
            _swap_qk_caches(mp)
            mp.setattr(qk, "_vanishes", lambda d, j: j not in steps and real(d, j))
            yield

    return dropping


@pytest.fixture
def skip_surgery(monkeypatch):
    """The factor surgery lowers no degree: it returns z_d itself."""
    def skipped(space, d, i):
        return z_d(space, d)

    monkeypatch.setattr(qk, "z_d_replace_factor", skipped)
    return skipped


@pytest.fixture
def drop_unit(monkeypatch):
    """The image of eXbar1_{n-2} loses its 1/(1 - q_1): it becomes eY1_{n-2}.
    Only the critical-locus images change; every other use of the unit
    division, the Whitney ideal among them, stays as it is."""
    real = presentation._critical_images

    def undivided(space):
        images = real(space)
        top = space.n - 2
        images[f"eXbar1_{top}"] = presentation.pres_var(space, f"eY1_{top}")
        return images

    monkeypatch.setattr(presentation, "_critical_images", undivided)
