"""Identity -> named wrong input it must reject, at its default n and seeds 0-2.

Each registry entry names an identity, a sampler in :mod:`skellam_lab.gmsp`
and a wrapper that hands that sampler a wrong process.  Each mutant is fixed
before it is measured: a wrong input is never dropped for being hard to
reject.
"""

import pytest

from skellam_lab import gmsp
from skellam_lab.identities import run_identity


def _peraxis_jump1_rate_x104(real):
    def sample(spec, t, n_draws, seed):
        jumps = dict(spec.jumps)
        jumps[1] = jumps[1] * 1.04
        return real(gmsp.JumpSpec(jumps), t, n_draws, seed)
    return sample


def _equalrate_jump1_rate_x103(real):
    def sample(jump_rates, m, t, n_draws, seed):
        return real({**jump_rates, 1: jump_rates[1] * 1.03}, m, t, n_draws, seed)
    return sample


# identity -> (sampler it draws, mutant wrapping that sampler)
MUTANTS = {
    "compound-peraxis": ("gmsp_compound_peraxis_sample", _peraxis_jump1_rate_x104),
    "compound-equalrate": ("gmsp_compound_equalrate_sample", _equalrate_jump1_rate_x103),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_identity_rejects_its_mutant(monkeypatch, name, seed):
    assert run_identity(name, seed=seed).verdict
    sampler, mutant = MUTANTS[name]
    monkeypatch.setattr(gmsp, sampler, mutant(getattr(gmsp, sampler)))
    assert not run_identity(name, seed=seed).verdict
