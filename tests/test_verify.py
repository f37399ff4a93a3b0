import pytest

import resfluor.verify
from resfluor.config import RunConfig
from resfluor.davies import davies_map
from resfluor.events import Event, exact_count, free_channel
from resfluor.guichardet import oracle_davies_map
from resfluor.linalg import frobenius_dist

# configs on which the battery's one-side-photon row failed while the
# oracle was capped at four photons (1.03e-7 and 9.7e-7 against 1e-7)
_CONFIGS = {
    "complex": RunConfig(
        kappa_f=0.3 + 0.5j, kappa_s=-0.4 + 1j * 2.0 ** -0.5, z=0.6 - 0.9j, initial_state="mixed"
    ),
    "z=1.5": RunConfig(z=1.5),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_one_side_photon_cross_passes_at_the_config_cap(name):
    # the battery's one-side-photon-cross row, with the oracle at cfg.n_max
    cfg = _CONFIGS[name]
    m, t = cfg.model(), 0.075
    ev = Event(forward=free_channel(), side=exact_count(0.0, t, 1), horizon=t)
    ora = oracle_davies_map(m, ev, n_max=cfg.n_max, quad_order=cfg.quad_order)
    dav = davies_map(m, ev, n_max=cfg.n_max)
    assert cfg.n_max == 6
    assert frobenius_dist(dav.matrix, ora.matrix) <= 1e-7


def test_battery_gives_the_oracle_the_config_cap(monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def spy(model, event, n_max, quad_order):
        seen.append(n_max)
        raise Stop

    monkeypatch.setattr(resfluor.verify, "oracle_davies_map", spy)
    with pytest.raises(Stop):
        resfluor.verify.run_battery(RunConfig(n_max=7))
    assert seen == [7]
