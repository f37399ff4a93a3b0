import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resfluor.config import RunConfig
from resfluor.model import build_model
from resfluor.trajectories import CHANNELS, SIDE, Batch

SQ2 = 2.0 ** -0.5


@pytest.fixture(scope="session")
def sym_model():
    """The symmetric driven configuration used throughout."""
    return build_model(SQ2, SQ2, 1.0)


@pytest.fixture(scope="session")
def undriven_model():
    return build_model(SQ2, SQ2, 0.0)


# At this drive the no-side-count generator of the symmetric atom is
# defective (an exceptional point), so Z_x has no eigenbasis
Z_STAR = 0.21731460011728337


@pytest.fixture(scope="session")
def exceptional_model():
    return build_model(SQ2, SQ2, Z_STAR)


def random_model(rng, z_scale=1.2):
    a = rng.uniform(0.05, 0.95)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    z = z_scale * (rng.uniform(0.2, 1.0)) * phases[2]
    return build_model(np.sqrt(a) * phases[0], np.sqrt(1 - a) * phases[1], z)


def click_table(clicks) -> Batch:
    """A side-click table of per-trajectory click times, each sorted, as the reader gives."""
    lengths = [len(c) for c in clicks]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    time = np.concatenate([np.zeros(0), *clicks])
    side = np.full(len(time), CHANNELS.tolist().index(SIDE), np.int8)
    return Batch(len(lengths), owner, time, side)


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """Run the CLI cross-check battery once per session: its exit code and report's bytes."""
    from resfluor.cli import run

    out = tmp_path_factory.mktemp("verify")
    cfgp = out / "config.json"
    cfgp.write_text(RunConfig().to_json())
    code = run(["verify", "--config", str(cfgp), "--out", str(out)])
    return code, (out / "verify_report.json").read_bytes()


@pytest.fixture(scope="session")
def verify_outcome(verify_run):
    """The session's battery run, its report parsed."""
    code, raw = verify_run
    return code, json.loads(raw)
