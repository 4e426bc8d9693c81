"""Golden digests: four short blob runs and two short runs (CL and FS) on a
small IDX corpus must reproduce their metrics.csv, their summary.txt and their
agents' final parameters byte for byte.

The README promises that identical configs reproduce identical metrics.
These digests turn that promise into a check against fixed bytes, not only
run against run: a change that moves any number fails here. Metrics are
written at six decimals, so a rounding-level change to training can leave
both files as they were; the digest of every agent's final parameter bytes
catches it. A change that alters the numbers on purpose re-pins the digests
in the same commit and says why in CHANGES.md.

The bytes depend on floating-point rounding, so they hold for one numpy /
BLAS build on one CPU family. To re-pin, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from colearn import harness
from colearn.config import GraphSpec, IdxSpec, override
from colearn.harness import emit_csv, format_summary, montecarlo

from conftest import FMNIST_NAMES, blob_config, synthetic_idx_dataset


def _short(mode: str, **kw):
    return blob_config(
        mode=mode, n_per_class=200, self_train_epochs=40, score_refresh_period=20,
        review_period=40, metric_stride=25, **kw,
    )


def _idx_cl(data_dir: Path):
    """CL through load_idx: a 700-image 28x28 corpus, 52 collective rounds."""
    synthetic_idx_dataset(data_dir, m_train=700, m_test=200, seed=5)
    spec = IdxSpec(*(str(data_dir / name) for name in FMNIST_NAMES))
    config = blob_config(
        mode="CL", self_train_epochs=5, score_refresh_period=20, review_period=40,
        metric_stride=25, epochs_over_shared=1, architectures=("SHL", "HL1", "SHL"),
    )
    return dataclasses.replace(config, dataset=spec)


def _idx_fs(data_dir: Path):
    """FS through load_idx: two agents, 300 Adam updates each on the whole
    700-image corpus, so every minibatch is gathered from the loaded pixels."""
    synthetic_idx_dataset(data_dir, m_train=700, m_test=200, seed=6)
    spec = IdxSpec(*(str(data_dir / name) for name in FMNIST_NAMES))
    config = blob_config(
        mode="FS", metric_stride=100, max_iterations=300, architectures=("SHL", "HL1"),
    )
    return dataclasses.replace(config, dataset=spec)


# each case builds its config given a scratch directory for input files
CASES = {
    "CL": lambda _: _short("CL", runs=2),
    "ST": lambda _: _short("ST", runs=2),
    # FS also drives the SGD step, which no other end-to-end test pins
    "FS": lambda _: override(
        override(_short("FS", max_iterations=150), "training.update_rule", "sgd"),
        "training.alpha", 0.05,
    ),
    "CL-er": lambda _: dataclasses.replace(
        _short("CL", seed=77), graph=GraphSpec(kind="erdos-renyi", p=0.4, period=7),
    ),
    "CL-idx": _idx_cl,
    "FS-idx": _idx_fs,
}

# sha256 of (metrics.csv, summary.txt, final parameters), pinned on the numpy path
GOLDEN = {
    "CL": ("521bac134237bafac0400e41e3ad9f316caf2d27ea57c0ae3526486bb7a7ae67",
           "210e00db06dbe33400cab6134bed94264394bc0752b4028c36ae52bbc79b477e",
           "3b76c03a373be5aff94ebd80a6050012aea139921840c41bc1d650749f8f8b88"),
    "ST": ("a8aef152d05fcff7fe7eee0839d38270461ae8f874d305be083c2be38c783b17",
           "db64d3c839b38af309c7f24e469fd85811c4168bc2ee45b90e3e89128ded4874",
           "44967f1c0631575e5fdeb5e7d2d241a21c7bc08cc65b5741fcd3522da438a95a"),
    "FS": ("57074315705459e6374301001c56418ee5ba021c0d704523fe4e251c749ffde7",
           "92a5dbb3a62ccab556014dc0cb7338af55f819bcb6700bf92203982c1d540798",
           "6f66b74db1b0796ca1a5b3d090f651740347034fe5394e779eb830f2c411db17"),
    "CL-er": ("9f38385d8b76fb278be32389c8481591b18d9c70effd086aefa773be4972e1e8",
              "c77c06b4f4b0441405aa02140575cd681f8d512ab096c9caffcd69e0c930029a",
              "77a957e8c4a692cdc49c1af1d3d6deea39c6bcf2289cb94509110f4780737c52"),
    "CL-idx": ("6b012831655268bd69ab6fac69b67f8ad72192e48c2952a5e1da86501261a1b7",
               "1fd4267e3696d4e64c61e33d94a9ae8dfcc0a0e081067c99349cbbf00b736f8a",
               "9f0fc062f6b59e8512a67ae6bd42e4770692d85a9b1046fd355717c90a323ece"),
    "FS-idx": ("c17db0ce20947a94e1c08b9eb936908734cc25d865e87e9009c413dc92cd2013",
               "7e95e13b6881fd7270e2e17eaf3dc166a1c319db650da8d0a2e92a9bfb1fc088",
               "b96b2a25d8828918d225d12f57707ad690afcc44dde09b04d7d239513e00bc0b"),
}


def _digests(config, out_dir: Path) -> tuple[str, str, str]:
    """The two files `colearn montecarlo` writes, and the final parameters
    of every agent it trained, hashed."""
    agents = []
    make_agents = harness._make_agents

    def capture(*args):
        made = make_agents(*args)
        agents.extend(made)
        return made

    harness._make_agents = capture
    try:
        rows, outputs = montecarlo(config)
    finally:
        harness._make_agents = make_agents
    csv_path = out_dir / "metrics.csv"
    emit_csv([r for o in outputs for r in o.records], csv_path)
    summary = (format_summary(rows) + "\n").encode("utf-8")
    params = hashlib.sha256()
    for a in agents:
        params.update(a.learner.params.tobytes())
    return (
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        hashlib.sha256(summary).hexdigest(),
        params.hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert _digests(CASES[name](tmp_path / "data"), tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            # one directory per case, so that no case reads another's input files
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            print(f"    {name!r}: {_digests(CASES[name](out_dir / 'data'), out_dir)!r},")
