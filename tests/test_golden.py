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

Every Adam step gives the same bytes: the fused C step that runs wherever it
can be compiled, in its AVX2+FMA loop where the CPU has those instructions
and in its portable loop elsewhere, and the blocked numpy step that runs
where it cannot be compiled (`test_golden_digest_portable_adam` and
`test_golden_digest_numpy_adam` force the last two). Every accuracy count
is that of the float64 pass over each evaluation chunk, whether a row's
argmax was proven in float32 or in float64 or taken from that pass
(`test_golden_digest_float64_eval` takes every row from it).

The bytes depend on floating-point rounding, so they hold for one numpy /
BLAS build. OpenBLAS chooses its GEMM kernel by CPU when it loads
(`parallel.blas_kernel()`; OPENBLAS_CORETYPE forces one), and kernels block
and accumulate products in different orders. The metrics.csv and
summary.txt digests held under every kernel measured, so `GOLDEN` holds one
pair per case. The parameter digests differ between kernels, so `PARAMS`
holds one per case for each of `SkylakeX` (picked on CPUs with AVX-512),
`Haswell`, `Sandybridge` and `Katmai` (what OPENBLAS_CORETYPE=Prescott
runs). On a kernel with no pins the golden tests fail, naming the kernel
and the command that prints its digests.
`test_golden_digests_under_each_blas_kernel` runs this file as a script
under each of those kernels the CPU can run (forced by OPENBLAS_CORETYPE) and
compares what it prints with the pins. The bytes do not depend on thread
counts: colearn pins BLAS to one thread whatever OPENBLAS_NUM_THREADS says,
and the size of a run's agent pool or the number of Monte Carlo workers
changes no bits (`test_digest_independent_of_blas_env`,
`test_jobs_give_same_digests` and tests/test_parallel.py check this).

To pin, run this file as a script, with OPENBLAS_CORETYPE set to pin another
kernel than the CPU's own. It prints the BLAS kernel and thread count, the
agent-pool size and the Adam step it ran with, then per named case (all by
default) its metrics.csv and summary.txt digests, the `GOLDEN` entry, and its
parameter digest, the entry under that kernel in `PARAMS`:

    OPENBLAS_CORETYPE=<kernel> PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

from colearn import _kernels, harness, parallel
from colearn.config import GraphSpec, IdxSpec, override
from colearn.harness import emit_csv, format_summary, montecarlo

from conftest import FMNIST_NAMES, blob_config, synthetic_idx_dataset

ROOT = Path(__file__).resolve().parent.parent


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
    "FS": lambda _: _short("FS", max_iterations=150),
    "CL-er": lambda _: dataclasses.replace(
        _short("CL", seed=77), graph=GraphSpec(kind="erdos-renyi", p=0.4, period=7),
    ),
    "CL-idx": _idx_cl,
    "FS-idx": _idx_fs,
}

# sha256 of (metrics.csv, summary.txt), pinned at one BLAS thread: the same
# under every OpenBLAS kernel
GOLDEN = {
    "CL": ("521bac134237bafac0400e41e3ad9f316caf2d27ea57c0ae3526486bb7a7ae67",
           "210e00db06dbe33400cab6134bed94264394bc0752b4028c36ae52bbc79b477e"),
    "ST": ("a8aef152d05fcff7fe7eee0839d38270461ae8f874d305be083c2be38c783b17",
           "db64d3c839b38af309c7f24e469fd85811c4168bc2ee45b90e3e89128ded4874"),
    "FS": ("14aaa433d28afaddbb5a39e318a153164ebae318f6055433b84fb5da9677ac52",
           "02f4b33f1ae101e6e13cd5e094f819072dd5d4dcf87c66e3de9854b8ff4e3334"),
    "CL-er": ("9f38385d8b76fb278be32389c8481591b18d9c70effd086aefa773be4972e1e8",
              "c77c06b4f4b0441405aa02140575cd681f8d512ab096c9caffcd69e0c930029a"),
    "CL-idx": ("6b012831655268bd69ab6fac69b67f8ad72192e48c2952a5e1da86501261a1b7",
               "1fd4267e3696d4e64c61e33d94a9ae8dfcc0a0e081067c99349cbbf00b736f8a"),
    "FS-idx": ("c17db0ce20947a94e1c08b9eb936908734cc25d865e87e9009c413dc92cd2013",
               "7e95e13b6881fd7270e2e17eaf3dc166a1c319db650da8d0a2e92a9bfb1fc088"),
}

# sha256 of every agent"s final parameters, per OpenBLAS kernel
# (`parallel.blas_kernel()`); OPENBLAS_CORETYPE=Prescott runs `Katmai`
PARAMS = {
    "SkylakeX": {
        "CL": "3b76c03a373be5aff94ebd80a6050012aea139921840c41bc1d650749f8f8b88",
        "ST": "44967f1c0631575e5fdeb5e7d2d241a21c7bc08cc65b5741fcd3522da438a95a",
        "FS": "b329063189e15846a16baf06943303809003d864c4e375a2dacbf32d93d3c515",
        "CL-er": "77a957e8c4a692cdc49c1af1d3d6deea39c6bcf2289cb94509110f4780737c52",
        "CL-idx": "94ccdd227f1103db6cffe4f2b94736042a8a4871abdbc40e1b4a087b0c58460e",
        "FS-idx": "3a262dcd728db53b78788f431fe186157c5d0d36be106af4cc3e6d17ed9d79a5",
    },
    "Haswell": {
        "CL": "2eedb533221dee84f1102f2806af629ee3a19f57cb05de267f1aa79d1ea9ecb1",
        "ST": "331dc07664310b27a26146fd43cf72af19387a87497f3c056e62dd562d12b234",
        "FS": "1a80e0efc838e9db5820bc12f380a7febc2647d95d137647f2771a9684a10985",
        "CL-er": "eae10ac084055487d47b4699ed550115df7c470aa84d300eddb46b7c5beb2cef",
        "CL-idx": "185608c2709a847aac5269b39f82e6105d38c0bb6b7f525b44ab6e029a7dbb43",
        "FS-idx": "8464a687a7c1a6656b08a78f0bd03d7baa79b277886b85d76650b9453b1a8633",
    },
    "Sandybridge": {
        "CL": "d5927152eddf2807c3c65fcaaf18577c49eb4857658e795fc29f4d46e53c9485",
        "ST": "fd359d0dd8b8a4b6b8900bcf6e8f809314dedd8c1765e87084323181a15f287c",
        "FS": "d86ba768755d3c720ab49123fa7b97e1e78cb04b3676b10829a52864ba6f0eb4",
        "CL-er": "d949ed599f63901b72583a4627f17a6eb702ccb7b9335bf30f9297c6163d9fa9",
        "CL-idx": "89dcde70535330d7ae9ab7bb72b0ac2caae9e2d9c1b2228e7e78f1db9cd0e8c6",
        "FS-idx": "6ea0aa8747aab22657d1c55bb5b2fd443086988ec1787108bdd6da7f1df60abf",
    },
    "Katmai": {
        "CL": "f314598ae37b19801b60c2e868cddec1b8e24cbf3c9dd0b48803ae74cdab94bc",
        "ST": "9db3f45d724fd42b8ff5c821c82b4cb6e3f9e8db3003e7edf39b6cefeffbe964",
        "FS": "2bad9e8e3d28c17a3a6f24318ee06eac29524115bacfbc75351a92acf78c9580",
        "CL-er": "d0aa1bbcda1de5676b2b5ef1cd989e93ccc374cde4e58f6458e0bc77917d57d2",
        "CL-idx": "a39de754376f380035af45652e31e7b56eae7a0f36a7dd549b6a91269d1d0741",
        "FS-idx": "e8227ac6db762bd2dc00e83abaa0ab0150908a8518b2d93dbc638c5e195e0b17",
    },
}


def _digests(config, out_dir: Path, jobs: int = 1) -> tuple[str, str, str]:
    """The two files `colearn montecarlo --jobs N` writes, and the final
    parameters of every agent it trained, in run order, hashed."""
    run_mode, make_agents = harness.run_mode, harness._make_agents

    def run_capturing_params(*args):
        # runs in the worker under jobs > 1, which inherits this patch
        agents = []

        def capture(*args):
            made = make_agents(*args)
            agents.extend(made)
            return made

        harness._make_agents = capture
        try:
            output = run_mode(*args)
        finally:
            harness._make_agents = make_agents
        output.stats["final_params"] = b"".join(a.params.tobytes() for a in agents)
        return output

    harness.run_mode = run_capturing_params
    try:
        rows, outputs = montecarlo(config, jobs=jobs)
    finally:
        harness.run_mode = run_mode
    csv_path = out_dir / "metrics.csv"
    emit_csv([r for o in outputs for r in o.records], csv_path)
    summary = (format_summary(rows) + "\n").encode("utf-8")
    params = hashlib.sha256()
    for o in outputs:
        params.update(o.stats.pop("final_params"))
    return (
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        hashlib.sha256(summary).hexdigest(),
        params.hexdigest(),
    )


def _pinned(name: str) -> tuple[str, str, str]:
    """The case's metrics.csv, summary.txt and parameter digests for the
    OpenBLAS kernel this process runs; fails where that kernel has no pins."""
    kernel = parallel.blas_kernel()
    if kernel not in PARAMS:
        pytest.fail(f"no parameter pins for the OpenBLAS kernel {kernel}; print them with "
                    f"OPENBLAS_CORETYPE={kernel} PYTHONPATH=src python tests/test_golden.py")
    return (*GOLDEN[name], PARAMS[kernel][name])


def test_kernel_without_pins_fails_naming_it(monkeypatch):
    monkeypatch.setattr(parallel, "blas_kernel", lambda: "Zen")
    with pytest.raises(pytest.fail.Exception, match=r"OpenBLAS kernel Zen; .* "
                       r"OPENBLAS_CORETYPE=Zen PYTHONPATH=src python tests/test_golden.py"):
        _pinned("CL")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert _digests(CASES[name](tmp_path / "data"), tmp_path) == _pinned(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest_numpy_adam(name, tmp_path, numpy_adam):
    # the same pins where the C Adam step could not be built
    assert _digests(CASES[name](tmp_path / "data"), tmp_path) == _pinned(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest_portable_adam(name, tmp_path, portable_adam):
    # the same pins where the CPU lacks AVX2 or FMA
    assert _digests(CASES[name](tmp_path / "data"), tmp_path) == _pinned(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest_float64_eval(name, tmp_path, float64_eval):
    # the same pins with every evaluated row counted from the float64 pass
    # over its chunk, as no row is screened in float32
    assert _digests(CASES[name](tmp_path / "data"), tmp_path) == _pinned(name)


@pytest.mark.parametrize("case", ["CL-idx", "FS-idx"])
def test_digest_independent_of_blas_env(case, tmp_path):
    # colearn pins BLAS to one thread whatever the environment asks for: the
    # HL-shaped products of the IDX cases give other bits at 2 threads
    digests = {}
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = str(ROOT / "src")
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), case], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests[threads] = _parse_script_output(done.stdout)[case]
    assert digests == {"1": _pinned(case), "2": _pinned(case), None: _pinned(case)}


# OPENBLAS_CORETYPE values, each with the /proc/cpuinfo flags its kernel needs
FORCED_KERNELS = {
    "SkylakeX": ("avx512f",), "Haswell": ("avx2", "fma"), "Sandybridge": ("avx",), "Prescott": (),
}


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


@pytest.mark.parametrize("coretype", FORCED_KERNELS)
def test_golden_digests_under_each_blas_kernel(coretype, tmp_path):
    # every case in a process forced onto each kernel this CPU can run, whose
    # pins the in-process tests above never compare
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS's {coretype} kernel is x86-64 code")
    lacking = [flag for flag in FORCED_KERNELS[coretype] if flag not in _cpu_flags()]
    if lacking:
        pytest.skip(f"the CPU cannot run OpenBLAS's {coretype} kernel: no {', '.join(lacking)}")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(Path(__file__))], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    kernel = re.match(r"# BLAS kernel (\S+),", done.stdout).group(1)
    assert kernel in PARAMS, f"OPENBLAS_CORETYPE={coretype} runs {kernel}, which has no pins"
    assert _parse_script_output(done.stdout) == {
        name: (*GOLDEN[name], PARAMS[kernel][name]) for name in CASES}


def test_jobs_give_same_digests(tmp_path):
    # two runs, so that jobs=2 runs them in two worker processes
    config = override(_idx_cl(tmp_path / "data"), "montecarlo_runs", 2)
    assert _digests(config, tmp_path, jobs=1) == _digests(config, tmp_path, jobs=2)


def _parse_script_output(text: str) -> dict:
    return ast.literal_eval("{" + "".join(
        line for line in text.splitlines(keepends=True) if line.startswith("    ")) + "}")


def main(names) -> None:
    """Print the digests of the named cases (all by default), each as
    (metrics.csv, summary.txt, parameters), after the BLAS kernel and thread
    counts they ran with."""
    import tempfile

    print(f"# BLAS kernel {parallel.blas_kernel()}, threads {parallel.blas_threads()}, "
          f"agent pool up to {parallel.max_pool_size()} threads, "
          f"Adam step {_kernels.adam_kernel()}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CASES:
            # one directory per case, so that no case reads another's input files
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            print(f"    {name!r}: {_digests(CASES[name](out_dir / 'data'), out_dir)!r},")


if __name__ == "__main__":
    main(sys.argv[1:])
