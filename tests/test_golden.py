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
can be compiled, and the blocked numpy step that runs where it cannot be
(`test_golden_digest_numpy_adam` forces it). Every accuracy count
is that of a float64 pass over the row alone, whether a row's argmax was
proven in float32 or in float64 or taken from that row pass
(`test_golden_digest_float64_eval` takes every row from it).

The bytes depend on floating-point rounding, so they hold for one numpy /
BLAS build. OpenBLAS chooses its GEMM kernel by CPU when it loads
(`parallel.blas_kernel()`; OPENBLAS_CORETYPE forces one), and kernels block
and accumulate products in different orders. Nothing else in colearn's
arithmetic depends on the CPU: its `exp` is built from correctly rounded
operations, so numpy's choice of SIMD loops moves no bit. The metrics.csv
and summary.txt digests held under every kernel measured, so `GOLDEN` holds
one pair per case. The parameter digests differ between kernels, so
`PARAMS` holds one per case for each of `SkylakeX` (picked on CPUs with
AVX-512), `Haswell`, `Sandybridge` and `Katmai` (what
OPENBLAS_CORETYPE=Prescott runs). On a kernel with no pins the golden tests
fail, naming it and the command that prints the digests.
`test_golden_digests_under_each_blas_kernel` runs this file as a script
under each of those kernels the CPU can run (forced by OPENBLAS_CORETYPE),
and once on the CPU's own kernel with numpy's AVX-512, AVX2 and FMA loops
turned off, and compares what it prints with the pins. The bytes do not
depend on thread counts: colearn pins BLAS to one thread whatever
OPENBLAS_NUM_THREADS says, and the size of a run's agent pool or the number
of Monte Carlo workers changes no bits (`test_digest_independent_of_blas_env`,
`test_jobs_give_same_digests` and tests/test_parallel.py check this).

To pin, run this file as a script, with OPENBLAS_CORETYPE set to pin another
kernel than the CPU's own. It prints the BLAS kernel, the thread count, the
agent-pool size and the Adam step it ran with, then per named case (all by
default) its metrics.csv and summary.txt digests, the `GOLDEN` entry, and
its parameter digest, the entry under that kernel in `PARAMS`:

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
from colearn.harness import montecarlo, write_results

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

# sha256 of every agent's final parameters, per OpenBLAS kernel
# (`parallel.blas_kernel()`; OPENBLAS_CORETYPE=Prescott runs `Katmai`)
PARAMS = {
    "SkylakeX": {
        "CL": "a4399f94389bbc09da2d71d9ffa1b3232a037a1fddcf7d993072519313e67ada",
        "ST": "c3b00a83eb745deba73fdd4c0b7e7dad7270b831a5f8625806bb05df32061ea8",
        "FS": "754db75fbbb28d693834161d064fd1da64ef56a1418c257d7819f43e045c2969",
        "CL-er": "76b3a685525d80c5ab42911bdbf811126d2482ef5219b98304d017dee1a1895c",
        "CL-idx": "a48e034528ea432ca4592f86be15ac31434d3564627dc4d121f3fb13a16e8729",
        "FS-idx": "1695760bb4da350ceaa37fbaafceb8fe1dd8d29a768efe5d700b4498b295869d",
    },
    "Haswell": {
        "CL": "11ffc8427ed35f4b27360e43cd83fd8c5acef44c46f8f96299342655c303f617",
        "ST": "02f06f5cd21321f6a0919bdcfca25b950dae63c2fde5d052858b007d13b5f000",
        "FS": "bb7ac271ccec299209b7722403cebdeceeaa88eb3de34652aca8fdd342566661",
        "CL-er": "02ab259bbf150bd0b110fb354f273b0a4cd415f5aba38892ec27650b7420e342",
        "CL-idx": "111940c85f426a4eab0cabb2befc9de9a611712325664be2dc8567351261d44b",
        "FS-idx": "58c4f1250369471398441abcaf579df82b6e9dcb350666e72970ec61739186a2",
    },
    "Sandybridge": {
        "CL": "117574e40029b8de1d607252a35e5b8b8bc839222c443ef1b91a4e10e95e1974",
        "ST": "b22f769705f55fd64ef851937c7e84b1e1f4be0f1a27beb639c407a365092467",
        "FS": "dfb78819ab259d95a302a0528b05c3276fd0e997d5d61dfc4e1e9e83161f9a55",
        "CL-er": "fe23744bf03820b3921cff1ac8d932d72ae7a45da6c277ae5548d9eaff934599",
        "CL-idx": "194043a2856e89b92123e0d66e97be772c4c4db0636b4c5aeef660ceb19a431f",
        "FS-idx": "d734579e43e045abe371d3b9da029dd8c754f1cf34b1e9b096cdfb0abd2e6bc0",
    },
    "Katmai": {
        "CL": "2ccc464e10134ccc8f3a9dbc448e5d2133ba807dcb6f91232f4938f5636fb79f",
        "ST": "36030fb8b6a47241747f920a929298ef906415e0ec9b5c845faad0f00bf181a8",
        "FS": "dc737cb5971afd5d1d4dc1c4250aedbeccd8ed2a1f0c8e31a19ffad77ffd42b6",
        "CL-er": "ae28f4d3948d8b1c855a610118269fcdd0507c1b92160118932fa269558f5454",
        "CL-idx": "994bb90c1be38f220f45a672102587aa07d079ffc07cd96009282e59c945c540",
        "FS-idx": "75d3d83a79311eb18f7597679977af02e5111691e45c5eeae1f277b8ca2bc92a",
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
        _, outputs = montecarlo(config, jobs=jobs)
    finally:
        harness.run_mode = run_mode
    write_results(out_dir, config.mode, outputs)
    params = hashlib.sha256()
    for o in outputs:
        params.update(o.stats.pop("final_params"))
    return (
        hashlib.sha256((out_dir / "metrics.csv").read_bytes()).hexdigest(),
        hashlib.sha256((out_dir / "summary.txt").read_bytes()).hexdigest(),
        params.hexdigest(),
    )


def _pinned(name: str) -> tuple[str, str, str]:
    """The case's metrics.csv, summary.txt and parameter digests for the
    OpenBLAS kernel this process runs; fails where it has no pins."""
    kernel = parallel.blas_kernel()
    if kernel not in PARAMS:
        pytest.fail(f"no parameter pins for the OpenBLAS kernel {kernel}; print them with "
                    f"OPENBLAS_CORETYPE={kernel} PYTHONPATH=src python tests/test_golden.py")
    return (*GOLDEN[name], PARAMS[kernel][name])


def test_kernel_without_pins_fails_naming_it(monkeypatch):
    monkeypatch.setattr(parallel, "blas_kernel", lambda: "Zen")
    with pytest.raises(pytest.fail.Exception, match=r"OpenBLAS kernel Zen; print them with "
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
def test_golden_digest_float64_eval(name, tmp_path, float64_eval):
    # the same pins with every evaluated row counted from a float64 pass
    # over the row alone, as no bound proves any row's argmax
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


# numpy's CPU features that turn off its AVX-512, AVX2 and FMA loops: what
# numpy runs on a CPU without them
NO_SIMD = "X86_V4 AVX512_ICL AVX512_SPR X86_V3 AVX2 FMA3"


@pytest.mark.parametrize("coretype", [*FORCED_KERNELS, None],
                         ids=[*FORCED_KERNELS, "own-kernel-no-simd"])
def test_golden_digests_under_each_blas_kernel(coretype, tmp_path):
    # every case in a process forced onto each kernel this CPU can run, and
    # on the CPU's own kernel with numpy's wider SIMD loops turned off, which
    # must move no bit: pins the in-process tests above never compare
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS's forced kernels and numpy's features named here are x86-64's")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if coretype is None:
        env["NPY_DISABLE_CPU_FEATURES"] = NO_SIMD
    else:
        lacking = [flag for flag in FORCED_KERNELS[coretype] if flag not in _cpu_flags()]
        if lacking:
            pytest.skip(f"the CPU cannot run OpenBLAS's {coretype} kernel: "
                        f"no {', '.join(lacking)}")
        env["OPENBLAS_CORETYPE"] = coretype
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
