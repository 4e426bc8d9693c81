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
is that of the float64 pass over each evaluation chunk, whether a row's
argmax was proven in float32 or in float64 or taken from that pass
(`test_golden_digest_float64_eval` takes every row from it).

The bytes depend on floating-point rounding, so they hold for one numpy /
BLAS build. OpenBLAS chooses its GEMM kernel by CPU when it loads
(`parallel.blas_kernel()`; OPENBLAS_CORETYPE forces one), and kernels block
and accumulate products in different orders. numpy picks its `exp` loop by
CPU too (NPY_DISABLE_CPU_FEATURES turns one off), and its X86_V4 loop, run
on CPUs with AVX-512, rounds differently from the others. The metrics.csv
and summary.txt digests held under every kernel and loop measured, so
`GOLDEN` holds one pair per case. The parameter digests differ between
kernels and between loops, so `PARAMS` holds one per case for each of
`SkylakeX` (picked on CPUs with AVX-512), `Haswell`, `Sandybridge` and
`Katmai` (what OPENBLAS_CORETYPE=Prescott runs), with and without the
X86_V4 loop (`conftest.exp_x86_v4()`). On a kernel or loop with no pins the
golden tests fail, naming both and the command that prints the digests.
`test_golden_digests_under_each_blas_kernel` runs this file as a script
under each of those kernels the CPU can run (forced by OPENBLAS_CORETYPE),
with the X86_V4 loop and without it where the CPU has it, and compares what
it prints with the pins. The bytes do not depend on thread
counts: colearn pins BLAS to one thread whatever OPENBLAS_NUM_THREADS says,
and the size of a run's agent pool or the number of Monte Carlo workers
changes no bits (`test_digest_independent_of_blas_env`,
`test_jobs_give_same_digests` and tests/test_parallel.py check this).

To pin, run this file as a script, with OPENBLAS_CORETYPE set to pin another
kernel than the CPU's own, and NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR" to pin without the X86_V4 exp loop. It prints the BLAS kernel,
whether exp ran X86_V4, the thread count, the agent-pool size and the Adam
step it ran with, then per named case (all by default) its metrics.csv and
summary.txt digests, the `GOLDEN` entry, and its parameter digest, the entry
under that kernel and loop in `PARAMS`:

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

from conftest import FMNIST_NAMES, blob_config, exp_x86_v4, synthetic_idx_dataset

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
# (`parallel.blas_kernel()`; OPENBLAS_CORETYPE=Prescott runs `Katmai`) and
# per `exp_x86_v4()`: whether numpy's exp runs its X86_V4 loop, as on CPUs
# with AVX-512 unless NPY_DISABLE_CPU_FEATURES turns it off
PARAMS = {
    ("SkylakeX", True): {
        "CL": "d2d565b298d57caccee7a02ef4a277d322130e4d8468957fecde6e0f8ee29451",
        "ST": "679950723b2dc06e216a825a338817a91a31868aac5ec6edc5057f867c8f2aa7",
        "FS": "3d896f289966fcd476e758c98bc6118bd1b93b4a45ee5b8a4de8a31ae9f12d1a",
        "CL-er": "a833fd331242a86183b6801056cb4905a272c52c83f99977231d9b9b6dd12a37",
        "CL-idx": "2c3e77aa68f4dd5905071f50498ab055aaa57d7726ca884d387c3cbfb648e803",
        "FS-idx": "0a39847843dfabbddf208c9e4b8139eee41947e6304bbc27a76fab98edba5852",
    },
    ("SkylakeX", False): {
        "CL": "ffb0f04a239ee2924e5b26579e8329340a37bd2a2b31543f166ce30b382e37bb",
        "ST": "b184991f664027ac30990c8957900e8a4b867d96cd0fcb25ae16ee3cec5910d7",
        "FS": "4747bc7da21ca806c003a699e0b2f1b7d99e8c4b67d360fe7f251a11c3b868a4",
        "CL-er": "8917ea45f8b900cb32c2473f4bbc313ac166d9be2793c08abcc6e35e05690c2c",
        "CL-idx": "3b66eebe6aaaa08f091ff1f1f65ee8ec1449979bee40c6ae53774c00bb2f846b",
        "FS-idx": "f09b7cfb9666fb958d017274b8535fd33b95f6ecd1679e761df7b3710575993d",
    },
    ("Haswell", True): {
        "CL": "8cf0306457c66880bca49eb3ded37d9561f84753e600f30427017cb4bace1452",
        "ST": "e167cc6f740ad00f5b6f56927e798b76a2dec95e4175769a267cc64c6aeba432",
        "FS": "f9b7b62f02b9970ab28970b358d5c86256f27de466ef94b08e00f2f97530a367",
        "CL-er": "846b027a265c9c4d6345d1ce3a9e254abadbb00952e3cfee8cade5889bd0515a",
        "CL-idx": "25a22d1c2d4e51c3afa7a49e09a8e72993e4c1dbede94a468c0aa9578d0b17c5",
        "FS-idx": "f18c246a6d1efecd013a97feace3966df4dae75d9a8c2657888866f808538b84",
    },
    ("Haswell", False): {
        "CL": "a1637b44f41aeb5def1bd3d17cce6fcfd482dc4d6d20dd13519248cb599d3979",
        "ST": "4b649acf820eaccc1c420db255e7208e3f7e792c4e63553b4e3016e5422a9e5e",
        "FS": "13917ab73d1b4ac9baab31ccaeecc2910a451da0ae91df8363ca1b2aeca3401a",
        "CL-er": "7491a838e15245f8d17bc62fa5d924f6d3891400c13e2620415af8c8f1200cc3",
        "CL-idx": "21a986224c031d564719c2b460f91376ba598c33835e18bd4876e62f343fde93",
        "FS-idx": "91d2ade20b7f3757f9983836dd1df7acbff4f2a8419ff112b56c746f903ba7ee",
    },
    ("Sandybridge", True): {
        "CL": "a1fc64b29f5c59ca9e32fb981d4fb840ec90cef471b9e10003643aef22870afa",
        "ST": "9fb8da63f61866f34101f634a451d1d1b92a3cd9bfbd3e18029e9d53245b29c6",
        "FS": "af218a652e8a9a213a6ad16d54ca993335a906b64143381ea0874aa3b2ead54f",
        "CL-er": "f79e3d4bdc52ce24775052e8dfb955eb936b18d9e9a53976f7264dca4e4a892b",
        "CL-idx": "640f35f7519baed916762b312359eee2b818694a945d83d4fb4dd17bb3f753fa",
        "FS-idx": "93090dc9ba94c62c0cc9fdd1682a429221e7802d0831d01babd39a6b85339dc1",
    },
    ("Sandybridge", False): {
        "CL": "635d07af94a786249fed480f3ffc5caa2071d72b5e1162095af07c190c355e71",
        "ST": "556ecb5fb5b00a0663a333e63bd8f61d542aace7384091f6e79e7be74cfda420",
        "FS": "202b83a2b6c459af8fc3b9dcb1168efbc4fdea7d672d1aa6bccac4a02f4378db",
        "CL-er": "9f3bad25b635b79f71b534d3f64fed9ebb4ae0c6a76ede708e613c4f08a2f8b3",
        "CL-idx": "9678ed15e32a520864d4651331d68225b392300d426f21cd0dbcfb187ab8db9b",
        "FS-idx": "268aef0eaf553df2fa22340e7cebc0666077f00192ff3727830eeb08642acfec",
    },
    ("Katmai", True): {
        "CL": "8137b8efd4406b12471022ead12b32cff908317b900933a063d79832aeba743a",
        "ST": "79de6c49c3dc0de350b006b2e243ed7c6e46333d9db63f8b7f5c9e74e037143d",
        "FS": "c7fc35b7601948c8dd55a695a99b5c0457902a51e5d01f78fcbda75da38f3628",
        "CL-er": "1168652c8cec86fc63a8359d85c6e8e0aadf85d04ed95869947f94addc56d389",
        "CL-idx": "29e86ebec5dd589a057da91982d3098211e72898230159a072eb21a5a66f5203",
        "FS-idx": "38f355485548b61fb59a877caa00e7d733492c3f6b3fd32b52840f4eebffc2f2",
    },
    ("Katmai", False): {
        "CL": "f4e6bd92c0950371f98de48ee8b1fcf0d471ae50d28f2948bafe209942b96bed",
        "ST": "7e903ea453dcec5fa14a32b9e91c5793a4a72e919519d96a969d6fda31a425eb",
        "FS": "5de56951cc92a602964af96a3de370d05d4bbd512579e353c6da479ebce5912b",
        "CL-er": "c3ad530711a91ad1b145364a3f773db5261537274effa147f627655dcca5955d",
        "CL-idx": "d22f0253be0a8fa5c548f0db0d4280c20999983138b44b7a4585cebc29e3d188",
        "FS-idx": "a11bee4bbd8b9d30f8b411908d035b0f1c3886c4c46f9f2cd06be403338507f5",
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
    OpenBLAS kernel and exp loop this process runs; fails where they have
    no pins."""
    kernel, v4 = parallel.blas_kernel(), exp_x86_v4()
    if (kernel, v4) not in PARAMS:
        pytest.fail(f"no parameter pins for the OpenBLAS kernel {kernel}; numpy's exp runs "
                    f"X86_V4: {v4}; print them with "
                    f"OPENBLAS_CORETYPE={kernel} PYTHONPATH=src python tests/test_golden.py")
    return (*GOLDEN[name], PARAMS[kernel, v4][name])


def test_kernel_without_pins_fails_naming_it(monkeypatch):
    monkeypatch.setattr(parallel, "blas_kernel", lambda: "Zen")
    with pytest.raises(pytest.fail.Exception, match=r"OpenBLAS kernel Zen; .* "
                       r"OPENBLAS_CORETYPE=Zen PYTHONPATH=src python tests/test_golden.py"):
        _pinned("CL")


def test_unknown_exp_loop_fails_naming_it(monkeypatch):
    # numpy before 2 cannot say which exp loop it runs
    monkeypatch.setitem(globals(), "exp_x86_v4", lambda: "unknown")
    with pytest.raises(pytest.fail.Exception, match=r"numpy's exp runs X86_V4: unknown; "):
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


# numpy's CPU features that turn off its X86_V4 loops, exp's among them
NO_X86_V4 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize("coretype", FORCED_KERNELS)
def test_golden_digests_under_each_blas_kernel(coretype, tmp_path):
    # every case in a process forced onto each kernel this CPU can run, with
    # numpy's own choice of exp loop and, where that is X86_V4, without it:
    # pins the in-process tests above never compare
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS's {coretype} kernel is x86-64 code")
    lacking = [flag for flag in FORCED_KERNELS[coretype] if flag not in _cpu_flags()]
    if lacking:
        pytest.skip(f"the CPU cannot run OpenBLAS's {coretype} kernel: no {', '.join(lacking)}")
    # without AVX-512 numpy never runs an X86_V4 loop: one run covers both
    for disabled in ("", NO_X86_V4) if "avx512f" in _cpu_flags() else ("",):
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
               "NPY_DISABLE_CPU_FEATURES": disabled, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, str(Path(__file__))], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        kernel, v4 = re.match(r"# BLAS kernel (\S+), exp X86_V4 (\S+),", done.stdout).groups()
        key = (kernel, ast.literal_eval(v4))
        assert key in PARAMS, f"OPENBLAS_CORETYPE={coretype} runs {key}, which has no pins"
        assert _parse_script_output(done.stdout) == {
            name: (*GOLDEN[name], PARAMS[key][name]) for name in CASES}


def test_jobs_give_same_digests(tmp_path):
    # two runs, so that jobs=2 runs them in two worker processes
    config = override(_idx_cl(tmp_path / "data"), "montecarlo_runs", 2)
    assert _digests(config, tmp_path, jobs=1) == _digests(config, tmp_path, jobs=2)


def _parse_script_output(text: str) -> dict:
    return ast.literal_eval("{" + "".join(
        line for line in text.splitlines(keepends=True) if line.startswith("    ")) + "}")


def main(names) -> None:
    """Print the digests of the named cases (all by default), each as
    (metrics.csv, summary.txt, parameters), after the BLAS kernel, exp loop
    and thread counts they ran with."""
    import tempfile

    print(f"# BLAS kernel {parallel.blas_kernel()}, exp X86_V4 {exp_x86_v4()!r}, "
          f"threads {parallel.blas_threads()}, "
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
