"""Byte identity across BLAS thread counts.

The CLI promises that identical inputs and flags give byte-identical files on
one machine, numpy/BLAS build and BLAS thread count.  The commands below make
no LAPACK call and no ``gemm`` whose result depends on how BLAS splits it, so
their CSVs must also be identical between one and two BLAS threads.  That
includes the ``stationary`` marginals of ``classify`` and ``bridge --kernel
attention``: on these inputs the Doeblin rung of ``stationary_distribution``
answers, with ``gemv`` products only, before its LU rung would run.  It also
includes ``dmap`` of a 128-dimensional cloud, whose Gram product is a ``gemm``
with a long inner dimension.  Two child
interpreters run them, one with ``OPENBLAS_NUM_THREADS=1`` and one with
``=2``, and compare the sha256 of every CSV.  A bare 400 x 400 ``gemm`` in
each child shows whether the thread count changed anything BLAS computes; if
it did not (one CPU, or a BLAS that ignores the variable), the comparison
shows nothing and the test is skipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovgeom
from markovgeom.cli import write_matrix_csv

N = 400

# each command's arguments, with {file} placeholders for the inputs
COMMANDS = {
    "dmap": ["dmap", "--input", "{cloud}"],
    # D=128: a Gram product with an inner dimension of 128, not 8
    "dmap_wide": ["dmap", "--input", "{wide}"],
    "kernel": ["kernel", "--input", "{cloud}"],
    "attention": ["attention", "--input", "{cloud}"],
    "bistochastic": ["attention", "--bistochastic", "--weights", "{weights}",
                     "--input", "{cloud}"],
    "bridge": ["bridge", "--kernel", "rbf", "--mu-plus", "{mu_plus}",
               "--mu-minus", "{mu_minus}", "--input", "{cloud}"],
    "magnetic": ["magnetic", "--weights", "{weights}", "--input", "{cloud}"],
    "classify": ["classify", "--kernel", "attention", "--weights", "{weights}",
                 "--mu-plus", "stationary", "--mu-minus", "stationary", "--input", "{cloud}"],
    "bridge_attention": ["bridge", "--kernel", "attention", "--weights", "{weights}",
                         "--mu-plus", "stationary", "--mu-minus", "stationary",
                         "--input", "{cloud}"],
}

CHILD = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
from markovgeom.cli import main

out_root, commands = Path(sys.argv[1]), json.loads(sys.argv[2])
a, b = np.random.default_rng(0).standard_normal((2, 400, 400))
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except (TypeError, KeyError):  # numpy < 1.26 prints its configuration only
    blas = "unknown"
found = {"blas": blas, "gemm": hashlib.sha256((a @ b).tobytes()).hexdigest(), "files": {}}
for name, argv in commands.items():
    target = out_root / name
    assert main([*argv, "--out-dir", str(target)]) == 0, name
    for path in sorted(target.glob("*.csv")):
        found["files"][f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(found))
"""


def _write_inputs(work: Path) -> dict:
    rng = np.random.default_rng(7)
    files = {name: work / f"{name}.csv"
             for name in ("cloud", "weights", "mu_plus", "mu_minus", "wide")}
    write_matrix_csv(files["cloud"], rng.standard_normal((N, 8)))
    write_matrix_csv(files["weights"], np.eye(8) + 0.3 * rng.standard_normal((8, 8)))
    for name in ("mu_plus", "mu_minus"):
        mu = rng.uniform(0.5, 1.5, N)
        write_matrix_csv(files[name], mu / mu.sum())
    write_matrix_csv(files["wide"], rng.standard_normal((N, 128)))
    return files


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    files = _write_inputs(tmp_path)
    commands = {name: [arg.format(**files) for arg in argv] for name, argv in COMMANDS.items()}
    children = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        children[threads] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path / threads), json.dumps(commands)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    found = {}
    for threads, child in children.items():
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        # the commands print their summaries first; the record is the last line
        found[threads] = json.loads(stdout.splitlines()[-1])
    one, two = found["1"], found["2"]
    if one["gemm"] == two["gemm"]:
        pytest.skip(f"BLAS ({one['blas']}) gave the same gemm bytes on 1 and 2 threads, "
                    "so the thread count was not exercised")
    assert len(one["files"]) == 21
    changed = sorted(name for name in one["files"] if one["files"][name] != two["files"].get(name))
    assert not changed, f"under {one['blas']}, these CSVs depend on the BLAS thread count: {changed}"
