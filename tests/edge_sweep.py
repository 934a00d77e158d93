"""Edge-input sweep of every CLI command form, run in-process through ``cli.main``.

Each command form runs with and without a D x D weight file (where the
command takes one) at beta auto, 1e-9, 1e3 and 1e6 on four seeded edge
clouds: N=2 with D=1, four points with a pair 1e-9 apart, the
``default_rng(150)`` 5 x 3 cloud on which plain scaling sweeps stall, and a
24 x 3 two-cluster cloud.  ``attention --bistochastic`` and ``bridge`` also
run at ``--tol 1e-15``, where rounding alone can miss tol.  A run passes if
it exits 0 with every number in its output files finite and, for a command
that takes ``--tol``, every marginal residual of its report (``*_sum_residual``
and ``marginal_residual``) within that tol; or if it exits 2 or 3 with stderr
starting ``error: `` (an exit 3 must also name the ``beta=`` it stalled at).
At beta auto, a form that is one of the ``cli_emit`` benchmark commands must
also write what that command's library oracle in ``perfbench/workloads.py``
computes, bit for bit.  Where ``attention --bistochastic --direction bwd``
and its forward form both exit 0, the backward CSV must be the forward CSV
transposed, cell for cell.  A scale pass then reruns every form on each
cloud scaled by 8, at beta / 64 (``auto`` stays ``auto``), which leaves every
logit the same double: each pair must end with the same exit code, and where
both exit 0, ``verify`` excepted (its fixed-beta parts run on the input cloud
itself), every CSV must be byte-identical and every report equal as parsed
JSON outside its ``config`` echo.  A traceback, exit 1 (``verify`` included)
or a non-finite output number is a finding, and the script exits 1 if there
is any.  Its name keeps it out of pytest's collection; it takes about 19 s on
two vCPUs:

    PYTHONPATH=src python tests/edge_sweep.py
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leave the benchmark's directory as checked out
sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402

from markovgeom import cli  # noqa: E402

BETAS = ("auto", "1e-9", "1e3", "1e6")

# the scale pass reruns every form on each cloud times SCALE at beta / SCALE^2,
# which leaves every logit the same double
SCALE = 8.0


def _two_clusters(rng):
    points = rng.standard_normal((24, 3))
    points[12:] += 6.0
    return points


def _near_duplicate(rng):
    points = rng.standard_normal((4, 3))
    points[1] = points[0] + 1e-9
    return points


CLOUDS = {
    "N=2 D=1": lambda: np.random.default_rng(140).standard_normal((2, 1)),
    "near-duplicate pair": lambda: _near_duplicate(np.random.default_rng(141)),
    "stall 5x3": lambda: np.random.default_rng(150).standard_normal((5, 3)),
    "two clusters 24x3": lambda: _two_clusters(np.random.default_rng(142)),
}

STATIONARY = ("--mu-plus", "stationary", "--mu-minus", "stationary")

# (command, flags before the weights, flags after them, whether the weight
# file is optional): the weights sit where the cli_emit rotation puts them,
# so a form's argv is a rotation command's argv exactly when it is that command
FORMS = (
    ("dmap", (), (), True),
    ("kernel", (), (), True),
    ("attention", (), (), True),
    ("attention", ("--direction", "bwd"), (), True),
    ("attention", ("--bistochastic",), (), True),
    ("attention", ("--bistochastic", "--direction", "bwd"), (), True),
    ("attention", ("--bistochastic", "--tol", "1e-15"), (), True),
    ("attention", ("--format", "json"), (), True),
    ("bridge", ("--kernel", "rbf"), ("--mu-plus", "{mu_plus}", "--mu-minus", "{mu_minus}"), True),
    ("bridge", ("--kernel", "rbf", "--tol", "1e-15"),
     ("--mu-plus", "{mu_plus}", "--mu-minus", "{mu_minus}"), True),
    ("bridge", ("--kernel", "rbf"), STATIONARY, True),
    ("bridge", ("--kernel", "attention"), STATIONARY, True),
    ("classify", ("--kernel", "rbf"), STATIONARY, True),
    ("classify", ("--kernel", "attention"), STATIONARY, True),
    ("magnetic", (), (), False),
    ("embed", (), (), True),
    ("verify", (), (), None),
)


def form_argvs():
    """Every argv template: each form with the weight file, and without it
    where the weights are optional or not taken."""
    for command, lead, trail, optional in FORMS:
        variants = {None: [()], True: [(), ("--weights", "{weights}")],
                    False: [("--weights", "{weights}")]}[optional]
        for weights in variants:
            yield (command, *lead, *weights, *trail, "--input", "{cloud}")


ORACLES = {command.argv: command for command in workloads.EMIT_ROTATION}

_BACKWARD_BISTOCHASTIC = ("attention", "--bistochastic", "--direction", "bwd")


def forward_twin(template):
    """The forward form of a backward bistochastic attention template, or None."""
    if template[:4] == _BACKWARD_BISTOCHASTIC:
        return ("attention", "--bistochastic", *template[4:])
    return None


def csv_cells(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def scaled_beta(beta):
    """The scale pass's --beta: auto stays auto, an explicit beta is divided by SCALE^2."""
    return beta if beta == "auto" else repr(float(beta) / SCALE**2)


def scale_invariant_outputs(out_dir):
    """Each output file as the scale pass compares it: a CSV as its bytes, a
    report parsed, without its config echo."""
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            outputs[path.name] = {k: v for k, v in json.loads(path.read_text()).items()
                                  if k != "config"}
        else:
            outputs[path.name] = path.read_bytes()
    return outputs


def write_inputs(points, work):
    """The cloud, a D x D weight matrix and two CSV marginals, seeded by N."""
    n, d = points.shape
    rng = np.random.default_rng(n)
    files = {"cloud": work / "cloud.csv", "weights": work / "weights.csv",
             "mu_plus": work / "mu_plus.csv", "mu_minus": work / "mu_minus.csv"}
    workloads.write_csv(files["cloud"], points)
    workloads.write_csv(files["weights"], workloads.interaction_weights(rng, d))
    mu_plus, mu_minus = workloads.drifted_marginals(rng, n)
    workloads.write_csv(files["mu_plus"], mu_plus)
    workloads.write_csv(files["mu_minus"], mu_minus)
    return files


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


def non_finite_output(out_dir):
    """The first output file holding a non-finite number, or None."""
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        try:
            if path.suffix == ".json":
                numbers = _numbers(json.loads(text, parse_constant=_reject_constant))
            else:
                numbers = (float(cell) for cell in text.replace("\n", ",").split(",") if cell)
            if not all(math.isfinite(x) for x in numbers):
                return path.name
        except ValueError:
            return path.name
    return None


def residual_over_tol(out_dir, command):
    """The first marginal residual of the report that exceeds the command's
    --tol, as "name value > tol", or None (also for a command without --tol)."""
    report = json.loads((out_dir / f"{command}_report.json").read_text())
    tol = report["config"].get("tol")
    if tol is None:
        return None
    for name, value in report["results"].items():
        if (name.endswith("_sum_residual") or name == "marginal_residual") and not value <= tol:
            return f"{name} {value!r} > tol {tol!r}"
    return None


def run(template, files, beta, tmp):
    """(exit code, stderr, traceback or None, output directory) of one
    in-process command: the template on the input files at one --beta."""
    argv = [arg.format(**{k: str(v) for k, v in files.items()}) for arg in template]
    out_dir = Path(tempfile.mkdtemp(dir=tmp))
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--beta", beta, "--out-dir", str(out_dir)])
    except Exception:  # any escape from main is a finding
        return None, stderr.getvalue(), traceback.format_exc(), out_dir
    return code, stderr.getvalue(), None, out_dir


def end_finding(label, code, stderr, trace):
    """The finding a run's end makes on its own, or None: a traceback, an exit
    other than 0, 2 and 3, or an exit 2 or 3 without its error line (exit 3
    must also name the beta)."""
    if trace is not None:
        return f"{label}: traceback\n{trace}"
    if code in (2, 3):
        if not stderr.startswith("error: "):
            return f"{label}: exit {code} without an error line"
        if code == 3 and "beta=" not in stderr:
            return f"{label}: exit 3 names no beta"
    elif code != 0:
        return f"{label}: exit {code}\n{stderr}"
    return None


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    templates = list(form_argvs())
    missing = set(ORACLES) - set(templates)
    if missing:
        print(f"FAIL: cli_emit commands outside the sweep: {sorted(missing)}")
        return 1
    exits = Counter()
    findings = []
    oracle_checks = transpose_checks = scale_pairs = 0
    codes = {}  # (cloud, template, beta) -> exit code, None for a traceback
    written = {}  # (cloud, template, beta) -> output directory of an exit-0 run
    with tempfile.TemporaryDirectory() as tmp:
        for index, (cloud_name, make) in enumerate(CLOUDS.items()):
            work = Path(tmp) / f"cloud{index}"
            work.mkdir()
            files = write_inputs(make(), work)
            for template in templates:
                for beta in BETAS:
                    code, stderr, trace, out_dir = run(template, files, beta, tmp)
                    codes[cloud_name, template, beta] = code
                    exits["traceback" if trace else f"exit {code}"] += 1
                    label = f"{cloud_name}: {' '.join(template)} --beta {beta}"
                    if (end := end_finding(label, code, stderr, trace)) is not None:
                        findings.append(end)
                    elif code == 0:
                        written[cloud_name, template, beta] = out_dir
                        if (bad := non_finite_output(out_dir)) is not None:
                            findings.append(f"{label}: non-finite number in {bad}")
                        elif (over := residual_over_tol(out_dir, template[0])) is not None:
                            findings.append(f"{label}: {over}")
                        elif beta == "auto" and template in ORACLES:
                            oracle_checks += 1
                            expect = ORACLES[template].expect(files)
                            if not workloads.outputs_match(out_dir, expect):
                                findings.append(f"{label}: output differs from the library oracle")
        for index, (cloud_name, make) in enumerate(CLOUDS.items()):
            work = Path(tmp) / f"scaled{index}"
            work.mkdir()
            files = write_inputs(make() * SCALE, work)
            for template in templates:
                for beta in BETAS:
                    scaled = scaled_beta(beta)
                    code, stderr, trace, out_dir = run(template, files, scaled, tmp)
                    label = f"{cloud_name} x {SCALE:g}: {' '.join(template)} --beta {scaled}"
                    if (end := end_finding(label, code, stderr, trace)) is not None:
                        findings.append(end)
                    elif code != codes[cloud_name, template, beta]:
                        findings.append(f"{label}: exit {code}, unscaled exit "
                                        f"{codes[cloud_name, template, beta]}")
                    # verify's fixed-beta parts run on the input cloud itself
                    elif code == 0 and template[0] != "verify":
                        scale_pairs += 1
                        if (scale_invariant_outputs(out_dir)
                                != scale_invariant_outputs(written[cloud_name, template, beta])):
                            findings.append(f"{label}: output differs from the unscaled one")
        for (cloud_name, template, beta), out_dir in written.items():
            twin = written.get((cloud_name, forward_twin(template), beta))
            if twin is not None:
                transpose_checks += 1
                backward = csv_cells(out_dir / "attention.csv")
                if backward != [list(row) for row in zip(*csv_cells(twin / "attention.csv"))]:
                    findings.append(f"{cloud_name}: {' '.join(template)} --beta {beta}: "
                                    "not the forward CSV transposed")
    runs = sum(exits.values())
    ends = ", ".join(f"{end} {count}" for end, count in sorted(exits.items()))
    print(f"{runs} runs over {len(CLOUDS)} clouds, {len(templates)} forms and "
          f"{len(BETAS)} betas: {ends}")
    print(f"{oracle_checks} cli_emit outputs compared with their library oracle")
    print(f"{transpose_checks} backward bistochastic outputs compared with the forward ones "
          "transposed")
    print(f"{runs} exit codes and {scale_pairs} exit-0 outputs compared with the cloud "
          f"scaled by {SCALE:g} at beta / {SCALE**2:g}")
    for finding in findings:
        print(f"FINDING: {finding}")
    return int(bool(findings))


if __name__ == "__main__":
    sys.exit(main())
