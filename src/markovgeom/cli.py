"""File-based front end: CSV point clouds in, operators and reports out.

Matrices are written as plain CSV at 17 significant digits (lossless for
float64), reports as JSON with insertion-ordered keys, complex operators as
paired magnitude/phase CSVs.  Identical configuration and inputs produce
byte-identical output files.  Large matrices are formatted in row chunks on
every available CPU; the bytes do not depend on how many there are.

Exit codes: 0 success (or all identities pass), 1 verification failure,
2 usage/input error, 3 numerical non-convergence.  The MG_LOG_LEVEL
environment variable (error, warn, info, debug) controls logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bridges import (
    _normalized_degrees,
    attention_bridge,
    classify_regime,
    magnetic_flux,
    solve_bridge,
    stationary_distribution,
)
from .geometry import (
    Bidivergence,
    DataCloud,
    GramMatrix,
    InteractionWeights,
    _gram_phases,
    _validate_beta,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from .normalize import ConvergenceError
from .operators import (
    _max_hermitian_gap,
    attention_backward,
    attention_bistochastic,
    attention_forward,
    dmap,
    magnetic_operator,
    rbf_kernel,
)
from .spectral import conjugate_hermitize, conjugate_symmetrize, decompose, diffusion_embedding
from .verify import run_identity_checks

log = logging.getLogger("markovgeom")

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

# marginal vectors: accepted silently within the strict bound, renormalized
# with a warning within the loose bound, rejected beyond it
_MARGINAL_STRICT = 1e-9
_MARGINAL_LOOSE = 1e-6


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _parse_cells(path, row_no: int, cells: list[str]) -> list[float]:
    """Parse one row cell by cell; the first bad cell raises with its location."""
    values = []
    for col_no, cell in enumerate(cells, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: row {row_no}, column {col_no}: "
                f"not a number: {cell.strip()!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(
                f"{path}: row {row_no}, column {col_no}: non-finite value"
            )
        values.append(value)
    return values


def load_matrix(path, skip_header: bool = False) -> np.ndarray:
    """Parse a CSV of finite reals; errors carry the row/column location.

    Row numbers refer to data rows (a skipped header does not count).  Each
    row is parsed in one pass; only a row that fails it, or whose sum is not
    finite, is rescanned cell by cell to locate the error.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if skip_header and lines:
        lines = lines[1:]
    rows: list[list[float]] = []
    row_no = 0
    for line in lines:
        if not line.strip():
            continue
        row_no += 1
        cells = line.split(",")
        try:
            values = list(map(float, cells))
        except ValueError:
            values = None
        # a non-finite cell makes the sum non-finite; an overflowing sum of
        # finite cells only costs a rescan
        if values is None or not math.isfinite(sum(values)):
            values = _parse_cells(path, row_no, cells)
        if rows and len(values) != len(rows[0]):
            raise ValueError(
                f"{path}: row {row_no}: expected {len(rows[0])} columns, "
                f"got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty file")
    return np.array(rows, dtype=float)


def load_cloud(path, skip_header: bool = False) -> DataCloud:
    return DataCloud(load_matrix(path, skip_header))


def load_weights(path, skip_header: bool = False) -> InteractionWeights:
    return InteractionWeights(load_matrix(path, skip_header))


def load_marginal(path, n: int, skip_header: bool = False) -> np.ndarray:
    """Load a probability vector (single row or column), validated against n.

    The vector must sum to 1 within 1e-9; sums off by up to 1e-6 are
    renormalized with a warning, anything worse is rejected.
    """
    matrix = load_matrix(path, skip_header)
    if 1 not in matrix.shape:
        raise ValueError(f"{path}: expected a single row or column vector")
    vec = matrix.reshape(-1)
    if vec.shape[0] != n:
        raise ValueError(f"{path}: expected {n} entries, got {vec.shape[0]}")
    if np.any(vec <= 0.0):
        raise ValueError(f"{path}: marginal entries must be strictly positive")
    total = float(vec.sum())
    gap = abs(total - 1.0)
    if gap > _MARGINAL_LOOSE:
        raise ValueError(f"{path}: marginal sums to {total!r}, not 1")
    if gap > _MARGINAL_STRICT:
        log.warning("%s: marginal sums to %r; renormalizing", path, total)
    return vec / total


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


# Matrices of at least this many cells are formatted on every available CPU,
# with at least _MIN_ROWS_PER_WORKER rows per process; smaller ones, and
# platforms without os.fork, take the same formatter serially.
_PARALLEL_MIN_CELLS = 1 << 16
_MIN_ROWS_PER_WORKER = 16
# cells per formatted text block, and bytes per read of a worker's pipe
_BLOCK_CELLS = 1 << 14
_PIPE_READ = 1 << 20


def _emit_workers(matrix: np.ndarray) -> int:
    """Number of processes that format ``matrix``, the caller included."""
    if matrix.size < _PARALLEL_MIN_CELLS or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, matrix.shape[0] // _MIN_ROWS_PER_WORKER))


def _format_rows(matrix: np.ndarray, lo: int, hi: int, row_fmt: str, sep: str):
    """Yield the text of rows ``lo:hi`` as ASCII blocks.

    ``row_fmt`` holds one ``%`` field per column.  Rows are joined by ``sep``,
    and the first row of a chunk is led by ``sep`` too unless it is row 0, so
    the chunks of a matrix concatenate to the text of the whole matrix.
    """
    step = max(1, _BLOCK_CELLS // max(1, matrix.shape[1]))
    for start in range(lo, hi, step):
        block = matrix[start:min(start + step, hi)]
        fmt = (sep + row_fmt) * len(block)
        if start == 0:
            fmt = fmt[len(sep):]
        yield (fmt % tuple(block.ravel().tolist())).encode("ascii")


def _fork_formatter(matrix: np.ndarray, lo: int, hi: int, row_fmt: str, sep: str):
    """Fork a worker that formats rows ``lo:hi`` and writes them to a pipe.

    The worker holds its chunk's text until it is done, so it never waits on
    the pipe while the caller formats its own chunk.  It only formats and
    writes, then leaves through ``os._exit``: no BLAS call, no logging, no
    stdio flush, no parent cleanup.  Returns ``(pid, read_fd)``.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for block in list(_format_rows(matrix, lo, hi, row_fmt, sep)):
                view = memoryview(block)
                while view:
                    view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _write_rows(fh, matrix: np.ndarray, row_fmt: str, sep: str, workers: int) -> None:
    """Write the text of every row of ``matrix`` to the binary file ``fh``.

    The rows are split into ``workers`` contiguous chunks.  The caller formats
    the first chunk and streams it; each other chunk comes from a forked
    worker, whose bytes are copied from its pipe in row order.  The bytes do
    not depend on ``workers``.  A worker that fails raises
    ``ChildProcessError``.
    """
    n = matrix.shape[0]
    workers = max(1, min(workers, n))
    bounds = [n * i // workers for i in range(workers + 1)]
    children = []
    failed = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_formatter(matrix, lo, hi, row_fmt, sep))
        for block in _format_rows(matrix, 0, bounds[1], row_fmt, sep):
            fh.write(block)
        for _, read_fd in children:
            while piece := os.read(read_fd, _PIPE_READ):
                fh.write(piece)
    finally:
        # a worker inherits the read ends of the pipes made before it, so all
        # must close before any wait: then a worker still writing after an
        # error gets EPIPE and exits instead of blocking
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failed.append(code)
    if failed:
        raise ChildProcessError(
            f"{fh.name}: {len(failed)} of {workers - 1} formatting workers failed "
            f"(exit codes {failed})"
        )


def _write_file(path, write) -> None:
    """Call ``write(fh)`` on ``path`` opened for binary writing; on any
    failure, remove the partial file before the error propagates."""
    fh = open(path, "wb")
    try:
        with fh:
            write(fh)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_matrix_csv(path, matrix) -> None:
    """Row-major CSV at 17 significant digits (round-trips float64 exactly).

    Byte-identical to ``np.savetxt(path, matrix, fmt="%.17g", delimiter=",")``
    whatever the number of CPUs that format it.
    """
    matrix = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=float)))
    if matrix.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D matrix, got shape {matrix.shape}")
    row_fmt = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    _write_file(path, lambda fh: _write_rows(fh, matrix, row_fmt, "", _emit_workers(matrix)))


def _placeholder(index: int) -> str:
    # no argument or path can hold a NUL, so no other report string equals this
    return f"\0markovgeom-matrix-{index}"


def _stub_matrices(value, matrices: list):
    """Copy of a report with each finite 2-D float64 array replaced by a
    placeholder string and appended to ``matrices``; other arrays become lists."""
    if isinstance(value, dict):
        return {key: _stub_matrices(item, matrices) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stub_matrices(item, matrices) for item in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype == np.float64 and np.isfinite(value).all():
            matrices.append(np.ascontiguousarray(value))
            return _placeholder(len(matrices) - 1)
        return value.tolist()
    return value


def _write_json_matrix(fh, matrix: np.ndarray, indent: int) -> None:
    """The ``indent=2`` JSON of ``matrix.tolist()`` for a value whose line is
    indented by ``indent`` spaces; floats are written by ``float.__repr__``."""
    if matrix.shape[0] == 0:
        fh.write(b"[]")
        return
    rows, cells = " " * (indent + 2), " " * (indent + 4)
    if matrix.shape[1]:
        row_fmt = f"\n{rows}[" + ",".join([f"\n{cells}%r"] * matrix.shape[1]) + f"\n{rows}]"
    else:
        row_fmt = f"\n{rows}[]"
    fh.write(b"[")
    _write_rows(fh, matrix, row_fmt, ",", _emit_workers(matrix))
    fh.write(f"\n{' ' * indent}]".encode("ascii"))


def write_report_json(path, report: dict) -> None:
    """Write ``json.dumps(report, indent=2)`` and a newline.

    A finite 2-D float64 array anywhere in the report is written as its
    nested list by the row-chunk formatter, into the text that ``json.dumps``
    makes of the rest of the report; the file is byte-identical to dumping
    the report with every array replaced by ``array.tolist()``.
    """
    matrices: list[np.ndarray] = []
    text = json.dumps(_stub_matrices(report, matrices), indent=2) + "\n"

    def write(fh):
        pos = 0
        for index, matrix in enumerate(matrices):
            token = json.dumps(_placeholder(index))
            at = text.index(token, pos)
            line = text[text.rfind("\n", 0, at) + 1:at]
            fh.write(text[pos:at].encode("ascii"))
            _write_json_matrix(fh, matrix, len(line) - len(line.lstrip(" ")))
            pos = at + len(token)
        fh.write(text[pos:].encode("ascii"))

    _write_file(path, write)


def emit(report: dict, matrices: dict[str, np.ndarray], args) -> None:
    """Write the matrices (CSV) and the report (JSON) under ``--out-dir``.

    The report goes to ``<command>_report.json``; each matrix to
    ``<name>.csv``, or to ``--out`` for the commands that take it (each writes
    one matrix).  ``--format json`` inlines the matrices into the report
    instead of writing separate files.
    """
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if getattr(args, "format", "csv") == "json":
        if matrices:
            report = dict(report)
            report["matrices"] = {
                name: np.atleast_2d(np.asarray(values, dtype=float))
                for name, values in matrices.items()
            }
    else:
        out = getattr(args, "out", None)
        for name, values in matrices.items():
            path = Path(out) if out else out_dir / f"{name}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_matrix_csv(path, values)
    write_report_json(out_dir / f"{args.command}_report.json", report)


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------


class Geometry(NamedTuple):
    """The query-key geometry every command normalizes in its own way."""

    cloud: DataCloud
    gram: GramMatrix
    biv: Bidivergence
    d2: np.ndarray


class Outcome(NamedTuple):
    """What a command computed: report results (without ``size``; verify's
    ``checks`` and ``all_passed``), matrices to emit, the stdout summary and
    the exit code."""

    results: dict
    matrices: dict[str, np.ndarray]
    summary: str
    code: int = EXIT_OK


def _resolve_beta(beta_arg: str, d2: np.ndarray) -> float:
    if beta_arg == "auto":
        off_diagonal = d2[~np.eye(d2.shape[0], dtype=bool)]
        median = float(np.median(off_diagonal))
        if median <= 0.0:
            raise ValueError(
                "cannot resolve beta automatically: median off-diagonal "
                "squared distance is zero"
            )
        return _validate_beta(1.0 / median)
    try:
        beta = float(beta_arg)
    except ValueError:
        raise ValueError(f"beta must be a positive number or 'auto', got {beta_arg!r}") from None
    return _validate_beta(beta)


def _load_geometry(args) -> Geometry:
    cloud = load_cloud(args.input, args.skip_header)
    weights = load_weights(args.weights, args.skip_header) if getattr(args, "weights", None) else None
    gram_matrix = generalized_gram(cloud, weights) if weights is not None else gram(cloud)
    biv = bidivergence(gram_matrix)
    return Geometry(cloud, gram_matrix, biv, squared_distance(biv))


def _config_echo(args, beta: float) -> dict:
    config = {"input": args.input}
    for key in ("weights", "direction", "bistochastic", "kernel", "mu_plus", "mu_minus",
                "t", "k", "tol", "max_iter", "format", "skip_header"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    config["beta_arg"] = args.beta
    config["beta"] = float(beta)
    return config


def _marginals(args, n: int, intrinsic):
    """Resolve --mu-plus and --mu-minus, each a CSV path or 'stationary'.

    'stationary' is ``intrinsic()``, the intrinsic distribution of the
    selected kernel: the normalized kernel row sums for the distance kernel,
    the stationary measure of forward attention for the directional kernel.
    Equal arguments are resolved once.
    """
    def resolve(source):
        if source == "stationary":
            return intrinsic()
        return load_marginal(source, n, args.skip_header)

    mu_plus = resolve(args.mu_plus)
    return mu_plus, mu_plus if args.mu_minus == args.mu_plus else resolve(args.mu_minus)


def _row_residual(values: np.ndarray) -> float:
    return float(np.abs(values.sum(axis=1) - 1.0).max())


def _col_residual(values: np.ndarray) -> float:
    return float(np.abs(values.sum(axis=0) - 1.0).max())


def _regime_results(regime) -> dict:
    return {
        "regime": regime.regime,
        "max_current": regime.max_current,
        "current_threshold": regime.current_threshold,
        "stationarity_residual": regime.stationarity_residual,
        "marginal_gap": regime.marginal_gap,
    }


def _run(args) -> int:
    """The one command pipeline: load the geometry, resolve beta, run the
    command, write its report and matrices, print its summary."""
    if getattr(args, "out", None) and args.format == "json":
        raise ValueError("--out names a CSV file and cannot be combined with --format json")
    geo = _load_geometry(args)
    beta = _resolve_beta(args.beta, geo.d2)
    outcome = args.func(args, geo, beta)
    report = {"command": args.command, "config": _config_echo(args, beta)}
    if args.command == "verify":
        report.update(outcome.results)
    else:
        report["results"] = {"size": geo.cloud.n_samples, **outcome.results}
    emit(report, outcome.matrices, args)
    print(outcome.summary)
    return outcome.code


# ---------------------------------------------------------------------------
# commands: each computes its results from the geometry at one beta
# ---------------------------------------------------------------------------


def cmd_dmap(args, geo: Geometry, beta: float) -> Outcome:
    operator = dmap(geo.d2, beta)
    residual = _row_residual(operator.values)
    return Outcome(
        {"row_sum_residual": residual, "row_sum_tolerance": 1e-12},
        {"dmap": operator.values},
        f"dmap: N={geo.cloud.n_samples} beta={beta:.6g} row-sum residual {residual:.3e}",
    )


def cmd_kernel(args, geo: Geometry, beta: float) -> Outcome:
    kernel = rbf_kernel(geo.d2, beta)
    symmetry = _max_hermitian_gap(kernel.values)
    return Outcome(
        {
            "symmetry_residual": symmetry,
            "symmetry_tolerance": 1e-12,
            "min_entry": float(kernel.values.min()),
        },
        {"kernel": kernel.values},
        f"kernel: N={geo.cloud.n_samples} beta={beta:.6g} symmetry residual {symmetry:.3e}",
    )


def cmd_attention(args, geo: Geometry, beta: float) -> Outcome:
    if args.bistochastic:
        operator = attention_bistochastic(
            geo.biv, beta, direction=args.direction, tol=args.tol, max_iter=args.max_iter
        )
        variant = f"bistochastic-{args.direction}"
    elif args.direction == "fwd":
        operator = attention_forward(geo.biv, beta)
        variant = "fwd"
    else:
        operator = attention_backward(geo.biv, beta)
        variant = "bwd"
    results = {"variant": variant, "kind": operator.kind}
    if operator.kind in ("row", "bi"):
        results["row_sum_residual"] = _row_residual(operator.values)
    if operator.kind in ("column", "bi"):
        results["column_sum_residual"] = _col_residual(operator.values)
    return Outcome(
        results,
        {"attention": operator.values},
        f"attention ({variant}): N={geo.cloud.n_samples} beta={beta:.6g} kind={operator.kind}",
    )


def cmd_bridge(args, geo: Geometry, beta: float) -> Outcome:
    n = geo.cloud.n_samples
    if args.kernel == "rbf":
        kernel = rbf_kernel(geo.d2, beta).values
        mu_plus, mu_minus = _marginals(args, n, lambda: _normalized_degrees(kernel))
        bridge = solve_bridge(kernel, mu_plus, mu_minus, tol=args.tol, max_iter=args.max_iter)
    else:
        mu_plus, mu_minus = _marginals(args, n, lambda: stationary_distribution(
            attention_forward(geo.biv, beta), tol=args.tol))
        bridge = attention_bridge(geo.biv, beta, mu_plus, mu_minus, tol=args.tol,
                                  max_iter=args.max_iter)
    regime = classify_regime(bridge.forward, mu_plus, mu_minus)
    potentials = bridge.potentials
    results = {
        "iterations": potentials.iterations,
        "marginal_residual": potentials.residual,
        **_regime_results(regime),
    }
    matrices = {
        "coupling": bridge.coupling,
        "forward": bridge.forward.values,
        "u_plus": potentials.u,
        "u_minus": potentials.v,
        "mu_plus": mu_plus,
        "mu_minus": mu_minus,
    }
    return Outcome(
        results,
        matrices,
        f"bridge ({args.kernel}): N={n} beta={beta:.6g} regime={regime.regime} "
        f"residual {potentials.residual:.3e} in {potentials.iterations} iterations",
    )


def cmd_classify(args, geo: Geometry, beta: float) -> Outcome:
    n = geo.cloud.n_samples
    if args.kernel == "rbf":
        operator = dmap(geo.d2, beta)
        mu_plus, mu_minus = _marginals(
            args, n, lambda: _normalized_degrees(rbf_kernel(geo.d2, beta).values))
    else:
        operator = attention_forward(geo.biv, beta)
        mu_plus, mu_minus = _marginals(
            args, n, lambda: stationary_distribution(operator, tol=args.tol))
    regime = classify_regime(operator, mu_plus, mu_minus)
    return Outcome(
        _regime_results(regime),
        {"currents": regime.currents},
        f"classify ({args.kernel}): regime={regime.regime} "
        f"max current {regime.max_current:.3e} (threshold {regime.current_threshold:.3e})",
    )


def cmd_magnetic(args, geo: Geometry, beta: float) -> Outcome:
    operator = dmap(geo.d2, beta)
    phased = magnetic_operator(operator, _gram_phases(geo.gram.values, beta))
    pi = _normalized_degrees(rbf_kernel(geo.d2, beta).values)
    _, current = magnetic_flux(pi, phased)
    hermitized = conjugate_hermitize(phased, pi)
    hermiticity = _max_hermitian_gap(hermitized)
    eigenvalues = np.linalg.eigvalsh(hermitized)[::-1]  # eigvalsh is ascending
    results = {
        "magnitude_residual": float(np.abs(phased.magnitudes.values - operator.values).max()),
        "hermiticity_residual": hermiticity,
        "max_magnetic_current": float(np.abs(current).max()),
        "eigenvalues": [float(v) for v in eigenvalues],
    }
    matrices = {
        "magnetic_magnitude": phased.magnitudes.values,
        "magnetic_phase": phased.phases,
        "magnetic_current": current,
    }
    return Outcome(
        results,
        matrices,
        f"magnetic: N={geo.cloud.n_samples} beta={beta:.6g} "
        f"hermiticity residual {hermiticity:.3e}",
    )


def cmd_embed(args, geo: Geometry, beta: float) -> Outcome:
    operator = dmap(geo.d2, beta)
    pi = _normalized_degrees(rbf_kernel(geo.d2, beta).values)
    dec = decompose(conjugate_symmetrize(operator, pi), pi)
    embedding = diffusion_embedding(dec, t=args.t, k=args.k)
    return Outcome(
        {
            "eigenvalues": [float(v) for v in dec.eigenvalues[: args.k + 1]],
            "degenerate": dec.degenerate,
        },
        {"embedding": embedding.coordinates},
        f"embed: N={geo.cloud.n_samples} beta={beta:.6g} t={args.t:g} k={args.k} "
        f"lambda_2={dec.eigenvalues[1]:.6g}",
    )


def _format_check_line(check) -> str:
    status = "PASS" if check.passed else "FAIL"
    ok = sum(1 for p in check.parts if p["passed"])
    return f"{check.id:<4} {status}  {check.name} ({ok}/{len(check.parts)} parts)"


def cmd_verify(args, geo: Geometry, beta: float) -> Outcome:
    checks = run_identity_checks(geo.cloud, beta)
    passed = sum(1 for c in checks if c.passed)
    all_passed = passed == len(checks)
    verdict = "all identities hold" if all_passed else "verification FAILED"
    lines = [_format_check_line(c) for c in checks]
    lines.append(f"{verdict} ({passed}/{len(checks)} criteria)")
    return Outcome(
        {"checks": [c.as_dict() for c in checks], "all_passed": all_passed},
        {},
        "\n".join(lines),
        EXIT_OK if all_passed else EXIT_VERIFY_FAIL,
    )


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovgeom",
        description=(
            "Markov geometry toolkit: divergence pairs, attention and diffusion "
            "operators, entropic bridges, magnetic diffusion, and an identity "
            "verification suite."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def parent():
        return argparse.ArgumentParser(add_help=False)

    common = parent()
    common.add_argument("--input", required=True, help="point-cloud CSV, one sample per row")
    common.add_argument("--skip-header", action="store_true", help="ignore the first CSV line")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--beta", default="auto",
                        help="inverse temperature, or 'auto' for 1/median off-diagonal D^2")
    formatted = parent()
    formatted.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="csv: matrices as files; json: matrices inlined in the report")
    weighted = parent()
    weighted.add_argument("--weights", help="optional D x D interaction-weight CSV")
    tol = parent()
    tol.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    budget = parent()
    budget.add_argument("--max-iter", type=int, default=10_000, dest="max_iter",
                        help="solver iteration budget")
    marginals = parent()
    marginals.add_argument("--kernel", choices=("rbf", "attention"), default="rbf")
    marginals.add_argument("--mu-plus", required=True, dest="mu_plus",
                           help="source marginal CSV, or 'stationary'")
    marginals.add_argument("--mu-minus", required=True, dest="mu_minus",
                           help="sink marginal CSV, or 'stationary'")

    def command(name, func, parents, summary, out=None):
        """Add a subcommand; ``out`` names the one matrix that --out can move."""
        sp = subparsers.add_parser(name, parents=[common, *parents], help=summary)
        sp.set_defaults(func=func)
        if out:
            sp.add_argument("--out", help=f"path for the {out} CSV (default <out-dir>/{out}.csv)")
        return sp

    command("dmap", cmd_dmap, [formatted, weighted], "row-stochastic diffusion operator",
            out="dmap")
    command("kernel", cmd_kernel, [formatted, weighted], "Gaussian distance kernel",
            out="kernel")
    sp = command("attention", cmd_attention, [formatted, weighted, tol, budget],
                 "directional attention operator", out="attention")
    sp.add_argument("--direction", choices=("fwd", "bwd"), default="fwd")
    sp.add_argument("--bistochastic", action="store_true",
                    help="doubly stochastic scaling instead of one-sided softmax")
    command("bridge", cmd_bridge, [formatted, weighted, tol, budget, marginals],
            "entropic bridge between two marginals")
    command("classify", cmd_classify, [formatted, weighted, tol, marginals],
            "EQ/NESS/NE regime of an operator with marginals")
    sp = command("magnetic", cmd_magnetic, [formatted],
                 "phased diffusion operator from asymmetric weights")
    sp.add_argument("--weights", required=True, help="D x D interaction-weight CSV")
    sp = command("embed", cmd_embed, [formatted, weighted], "diffusion coordinates",
                 out="embedding")
    sp.add_argument("--t", type=float, default=1.0, help="diffusion time")
    sp.add_argument("--k", type=int, default=2, help="number of coordinates")
    command("verify", cmd_verify, [], "run the full identity-verification suite")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("MG_LOG_LEVEL", "warn").lower()
    level = _LOG_LEVELS.get(level_name)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; --help exits with 0
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _run(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
