"""Workload generators, operations and correctness gates.

Every input is generated here from the seed, so that no edit to the package
or to its tests can change a workload; the package receives only the
generated inputs.  README.md says why each workload was chosen.

A workload's constructor is its set-up (inputs generated and validated); its
``ops`` are one pass of closed-loop operations, and every timed phase runs
at least ``PASSES`` passes, whose latencies give the timings.  ``summarize``
keeps what the gate needs from one output, so that memory does not grow with
the number of operations run, and ``check`` compares a summary with an
independent reference, outside the timed phase.
"""

import functools
import math
import os
import subprocess
import sys

import numpy as np

from rank1spec import direct, errors, inverse, model, oracle

# digits reported for an operation whose deviation from the reference is 0
ACCURACY_CAP = 16.0
# winding quadrature every workload starts from (LocalizeOptions().quad)
BASE_QUAD = direct.LocalizeOptions().quad


def periodic_base():
    """lambda_n = n over the integers, gap 1 (the paper's worked example)."""
    return model.BaseSpectrum(
        index_kind="Z", head_offset=0, head=(), tail=model.AffineTail(1.0, 0.0), gap=1.0
    )


def power_coefficients(beta, window):
    """c_n = |n|^(-2 beta) with c_0 = 0: explicit head on |n| <= window, power tails."""
    idx = np.arange(-window, window + 1)
    vals = np.where(idx == 0, 0.0, np.maximum(np.abs(idx), 1).astype(float) ** (-beta))
    a = vals.astype(complex)
    a[idx == 0] = 1.0  # a_0 = 1, b_0 = 0: c_0 = 0 without a degenerate index
    tail = model.PowerTail(beta=beta, scale=1.0, phase=0.0)
    return model.PerturbationCoefficients(
        a_head_offset=-window,
        a_head=tuple(a),
        a_tail=tail,
        b_head_offset=-window,
        b_head=tuple(vals.astype(complex)),
        b_tail=tail,
    )


def random_finite_coefficients(rng, m, radius=40, c_cap=0.3):
    """Zero-tail instance: m complex c_n, |c_n| <= c_cap, on |n| <= radius.

    a_n = 1 on the whole head window, so no explicit index degenerates.
    """
    support = rng.choice(np.arange(-radius, radius + 1), size=m, replace=False)
    mags = rng.uniform(0.02, c_cap, size=m)
    phases = rng.uniform(0, 2 * np.pi, size=m)
    c = {int(n): complex(v) for n, v in zip(support, mags * np.exp(1j * phases))}
    lo, hi = min(c), max(c)
    return model.PerturbationCoefficients(
        a_head_offset=lo,
        a_head=tuple(1.0 + 0.0j for _ in range(lo, hi + 1)),
        a_tail=None,
        b_head_offset=lo,
        b_head=tuple(c.get(n, 0.0j) for n in range(lo, hi + 1)),
        b_tail=None,
    )


def random_target(rng, m, radius=8):
    """Target moving m eigenvalues n -> n + U(-1/4, 1/4) + i U(-1/5, 1/5)."""
    moved = sorted(int(n) for n in rng.choice(np.arange(-radius, radius + 1), m, replace=False))
    head = []
    for n in range(moved[0], moved[-1] + 1):
        if n in moved:
            head.append(complex(n + rng.uniform(-0.25, 0.25), rng.uniform(-0.2, 0.2)))
        else:
            head.append(complex(n))
    return model.TargetSpectrum(moved[0], tuple(head))


def finite_points(j):
    """Terms of the j-th zero-tail instance: 2..8, in turn, so that every seed
    draws the same mix of sizes and only positions and values vary."""
    return 2 + j % 7


def import_probe():
    """Run a fresh ``python -c "import rank1spec"`` (timed as the cli.import span)."""
    proc = subprocess.run([sys.executable, "-c", "import rank1spec"], capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.decode(errors='replace')}")


def _dense_reference(spec, coeffs, radius):
    return oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, radius))


def _finite_tol(ref):
    return 1e-8 * (1.0 + float(np.max(np.abs(ref))))


class PowerDecay:
    """localize_spectrum + assemble_spectrum on the power family at three windows."""

    name = "power_decay"
    WINDOWS = (50, 100, 200)
    # n_trunc = w + 50: the whole head and 50 tail indices on each side are
    # explicit terms, the rest is the bounded tail.  Criteria 3/4 use
    # n_trunc = 600, whose pass of 20-35 s leaves no room to time each window
    # more than once; this pass takes 6-9 s.
    TRUNC_MARGIN = 50
    REF_RADIUS = 300
    TOL = 1e-8
    PASSES = 2

    def __init__(self, seed, workdir):
        # the power family has no random part: every seed gives the same inputs
        self.spec = model.validate_base(periodic_base())
        self.coeffs = [power_coefficients(2.0, w) for w in self.WINDOWS]
        self.validate()
        self.ops = [
            (f"w{w}", functools.partial(self._solve, c, w)) for w, c in zip(self.WINDOWS, self.coeffs)
        ]
        self._refs = {}

    def validate(self):
        self.coeffs = [model.validate_coefficients(c, self.spec) for c in self.coeffs]

    def _solve(self, coeffs, window):
        opts = direct.LocalizeOptions(window=window, n_trunc=window + self.TRUNC_MARGIN)
        loc = direct.localize_spectrum(self.spec, coeffs, opts)
        return direct.assemble_spectrum(self.spec, coeffs, loc), loc

    def reference(self, i, window):
        if i not in self._refs:
            self._refs[i] = _dense_reference(self.spec, self.coeffs[i], self.REF_RADIUS)
        return self._refs[i]

    @staticmethod
    def summarize(output):
        ps, loc = output
        # the paper's enclosure: one simple zero per outer disk, and the
        # central rectangle holds as many zeros as I1 has indices in |n| <= K'
        disks = [r for r in loc.reports if r.region_index is not None]
        disks_ok = all(r.certified and len(r.zeros) == 1 and r.zeros[0][1] == 1 for r in disks)
        central = sum(o for r in loc.reports if r.region_index is None for _, o, _ in r.zeros)
        zeros = np.array([z for z, _, _ in loc.all_zeros()], dtype=complex)
        return ps.certified and disks_ok, zeros, central, loc.k_prime

    def check(self, i, summary):
        ok, zeros, central, k_prime = summary
        ref = self.reference(i, None)
        dev = float(np.max(np.min(np.abs(zeros[:, None] - ref[None, :]), axis=1)))
        _, i1 = self.coeffs[i].partition(self.spec.window_indices(k_prime))
        return ok and central == len(i1), dev, self.TOL


class FiniteBatch:
    """solve_direct on seeded random zero-tail instances."""

    name = "finite_batch"
    COUNT = 50
    PASSES = 16
    OPTS = direct.LocalizeOptions(window=41, n_trunc=49)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.spec = model.validate_base(periodic_base())
        self.coeffs = [random_finite_coefficients(rng, finite_points(j)) for j in range(self.COUNT)]
        self.validate()
        self.ops = [(f"i{j}", functools.partial(self._solve, c)) for j, c in enumerate(self.coeffs)]
        self._refs = {}

    def validate(self):
        self.coeffs = [model.validate_coefficients(c, self.spec) for c in self.coeffs]

    def _solve(self, coeffs):
        return direct.solve_direct(self.spec, coeffs, self.OPTS)

    def reference(self, i, window):
        key = (i, window)
        if key not in self._refs:
            self._refs[key] = _dense_reference(self.spec, self.coeffs[i], window)
        return self._refs[key]

    @staticmethod
    def summarize(output):
        ps, loc = output
        return ps.certified, ps.eigenvalues(), loc.window

    def check(self, i, summary):
        certified, eigenvalues, window = summary
        ref = self.reference(i, window)
        tol = _finite_tol(ref)
        _, worst = oracle.compare_spectra(eigenvalues, ref, tol)
        return certified, worst, tol


class Roundtrip:
    """Inverse then direct: solve_inverse, check_F_equals_product, validate, solve_direct."""

    name = "roundtrip"
    COUNT = 100
    PASSES = 16
    OPTS = direct.LocalizeOptions(window=12, n_trunc=40)
    TOL = 1e-8

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.spec = model.validate_base(periodic_base())
        self.targets = [
            model.TargetSpectrum(0, (0.5 + 0j, 0.5 + 0j)),  # double point
            model.TargetSpectrum(0, (1.0 + 0.25j,) * 3),  # triple point
        ]
        self.targets += [random_target(rng, 1 + j % 10) for j in range(self.COUNT - 2)]
        self.validate()
        self.ops = [(f"t{j}", functools.partial(self._roundtrip, t)) for j, t in enumerate(self.targets)]

    def validate(self):
        self.targets = [model.validate_target(t, self.spec) for t in self.targets]

    def _roundtrip(self, target):
        coeffs, pf = inverse.solve_inverse(self.spec, target)
        inverse.check_F_equals_product(coeffs, pf, inverse.default_sample_points(self.spec, pf))
        coeffs = model.validate_coefficients(coeffs, self.spec)
        return direct.solve_direct(self.spec, coeffs, self.OPTS)

    def reference(self, i, window):
        return np.atleast_1d(self.targets[i].nu_at(self.spec.window_indices(window), self.spec))

    summarize = staticmethod(FiniteBatch.summarize)

    def check(self, i, summary):
        certified, eigenvalues, window = summary
        _, worst = oracle.compare_spectra(eigenvalues, self.reference(i, window), self.TOL)
        return certified, worst, self.TOL


class CliCold:
    """Cold ``rank1spec direct`` subprocesses on finite_batch instances written as JSON."""

    name = "cli_cold"
    COUNT = 4
    PASSES = 6
    OPTS = FiniteBatch.OPTS

    def __init__(self, seed, workdir, count=COUNT):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.spec = model.validate_base(periodic_base())
        # the first ``count`` instances of finite_batch for the same seed
        self.coeffs = [random_finite_coefficients(rng, finite_points(j)) for j in range(count)]
        self.validate()
        self.spec_path = os.path.join(workdir, "spec.json")
        model.dump_json(model.base_to_json(self.spec), self.spec_path)
        self.coeff_paths = []
        for j, c in enumerate(self.coeffs):
            path = os.path.join(workdir, f"coeffs_{j}.json")
            model.dump_json(model.coefficients_to_json(c), path)
            self.coeff_paths.append(path)
        # looked up per call, so that a wrapper installed on the class is seen
        self.ops = [(f"i{j}", lambda j=j: self.run_cli(j)) for j in range(count)]
        self._runs = 0
        self._solved = {}

    def validate(self):
        self.coeffs = [model.validate_coefficients(c, self.spec) for c in self.coeffs]

    def run_cli(self, j):
        """One cold CLI process; returns (exit code, output path)."""
        out = os.path.join(self.workdir, f"out_{self._runs}.json")
        self._runs += 1
        cmd = [
            sys.executable, "-m", "rank1spec.cli", "direct",
            "--spec", self.spec_path, "--coeffs", self.coeff_paths[j],
            "--trunc", str(self.OPTS.n_trunc), "--trunc-window", str(self.OPTS.window),
            "--out", out,
        ]  # fmt: skip
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=120)
        except subprocess.TimeoutExpired:
            return None, out
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode, out

    def reference(self, i, window):
        return _dense_reference(self.spec, self.coeffs[i], window)

    @staticmethod
    def summarize(output):
        return output

    def check(self, i, summary):
        code, path = summary
        if code != 0:
            return False, None, 0.0
        doc = model.load_json(path)
        if i not in self._solved:
            self._solved[i] = direct.solve_direct(self.spec, self.coeffs[i], self.OPTS)
        ps, loc = self._solved[i]
        same = doc == model.spectrum_to_json(ps)
        mus = [complex(*e["mu"]) for e in doc["entries"] for _ in range(e["mult"])]
        ref = self.reference(i, loc.window)
        tol = _finite_tol(ref)
        _, worst = oracle.compare_spectra(mus, ref, tol)
        return same and doc["certified"], worst, tol


WORKLOADS = {cls.name: cls for cls in (PowerDecay, FiniteBatch, Roundtrip, CliCold)}


class Verdict:
    """Outcome of the correctness gate over a list of operation results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self.digits = math.inf
        self.messages = []

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def add(self, label, ok, dev, tol):
        self.attempted += 1
        if dev is not None:
            self.max_dev = max(self.max_dev, dev)
            digits = math.log10(tol / dev) if dev > 0 else ACCURACY_CAP
            self.digits = min(self.digits, digits, ACCURACY_CAP)
        if not ok or dev is None or not dev <= tol:
            self.failed += 1
            self.messages.append(f"{label}: ok={ok} deviation={dev} tol={tol}")


def verify(workload, results, verdict=None):
    """Gate every (index, summary) in results, into ``verdict`` or a new one.

    An operation that raised ``Rank1Error`` is stored as the exception
    instance and counts as failed, as does one whose check raises it.
    """
    verdict = Verdict() if verdict is None else verdict
    for i, output in results:
        label = workload.ops[i][0]
        try:
            if isinstance(output, errors.Rank1Error):
                raise output
            ok, dev, tol = workload.check(i, output)
        except errors.Rank1Error as exc:
            ok, dev, tol = False, None, 0.0
            label = f"{label}: {type(exc).__name__}: {exc}"
        verdict.add(label, ok, dev, tol)
    return verdict
