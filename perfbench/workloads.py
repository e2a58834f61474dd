"""The three benchmark workloads.

Each workload turns a seed into a fixed pool of requests, runs one
request at a time (a closed loop with a single client), and checks every
output exactly, outside the timed span unless the check is the work.
Why each workload exists, and which layer change should or should not
move it, is written up in README.md next to this file.

Every pool has a fixed *shape* and seeded *values*.  The shape (which
operator, which generator word, how many terms, which denominator, which
lattice spacing) sets the cost of a request, and costs here are skewed:
one theta-mult pair can take 30 times the median.  If the seed drew the
shape too, a run of a few dozen requests would measure the luck of the
draw more than the code.  So the shape comes from a stream with a fixed
seed and the workload seed draws the values: signed integer
coefficients, argument shifts, radii, expressions.  Ranges are never
narrowed and draws are never filtered or reordered.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction

import numpy as np

from common import BENCH_DIR, OUT_DIR, ROOT

# the fixed seed of the shape stream
SHAPE_SEED = 0


class CheckFailed(Exception):
    """An output differed from its reference."""

    def __init__(self, message, cause="mismatch"):
        super().__init__(message)
        self.cause = cause


class ShapeValueRng(random.Random):
    """Random stream whose signed-integer draws come from a second stream.

    ``identities.random_central`` draws its coefficients with
    ``randint(-4, 4)``; every other draw of the identities generators
    (term counts, degrees, variables, generator words, denominators) has
    a non-negative range.  Routing the signed draws to ``values`` keeps
    the shape of a pool fixed while the seed changes every coefficient.
    """

    def __init__(self, shape_seed, value_seed):
        super().__init__(shape_seed)
        self.values = random.Random(value_seed)
        self.value_draws = 0

    def randint(self, a, b):
        if a < 0:
            self.value_draws += 1
            return self.values.randint(a, b)
        return super().randint(a, b)


def _deg(a) -> int:
    return max((sum(m) for m in a.terms), default=0)


class Workload:
    name = ""
    # whether one untimed pass fills the package's caches before timing
    warmup = True
    # failure causes that are known defects at the baseline commit
    known_failures = frozenset()

    def make_pool(self, seed: int, size: int | None = None) -> list:
        raise NotImplementedError

    def fingerprint(self, pool) -> dict:
        raise NotImplementedError

    def prepare(self, pool) -> None:
        """Untimed work before the first pass (references)."""

    def run(self, req, tracer=None):
        """The timed request."""
        raise NotImplementedError

    def expect(self, req):
        """The reference the output is checked against."""
        raise NotImplementedError

    def check(self, idx, req, out) -> None:
        """Raise CheckFailed when ``out`` is wrong; untimed."""
        raise NotImplementedError

    def work(self, req, out) -> float:
        """Units of work the request completed, for throughput."""
        return 1.0

    def error_cause(self, req, exc) -> str:
        """The failure cause recorded for an exception the request raised."""
        return type(exc).__name__

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that does the work, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- theta-mult -----------------------------------------------------------------


class ThetaMult(Workload):
    """theta(a*b) == theta(a) @ theta(b) on pairs of random monomials."""

    name = "theta-mult"
    # eleven shapes, each drawn twice with different values: two pairs
    # (about 1.2 s and 1.0 s) take most of a pass and their cost moves by a
    # quarter with their coefficients, so one draw each would make the
    # throughput of a run depend on the seed
    shapes = 11
    draws = 2
    pool_size = shapes * draws

    def make_pool(self, seed, size=None):
        from ncu2 import identities

        size = size or self.pool_size
        pool, value_draws = [], 0
        for k in range(-(-size // self.shapes)):
            rng = ShapeValueRng(SHAPE_SEED, f"{seed}:{k}")
            for _ in range(min(self.shapes, size - len(pool))):
                pool.append((identities.random_monomial_element(rng), identities.random_monomial_element(rng)))
            value_draws += rng.value_draws
        if not value_draws:
            raise RuntimeError("identities generators drew no signed coefficients")
        return pool

    def fingerprint(self, pool):
        degs = collections.Counter()
        terms = collections.Counter()
        dens = collections.Counter()
        for pair in pool:
            for e in pair:
                degs[_deg(e)] += 1
                for c in e.terms.values():
                    terms[len(c.num)] += 1
                    dens[len(c.den)] += 1
        return {
            "requests": len(pool),
            "degree_hist": dict(sorted(degs.items())),
            "numerator_terms_hist": dict(sorted(terms.items())),
            "denominator_factors_hist": dict(sorted(dens.items())),
            "op_mix": {"theta-mult": len(pool)},
        }

    def run(self, req, tracer=None):
        from ncu2 import theta as th

        a, b = req
        return th.theta(a * b) == self.expect(req)

    def expect(self, req):
        from ncu2 import theta as th

        a, b = req
        return th.theta(a) @ th.theta(b)

    def check(self, idx, req, out):
        if out is not True:
            raise CheckFailed("theta(a*b) != theta(a) @ theta(b)")


# -- cli-session ----------------------------------------------------------------

CLI_SHAPES = (
    "reduce",
    "derive",
    "verify-ch",
    "reduce",
    "verify-perm-table",
    "solve-hedgehog",
    "derive",
    "verify-hedgehog",
    "rep-check",
)
CLI_CHILD = BENCH_DIR / "cli_child.py"
CLI_TIMEOUT_S = 120


def _cli_expr(rng, max_word):
    """A random expression in the ncu2 grammar."""
    out = ""
    for k in range(rng.randint(1, 3)):
        parts = [
            rng.choice(("", "2", "3/4", "i", "hbar", "tau", "(rhat - hbar)", "(tau + 2*hbar)")),
            rng.choice(("", "", "W(tau+hbar, rhat-hbar)", "F(tau, rhat+2*hbar)")),
        ]
        parts += [rng.choice("xyz") for _ in range(rng.randint(0, max_word))]
        term = "*".join(p for p in parts if p) or "1"
        if rng.random() < 0.25:
            term += rng.choice(("/rhat", "/(rhat + hbar)"))
        out += term if k == 0 else rng.choice((" + ", " - ")) + term
    return out


class CliSession(Workload):
    """One fresh ncu2 process per command, one command at a time."""

    name = "cli-session"
    warmup = False
    pool_size = len(CLI_SHAPES)

    def __init__(self):
        self._expected = {}
        self._child_rss_kb = 0

    def peak_rss_kb(self):
        # the largest CLI child; set-up probes are children too and do not count
        return self._child_rss_kb

    def make_pool(self, seed, size=None):
        rng = random.Random(seed)
        pool = []
        for k in range(size or self.pool_size):
            shape = CLI_SHAPES[k % len(CLI_SHAPES)]
            if shape == "reduce":
                argv = ["reduce", _cli_expr(rng, 4)]
            elif shape == "derive":
                op = rng.choice(("dx", "dy", "dz", "dt", "dtau", "dr", "lap", "Q"))
                argv = ["derive", "--op", op, _cli_expr(rng, 2)]
            elif shape.startswith("verify-"):
                argv = ["verify", "--suite", shape[len("verify-"):], "--seed", str(rng.randrange(1000))]
            elif shape == "solve-hedgehog":
                argv = [
                    "solve-hedgehog",
                    "--hbar", rng.choice(("1/64", "1/128", "1/256")),
                    "--r0", str(Fraction(rng.randint(8, 16), 8)),
                    "--steps", "1000",
                    "--init", "classical",
                ]
            else:
                argv = [
                    "rep-check",
                    "--two-j", str(rng.randint(1, 6)),
                    "--hbar", rng.choice(("1/4", "1/8", "3/10", "1/2")),
                ]
            pool.append(argv)
        return pool

    def fingerprint(self, pool):
        mix = collections.Counter(
            argv[0] + (f":{argv[2]}" if argv[0] in ("verify", "derive") else "") for argv in pool
        )
        return {
            "requests": len(pool),
            "op_mix": dict(sorted(mix.items())),
            "expr_chars_hist": dict(
                sorted(collections.Counter(len(a[-1]) // 10 * 10 for a in pool if a[0] in ("reduce", "derive")).items())
            ),
        }

    def prepare(self, pool):
        for argv in pool:
            key = tuple(argv)
            if key not in self._expected:
                self._expected[key] = self.expect(argv)

    def run(self, req, tracer=None):
        cmd = [sys.executable, str(CLI_CHILD)]
        trace_path = None
        OUT_DIR.mkdir(exist_ok=True)
        if tracer is not None:
            trace_path = OUT_DIR / "cli-child-trace.json"
            cmd += ["--trace", str(trace_path)]
        with tempfile.TemporaryFile("w+", dir=OUT_DIR) as out, tempfile.TemporaryFile("w+", dir=OUT_DIR) as err:
            proc = subprocess.Popen(cmd + ["--", *req], cwd=ROOT, stdout=out, stderr=err, text=True)
            # os.wait4, not Popen.wait: it also returns the child's own peak RSS
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self._child_rss_kb = max(self._child_rss_kb, usage.ru_maxrss)
        if trace_path is not None and trace_path.exists():
            tracer.merge(json.loads(trace_path.read_text()))
            trace_path.unlink()
        return proc.returncode, stdout, stderr

    def expect(self, argv):
        from ncu2 import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a command
                rc = exc.code
        return rc, buf.getvalue()

    def check(self, idx, req, out):
        rc, stdout, stderr = out
        exp_rc, exp_out = self._expected.get(tuple(req)) or self.expect(req)
        if exp_rc != 0:
            raise CheckFailed(f"in-process reference exited {exp_rc}")
        if rc != exp_rc:
            raise CheckFailed(f"exit code {rc}: {stderr.strip()[-200:]}")
        if stdout != exp_out:
            raise CheckFailed("stdout differs from the in-process result")
        if req[0] == "solve-hedgehog":
            rows = len(stdout.splitlines()) - 1  # CSV header
            if rows != int(req[req.index("--steps") + 1]) + 1:
                raise CheckFailed(f"solve-hedgehog printed {rows} rows")


# -- lattice --------------------------------------------------------------------

LATTICE_H = tuple(2.0**-k for k in range(4, 9))
LATTICE_STRATA = 16
LATTICE_R_LO, LATTICE_R_HI = 4.0, 40.0
LATTICE_TOL = 1e-2
# Where the march leaves the profile and where it turns singular at the
# baseline commit, for r0 = 1 (the smallest radii over r0 in [1, 2]; see
# BASELINE.md).  A failure counts as known only at or beyond these radii,
# less LATTICE_MARGIN; one nearer the seed is a wrong output.
LATTICE_DEPARTS = {2.0**-4: 17.8, 2.0**-5: 20.0, 2.0**-6: 22.3, 2.0**-7: 24.6, 2.0**-8: 26.9}
LATTICE_SINGULAR = {2.0**-4: 24.1, 2.0**-5: 26.2, 2.0**-6: 28.3, 2.0**-7: 30.6, 2.0**-8: 32.8}
LATTICE_MARGIN = 0.5


class Lattice(Workload):
    """hedgehog.march solves checked against the classical BPS profile."""

    name = "lattice"
    warmup = False
    pool_size = len(LATTICE_H) * LATTICE_STRATA
    # the baseline march leaves the classical profile at r ~ 17-27
    # depending on h and later hits a singular step
    known_failures = frozenset({"diverged", "SingularStepError"})

    def make_pool(self, seed, size=None):
        # h cycles through the five spacings and r_max through sixteen
        # equal strata of [4, 40]; the seed draws r0 in [1, 2] and r_max
        # within its stratum
        rng = random.Random(seed)
        width = (LATTICE_R_HI - LATTICE_R_LO) / LATTICE_STRATA
        pool = []
        for k in range(size or self.pool_size):
            h = LATTICE_H[k % len(LATTICE_H)]
            stratum = (k // len(LATTICE_H)) % LATTICE_STRATA
            r0 = 1.0 + rng.random()
            r_max = LATTICE_R_LO + width * (stratum + rng.random())
            pool.append((h, r0, max(2, round((r_max - r0) / h))))
        return pool

    def fingerprint(self, pool):
        hs = collections.Counter(f"2^-{round(-np.log2(h))}" for h, _, _ in pool)
        rmax = collections.Counter(int(r0 + h * n) // 5 * 5 for h, r0, n in pool)
        return {
            "requests": len(pool),
            "op_mix": dict(sorted(hs.items())),
            "r_max_hist": dict(sorted(rmax.items())),
            "nodes_per_pass": int(sum(n + 1 for _, _, n in pool)),
        }

    def run(self, req, tracer=None):
        from ncu2 import hedgehog

        h, r0, steps = req
        return hedgehog.march(hedgehog.classical_seed(r0, h), h, r0, steps)

    def expect(self, req):
        h, r0, steps = req
        r = r0 + h * np.arange(steps + 1)
        # vectorised bps_profile: W = (K-1)/r^2, F = -H/r^2
        K = r / np.sinh(r)
        Hh = r / np.tanh(r) - 1.0
        return (K - 1.0) / (r * r), -Hh / (r * r)

    def check(self, idx, req, out):
        w_ref, f_ref = self.expect(req)
        with np.errstate(all="ignore"):
            err = np.maximum(np.abs(out.W - w_ref), np.abs(out.F - f_ref))
        bad = np.flatnonzero(~(err <= LATTICE_TOL))
        if bad.size:
            h, r = req[0], out.r[int(bad[0])]
            cause = "diverged" if r >= LATTICE_DEPARTS[h] - LATTICE_MARGIN else "mismatch"
            raise CheckFailed(f"{cause} at r = {r:.2f} (h = {h:g})", cause)

    def work(self, req, out):
        return float(len(out.r))

    def error_cause(self, req, exc):
        from ncu2.hedgehog import SingularStepError
        from spans import NODE_RE

        cause = type(exc).__name__
        if not isinstance(exc, SingularStepError):
            return cause
        h, r0, _ = req
        m = NODE_RE.search(str(exc))
        if m and r0 + h * int(m.group(1)) >= LATTICE_SINGULAR[h] - LATTICE_MARGIN:
            return cause
        return f"early-{cause}"


WORKLOADS = {w.name: w for w in (ThetaMult, CliSession, Lattice)}
