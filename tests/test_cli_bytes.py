"""Byte identity of the command line: stdout, stderr and exit code.

Each invocation runs through ``ncu2.cli.main`` in-process and is pinned
by the sha256 of ``repr((stdout, stderr, rc))``.  A change to printed
canonical forms, ledgers or solver rows shows up here as the name of
the invocation whose bytes moved.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncu2.cli import main

INVOCATIONS = {
    "reduce commutator": (
        ["reduce", "x*y - y*x"],
        "03db47ec8082fc3c89a0e00759a21b9560efe156072b37c4bc62b7cd1f7b491f",
    ),
    "reduce radius json": (
        ["reduce", "--format", "json", "x^2 + y^2 + z^2"],
        "2be0bf9268bdce0579c2efc4bbe954dd4d8c5dc328494c5061cf43cec8e0bef7",
    ),
    "reduce shifted profiles": (
        ["reduce", "W(tau+hbar, rhat-hbar)*x*z - F(tau, rhat-2*hbar)*y^2/2 + tau*rhat"],
        "6c7aab58fffa9252566f6d54ee3ff1be5cfec6e4cf5daf5409ffad2e9f2036e3",
    ),
    "reduce profile product json": (
        ["reduce", "--format", "json", "W(tau, rhat)*F(tau+hbar, rhat)*z^3 + i*x"],
        "603328f784b6961b40016897b8f4bb13dc06909f4ae9218120a79b63c991a9f9",
    ),
    "derive dx": (
        ["derive", "--op", "dx", "x*y*z + rhat*x^2"],
        "17e9a64f6353e5ff4b343c23eebd4159b1bfdc4b93f8ccab4cd22fa90bbd5f5f",
    ),
    "derive dy": (
        ["derive", "--op", "dy", "y^3 - tau*x"],
        "3f64b8c3231ffb5e1e2ca108b98600d8add9c6e5ef4535a33a3149510a8e8386",
    ),
    "derive dz": (
        ["derive", "--op", "dz", "x*y"],
        "563911b1273d687b238b82273b5c563fd0e9c846fe37ab762fce27375d7aab17",
    ),
    "derive dt": (
        ["derive", "--op", "dt", "t*z + W(tau, rhat)"],
        "e1c8604ae33233747a73ffe5737eff2c597a5b63599d25f511c58fd977580110",
    ),
    "derive dtau": (
        ["derive", "--op", "dtau", "tau*rhat*x"],
        "0fc4abbdfa30bf491cc212cc61fdfbcac476363da8305077a496bf4f4c976b06",
    ),
    "derive dr": (
        ["derive", "--op", "dr", "W(tau, rhat)*x + F(tau, rhat)*z"],
        "fa186b118a37c4682ecbf51078f9df16ab49d656468e97694be7bfeece26298b",
    ),
    "derive lap": (
        ["derive", "--op", "lap", "rhat^2*x*y"],
        "af863fdf1dce8ca8d3c11767bcb50d834bf6b4ab4e78b1f7535ae742131d6300",
    ),
    "derive Q json": (
        ["derive", "--op", "Q", "--format", "json", "W(tau+hbar, rhat)*x*y"],
        "04f6801e19770570b2f96d64ab42900931f794a2658a6688efdaadbc2700abf8",
    ),
    "verify perm-table": (
        ["verify", "--suite", "perm-table"],
        "9794a39bde27387d02d8f31d5ebdc6f17c8c36ff9a24f3824daa119bf2d1742f",
    ),
    "verify ch": (
        ["verify", "--suite", "ch"],
        "ee50b99c5baeac1417a41cb7a5462fabf60e7b60eb18a77bc6bd17f0d06c8fad",
    ),
    "verify ch json": (
        ["verify", "--suite", "ch", "--format", "json"],
        "9821213ca157cc8bdd4ea8a27a68fe8cb6b4a10566b76e51c1e7a84c64368709",
    ),
    "verify leibniz seed 0": (
        ["verify", "--suite", "leibniz", "--seed", "0"],
        "c6f7d808845fa0f5e45e1b535b9c65b06c7f833c1ece6dccee6d824741a4d852",
    ),
    "verify leibniz seed 3 json": (
        ["verify", "--suite", "leibniz", "--seed", "3", "--format", "json"],
        "0ac80d578c5e9bb8b6189741537c9b118f36382bbe3bca4ffbc715f658d0e41e",
    ),
    "verify laplacian": (
        ["verify", "--suite", "laplacian"],
        "26ef354940b0d20b4dd9154d1e60b7e760c6a75fe107b4d627ba04fe6807b0be",
    ),
    "verify hedgehog": (
        ["verify", "--suite", "hedgehog"],
        "3adb273c7373ecb24340cd22f3f87242a8717c12c360ceddeafa5631869284c5",
    ),
    "verify hedgehog json": (
        ["verify", "--suite", "hedgehog", "--format", "json"],
        "76447629922ed5c419e92d84c1d44e76ea13d3cb7cd5c49aabce67854aadff12",
    ),
    "verify rep": (
        ["verify", "--suite", "rep"],
        "b76e92e6cb7773bc2f144d514bc676e551f3524dd997fa071cb5924fc12351c9",
    ),
    "solve-hedgehog csv": (
        ["solve-hedgehog", "--hbar", "1/16", "--r0", "1", "--steps", "32", "--init", "classical"],
        "a2806263ff1cbd8558625d5d1ff02aaa5ba97976816d466c9e26aa7eefc9bd90",
    ),
    "solve-hedgehog json": (
        [
            "solve-hedgehog", "--hbar", "0.125", "--r0", "2", "--steps", "10",
            "--init", "classical", "--format", "json",
        ],
        "95bb88b034592212c5187d575e7e30c906ce3ed3daebec1e0b9b530bbebc7699",
    ),
    "rep-check text": (
        ["rep-check", "--two-j", "3", "--hbar", "1/4"],
        "a4f85500dc795ce4856bbce134e235dab6e1410a2f9766c008427d25bbe8715f",
    ),
    "rep-check json": (
        ["rep-check", "--two-j", "2", "--hbar", "1/8", "--format", "json"],
        "918a66f3fc82acb964b4c51315801cb66874add7425126d78a7773f2c3dcde1b",
    ),
    "reduce syntax error": (
        ["reduce", "x*("],
        "e3f6899a5f7c9c15dc6124f6d7b7b69f5c17aea83e10a43918f70296fad4a79d",
    ),
}


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return hashlib.sha256(repr((out.getvalue(), err.getvalue(), rc)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_bytes(name):
    argv, expected = INVOCATIONS[name]
    assert _digest(argv) == expected, f"output bytes of `ncu2 {' '.join(argv)}` ({name}) changed"


# runs every invocation in a fresh interpreter and prints {name: digest}
_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("cli_bytes", sys.argv[1])
pins = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pins)
print(json.dumps({n: pins._digest(argv) for n, (argv, _) in pins.INVOCATIONS.items()}))
"""


def test_cli_bytes_under_other_hash_seeds():
    """The same bytes in processes whose str hashes, and so set and dict
    orders built from them, differ from this one's: one child per seed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    children = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        children[seed] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, __file__],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    for seed, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        got = json.loads(out)
        moved = sorted(n for n, (_, pin) in INVOCATIONS.items() if got[n] != pin)
        assert not moved, f"under PYTHONHASHSEED={seed} the bytes of {moved} changed"
