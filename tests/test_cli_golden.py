"""Golden CLI output: byte-identical stdout for fixed command lines.

Each command line below is pinned to the SHA-256 of its stdout, recorded
before the Pochhammer products were routed through `wcore.pochm`.  A change
that only restructures the arithmetic must leave every digest as it is; a
change that is meant to alter output has to update the digest and say why.

The argparse surface (every help text and usage error) is pinned the same
way, run in a fresh interpreter at a fixed terminal width: the digests were
recorded before the parser started to give arguments only to the subparser
that the command line names.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import qtspecials

from qtspecials.cli import main

PT = ("--q", "1/2", "--t", "1/3")

GOLDEN = [
    (("binom", "--lambda", "3,1", "--mu", "2,0", *PT),
     "ab102f31366d46e7a534ec02122ec1b1d59fc4699ce625331f53916947cd5a5a"),
    (("binom", "--lambda", "4,2", "--mu", "2,1", "--alpha", "2"),
     "0ffe620734c529029ff929112835cc5ed52c145773f3a34b49dbcdd3c7c78201"),
    (("binom", "--lambda", "3,2,1", "--mu", "2,1,0", *PT),
     "62be017811742d1b2218fdbdbb156cf54f426d432deef223948cd508e5a4f866"),
    (("stirling", "--kind", "first", "--bound", "2,1", *PT),
     "40bd627b7f33a979af3da728774a53af595be8ac9d5c7a51c16c79de22d8b0ee"),
    (("stirling", "--kind", "second", "--bound", "2,1", *PT, "--format", "csv"),
     "4d9ee5270eb90102de6665a522c513ed8a59c64e0a53e39604e67581a24a705a"),
    (("stirling", "--kind", "second", "--bound", "2,1,1", "--q", "2/7",
      "--t", "5/11"),
     "bdb2674841e74264df5a7eb04c9723540346ee3e1cc6dff4a2cee0a67584f9ad"),
    (("catalan", "--bound", "5", "--alpha", "1"),
     "733ea0bc7454f74204739052544fd578efebb0a1485b08aa4573c197eff36d7e"),
    (("catalan", "--lambda", "2,1", *PT),
     "e364ca3395c35638c26cb9a2aeba1aa7ec8bc89eaf8a7ad00fd2b92718ab84b9"),
    (("bernoulli", "--bound", "2,2", "--alpha", "2"),
     "eb0c0ff8caadf669056560a2fbe4f64812521220f586e1bba3c47fbc5286c306"),
    (("bell", "--bound", "2,1", *PT),
     "ff9dd1cbcee4248b4dbefb1cf3d5736739ac51f42abc7723eab390ee166f0447"),
    (("bell", "--bound", "3", "--alpha", "1"),
     "ca06a8f752b7ca67ccb19326c2f90003f36597f0c4f8bd51fe1289ca9011b547"),
    (("fibonacci", "--bound", "3,1", *PT, "--format", "csv"),
     "192e4d63e0e436bd2754efc0a3334004fc9465254c45ed80a56f290d9794de94"),
    (("density", "--kind", "g", "--lambda", "2,1", "--z", "1/5", *PT),
     "c94e586eb0e4e78c8ce0bd90c4c9f3699ec7edd7c8cb225db0adb501dacf19c5"),
    (("density", "--kind", "f", "--lambda", "2,1", "--z", "1/5", *PT),
     "a0a307cfab9f50a38678be8dc87773f51d3c959a76d6b19a308d7c56c30a8085"),
    (("density", "--kind", "poisson", "--n", "2", "--z", "1/20", *PT,
      "--part-cap", "6", "--trunc", "30"),
     "40235206cae8e8c2ac1b5e3063058da7f228983d90adcfad592c75853dcc1a27"),
    (("sample", "--kind", "g", "--lambda", "2,1", "--z", "1/5", *PT,
      "--count", "20", "--seed", "3"),
     "47abf528078a17e57b223430b3abf77892385578072d09d8d1c1d4e509185665"),
    (("exp", "--n", "2", "--z", "1/10", *PT, "--part-cap", "8", "--trunc", "25"),
     "4c62abe207db065c5adaebcf488f1fa737fd9ac329940cf3af85f4d852fe7b34"),
    (("exp", "--n", "3", "--z", "1/20", *PT, "--part-cap", "4", "--trunc", "20"),
     "5af606a2b9cb26c4c7c0fa1fcdd68a33c56901267456c327f3a1644383b1b094"),
    (("verify", "--bound", "2,1", "--points", "1", "--seed", "3"),
     "424faf5b248e65261983cd3d59982707d9f97d81e3edd2040ae0413310669ca6"),
    # recorded before the alpha paths moved onto one shared t=q^alpha mode
    (("stirling", "--kind", "first", "--bound", "3", "--alpha", "1"),
     "4d2a121b7c59a5f30653fc608d45d03bc590e1ba212fe74161ef150432f480a1"),
    (("stirling", "--kind", "second", "--bound", "4", "--alpha", "2"),
     "db20791359f6eb7deab99f7df7110f1f73a58b081df71e84ec10aaac3c686712"),
    (("fibonacci", "--bound", "4", "--alpha", "1"),
     "1c69d2eb4f4a7a25782540660207faffc470fbe23af2d28659042c2241b747fc"),
    # recorded while bernoulli --alpha still solved its recurrence in formal q
    (("bernoulli", "--bound", "3,2", "--alpha", "1"),
     "10a4e63d497eec45188616757f3128600f24f5844ed123dd7cae496be2ee8329"),
    (("bernoulli", "--bound", "3,2", "--alpha", "2"),
     "a5969e8f6aa9d778c86f047934497d78d3c1945ef2d228858f8b25b30633dd5d"),
    # recorded before the library's sums went through one exact sum: the
    # three-part Stirling, change-of-basis and bracket-expansion sums, and
    # a formal-mode sum of two parts
    (("verify", "--bound", "3,2,1", "--points", "1", "--seed", "3"),
     "15c398e506f912bfbdf2d60cd49157430eb0670003bde7db70d0aa4fc5091085"),
    (("fibonacci", "--bound", "2,2", "--alpha", "2"),
     "ec4d000cc7df4d0b2d731af034d433cfbd90fbc5f87fc410c20c63611e48c764"),
    # recorded before every factor 1 - c q^a t^b came from wcore.pochm: the
    # Catalan brackets, the term walk at a negative q, the walk's (z; q, t)_mu
    # rows, and a three-part Stirling prefactor
    (("catalan", "--bound", "3,3", "--alpha", "2"),
     "7674598d42d0734204a846a89412fb7a684fbe3a0c3d6cbdd4154a0eb19fee81"),
    (("exp", "--n", "3", "--z", "1/20", "--q=-1/3", "--t", "7/5", "--part-cap", "8"),
     "18230a870a2ba6f884a80b4a826b1bc36ad5dd5a454a5758d453ef6a7d3b8d86"),
    (("density", "--kind", "poisson", "--n", "3", "--z", "1/30", "--q", "1/3", "--t", "1/2",
      "--part-cap", "6"),
     "84ee02d033f537e5ec96e33d21f6d48f4e0e9c5e59052b51cc69e9164ffdbac9"),
    (("stirling", "--kind", "first", "--bound", "2,2,1", "--q", "2/7", "--t", "5/11"),
     "d66835b2cc99347ac33c5d1df3ef7a7f8de40a3055cf15fcac139926759c1aa8"),
    # recorded while the point side of the Stirling sum still built v from
    # the s_up family: second-kind tables at n >= 2, at two points
    (("stirling", "--kind", "second", "--bound", "3,2,1", "--q", "2/7", "--t", "5/11"),
     "9172e8c1174aa3814b7db2d49a9d376592de6b241a9f9e72cad9ff6499f8e8c9"),
    (("bell", "--bound", "2,2,1", "--q", "2/7", "--t", "5/11"),
     "9a4d43c883cec6677588c843c70b54bead256d0d1b7297c41a092b30ee755c68"),
    (("stirling", "--kind", "second", "--bound", "2,2", "--q=-3/5", "--t", "7/4"),
     "dc74741f64ca9a31dfc02aedb11c03801c7f25b93aaf6a2a0bd02c2b89ca4374"),
    # recorded while the Stirling inner limits were still taken of the formal
    # u family; at t = -2 and t = -1/2 the one-box recursion has pairs with
    # D = 0, which take the formal binomial limit instead
    (("stirling", "--kind", "first", "--bound", "3,2,1", "--q", "2/7", "--t=-2"),
     "b39cb43955e90f1836bad1183f370b0c93e811708afc86fde3efbeb7e5ffda0f"),
    (("stirling", "--kind", "second", "--bound", "3,2,1", "--q", "2/7", "--t=-1/2"),
     "95bf6bcd1a0d5c9f7a33f64962748f54d4861ae99c25d5120008a1b8dba38d1d"),
    (("bell", "--bound", "2,2,1", "--q", "2/7", "--t=-2"),
     "37f935f66c662c431b012f98a11900cfcc3556ab770a159dbd2efedd2a748d77"),
    # recorded while u's inner limits were still solved from v's; with the
    # two above they cover both kinds at t = -2 and t = -1/2
    (("stirling", "--kind", "second", "--bound", "3,2,1", "--q", "2/7", "--t=-2"),
     "b0961ceb8f90c49e4492c3479371f2d9553028f026594ef10546f48ec9ed5110"),
    (("stirling", "--kind", "first", "--bound", "3,2,1", "--q", "2/7", "--t=-1/2"),
     "987b76882a023714b0f5d00b0dc5c84e393cba34ace8a7b3da92d454fe08284f"),
    # recorded while every weak-cocycle and 2phi1 check still took its own
    # W^ab slots and W^ab_mu(q^lam t^delta) lookups and formatted its
    # parameters when built: the bound of the suite benchmark
    (("verify", "--bound", "3,3,3", "--points", "1", "--seed", "1"),
     "99712218ef32b090a63cc812cae7d386904c842eed668ad2be93746ffccd16e7"),
    # recorded while the alpha-binomials and alpha-Bernoulli numbers were
    # still the limits of formal qt-binomials in t = q^alpha
    (("bernoulli", "--bound", "6,5,4", "--alpha", "2"),
     "2272481ca70b02840b3f7790abc178955096039494583eb4a46e1d5fa897cd99"),
    (("binom", "--lambda", "6,5,4,3", "--mu", "3,2,1,0", "--alpha", "2"),
     "2b237d307dbdcc662f17de611b4c5b3c1fa5f5ab02a739ae2e17cf258ec4957a"),
    (("binom", "--lambda", "4,3,2,1", "--mu", "2,1,1,0", "--alpha", "3"),
     "a084ed108778c0ca0cb2f1580094aa90a46d61105bd6fd078e04e9e076f69eb0"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# reads a JSON list of argvs on stdin; prints "<exit code> <stdout digest>" per argv
GOLDEN_CHILD = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from qtspecials.cli import main
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def _python310_candidates():
    """python3.10 on PATH, then that of the newest 3.10.x pyenv has installed
    (a pyenv shim on PATH fails when no 3.10 is selected)."""
    yield shutil.which("python3.10")
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return
    bare = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True)
    found = [v for v in bare.stdout.split() if re.fullmatch(r"3\.10\.\d+", v)]
    if found:
        newest = max(found, key=lambda v: int(v.split(".")[2]))
        prefix = subprocess.run([pyenv, "prefix", newest], capture_output=True, text=True)
        yield os.path.join(prefix.stdout.strip(), "bin", "python3.10")


def _python310():
    """The first candidate that starts and is 3.10, or None."""
    for exe in _python310_candidates():
        if exe is None or not os.path.isfile(exe):
            continue
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                               capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return exe
    return None


def test_golden_stdout_on_the_oldest_supported_python():
    """pyproject.toml declares requires-python >= 3.10: every golden command
    line prints the same bytes under 3.10, all in one child interpreter."""
    exe = _python310()
    if exe is None:
        pytest.skip("no working python3.10 on PATH or in pyenv")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtspecials.__file__)))
    proc = subprocess.run([exe, "-c", GOLDEN_CHILD], env=env, capture_output=True, text=True,
                          input=json.dumps([list(argv) for argv, _ in GOLDEN]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 {digest}" for _, digest in GOLDEN]


ARGPARSE_GOLDEN = [
    (("--help",), "aa3cfcc4d98d2660d83027dae8aa53116f7fc65ce2fc5de77c0f2c76d7e84cfe"),
    (("binom", "--help"), "6f3bae990e1ba696560d4264258e7c815a2725d79982ba98c18ba8f7e1d66942"),
    (("stirling", "--help"), "4729e91a38630809dd7f6b8ecc7f4560b303d1942e779fa2bea9952fba768533"),
    (("bernoulli", "--help"), "8bd35f3ca242282291e4b191be6fa45f3673c8306d2cf88886ce2710fc656a44"),
    (("bell", "--help"), "5079347274aa1be3d890039e25f767404cb4cce8053804963f3bfe309c24ad09"),
    (("catalan", "--help"), "e455fa6ca94c6f767971a6fdb363f0a752094f5eb7776fef83e1c6e3153d8b20"),
    (("fibonacci", "--help"), "a4407a497e0285af11d5c11fdf95472d6ecfa9beeeb906f49e500070ba71af78"),
    (("verify", "--help"), "7f273b6b2060f837b344c6de5ad717ff26c99cca38bf665665126d41f8dbb894"),
    (("density", "--help"), "622895e3033f2c2dbdf299a1989f8b43c970339bb0ec75bb18705d14b78717cd"),
    (("sample", "--help"), "eac8760728d43b358a577a8411e8c603c1e3ecc115830bfaabfe4fcdf5bf0c43"),
    (("exp", "--help"), "320258e8a55af283284c38a9eaa925509e6e97cd7e80e14ecc97ccbe6897d6ba"),
    ((), "03b47661158ca4c3743d9c0456ddf5b43ded44383ff45c6e4a82c30a1b097cc3"),
    (("foo",), "9ff9ae7c609fd1ddc0e79b2a2aec579427bef2aada8d1fbbe5ecbdea032c41be"),
    (("bin", "--lambda", "2", "--mu", "1"),
     "839dfbeab66d1cf555d2454a528ea5fd4351df6bfc57faf32a970dd13bbda1d1"),
    (("binom", "--lambda", "2"),
     "30e3eac83900c7350b28e957b5e6be2a7b9c386bc5c793bda14a31601a253b75"),
    (("stirling", "--kind", "third", "--bound", "2"),
     "b0ef58133c7c1f94acfa1c81e235e6f4745da8ee33c9581e6a2012d28d416597"),
]


@pytest.mark.parametrize("argv,digest", ARGPARSE_GOLDEN,
                         ids=[" ".join(a) or "(no arguments)" for a, _ in ARGPARSE_GOLDEN])
def test_golden_argparse_output(argv, digest):
    """SHA-256 of the exit code, stdout and stderr of the console entry point."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(qtspecials.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qtspecials.cli import main; sys.exit(main())",
         *argv], env=env, capture_output=True)
    seen = b"%d\n" % proc.returncode + proc.stdout + b"\0" + proc.stderr
    assert hashlib.sha256(seen).hexdigest() == digest
