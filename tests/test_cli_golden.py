"""Golden CLI output: byte-identical stdout for fixed command lines.

Each command line below is pinned to the SHA-256 of its stdout, recorded
before the Pochhammer products were routed through `wcore.pochm`.  A change
that only restructures the arithmetic must leave every digest as it is; a
change that is meant to alter output has to update the digest and say why.
"""

import hashlib

import pytest

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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
