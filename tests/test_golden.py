"""Pinned sha256 digests of the JSON report of every CLI command.

Reports are deterministic, so any change to the program that is meant to
keep its results must keep these digests.  ``oracle-check`` runs with
``--samples 20 --seed 0``.  ``LARGE_FIELD_DIGESTS`` pins ``oracle-check`` over
fields too large for the log tables of :mod:`ppring.ffq`, with
``--samples 5 --seed 0``.  ``LATTICE_DIGESTS`` pins the ``lattice`` report
of four larger groups, S5 (156 subgroups), S4xC2 (98), C2xC2xC2xC2 (67, each
its own class, so the search extends every one) and S4xS3 (372), and
``test_verify_s5_p3_digest`` the ``verify`` report of S5 at p = 3, whose
species values live at conductor 20.  Under
``python -O``, which strips ``assert`` statements, the reports stay the
same: the program checks its invariants with raised exceptions only.
"""

import ast
import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ppring
from ppring import ffq, ppelem
from ppring.cli import COMMANDS, RunConfig, run

PACKAGE = Path(ppring.__file__).resolve().parent

CASES = [("S4", 2), ("S4", 3), ("D8", 2), ("A4", 3), ("D20", 2), ("A5", 5)]

DIGESTS = {
    "burnside S4 p=2":
        "3f563692137841d57cdb7986f9f4009abaec790aa8cd6bb26521ad7349b0fc69",
    "idempotents S4 p=2":
        "ff27f6e531928dd2f4262cef8502a5c4ef11b72288e1ae3d7c1536cf6cb17b45",
    "lattice S4 p=2":
        "a7181603303c17e45d636c4b0c3675ef85002ff7357048de5a267a50a6ecfadb",
    "oracle-check S4 p=2":
        "506d5a2f200ecbe4cae674247a775c0ff5f3f68bd37d48db2880715eec3b96bb",
    "pairs S4 p=2":
        "dc76c566fb16787a88e2c34eecda08e87dd260ac0dd36755dfe1a436ef741a00",
    "species-table S4 p=2":
        "418420a11a05b09f30b314b693448c14583db6663f0ede91ddef36b91744d6b5",
    "verify S4 p=2":
        "fd3b3e1d83ac95f861e0e564a81490b55aad3e33a6e16989745f5a6864b8ac68",
    "burnside S4 p=3":
        "3f563692137841d57cdb7986f9f4009abaec790aa8cd6bb26521ad7349b0fc69",
    "idempotents S4 p=3":
        "c768dedba42142073900eea6d176b9839d84d3d879625061d61821969ee3b885",
    "lattice S4 p=3":
        "a7181603303c17e45d636c4b0c3675ef85002ff7357048de5a267a50a6ecfadb",
    "oracle-check S4 p=3":
        "bc981e57e2d4ee0129dad1fa29971b27d0c8658111b5019e1d56f9221b9847fd",
    "pairs S4 p=3":
        "b50fd002ce4f8db8123c762f8183b8aef90c51e6bd3dd0c9eacdc7d2c53fd518",
    "species-table S4 p=3":
        "4d3838d7be8a565ed008a331a5842ad8d1845554b0625de3a68c29a985f1eff0",
    "verify S4 p=3":
        "cfdf83738f3fefd8fa7f20a8196efaf624fec23034dfa6c77a27051a5aea4781",
    "burnside D8 p=2":
        "69fc38066475607e32604c7b3bd57d216336ea080df5dd72363614bbcc028ca4",
    "idempotents D8 p=2":
        "c70cab8357ffcec49cd1c14d8653f5977bac1758fc7cf9334635810d4f168e94",
    "lattice D8 p=2":
        "023832083db0266e628df5dc56ab18ed25667d0f2360770913e0ab38abadfa52",
    "oracle-check D8 p=2":
        "446e79229aaa8ddf898731703fb5c1321a4bcfb57049bf5b62cd1a30b3f0a311",
    "pairs D8 p=2":
        "f153daec6395620b429eba64c44a6084948b0b0af7204117d2b1aef76dfda933",
    "species-table D8 p=2":
        "734b31ba5f67da2365cb02cb6e76bbe6f951298f4dac229409efc31eb78cb783",
    "verify D8 p=2":
        "7e2af0e19f762d6e229faa8fbc1c008ef82a088f999c38caca6eef73e36051ae",
    "burnside A4 p=3":
        "3f1c78eb8ee702b27208e6de4d386ce50ba1e57296c7aea32d3017de3d52960a",
    "idempotents A4 p=3":
        "03f854d79ce01e2c8f7ece45f872046d26afffb083f13422d395c651b1bab304",
    "lattice A4 p=3":
        "6ff06ee55b951d6447e540c0ea220ae66e965b90955271125643f33a1d018587",
    "oracle-check A4 p=3":
        "2f1e2ebe1a9961f553793eb647c94de670652e2a3dc3572eef495995a17ac9b0",
    "pairs A4 p=3":
        "b79f0e4666f292cd0ab76cf90a202db04f6ffe449532acdcf1b5b1e356ff0439",
    "species-table A4 p=3":
        "24f4c245ae1420e63c9a2f1340c166f44cb636d12226316bd0394034a57ec307",
    "verify A4 p=3":
        "a7c247cc753fae8a98614f8d9f5300a6ce46810f90d53d5d1c59ff4b8ca019a6",
    "burnside D20 p=2":
        "be60595a0bef4082c0bd20bbede6a1c7b51b0d18728e0b60d1cbbb70f35761d0",
    "idempotents D20 p=2":
        "f81f799f55e7d360d77daacedc4eed7eb147e580273b772411b3035f7b8ad03f",
    "lattice D20 p=2":
        "35efd94ae3517d50c019cb0f10a7be2d200a960e8374b551ef36355fb16b9ad2",
    "oracle-check D20 p=2":
        "38b85afdab49af3a963c8f0828457d876399ebbf5b5db28a6102f01d36e15597",
    "pairs D20 p=2":
        "69e1faac5d0efbc596617c69be75573a7c8528b553c086e96a906033b9452730",
    "species-table D20 p=2":
        "1c8cb8d0203ee3cd6537d4072d319cee3e8b3c7eb0730cb1a4005d1d1a6e333c",
    "verify D20 p=2":
        "fb40dea9289ed1414a7effacbf5d7d6e242839718a931e017a6f3d77b148d403",
    "burnside A5 p=5":
        "58ba2b8bd9b1d7d42a0eb8807a43ff6514aa11b8ac50ab72cd2cb6d9aae8597b",
    "idempotents A5 p=5":
        "fbf53f58321cc25d2a9d9a582bccdfd97986bc102fdd87a6e5b6b1babf978473",
    "lattice A5 p=5":
        "aa8ae5d7a062ff744eacb8d942e064d5e56ac8461f2f6a16c7cea44aff1ed26f",
    "oracle-check A5 p=5":
        "a4ca003db7becc0dce8e30d4d799e8d120ca49cc2a56ac2f8bfcc692c0573810",
    "pairs A5 p=5":
        "e4d5e303f14cb3ffbe359085757185aaef9c14790ec947ebdd8cd66a922dec60",
    "species-table A5 p=5":
        "2bd032229b8e1c7e8317942c9c46b71541bcc586bd40d3f708df4a1e4698d81c",
    "verify A5 p=5":
        "566952422831f9f06e358d3058c11c2ca54782622d08163d8e19b8d82d4bec07",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("group,p", CASES, ids=[f"{g}-p{p}" for g, p in CASES])
def test_report_digest(command, group, p):
    code, text = run(RunConfig(command=command, group=group, p=p, fmt="json",
                               samples=20, seed=0))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        DIGESTS[f"{command} {group} p={p}"]


# F_(7^10) and F_(2^18): the oracle's polynomial arithmetic path.
LARGE_FIELD_DIGESTS = {
    ("C11", 7): "9b67c1bb9462d1b16ea451fe2a30183399870c27c2db94108541bf47f70850ec",
    ("C19", 2): "f28713f641d082bcc62a9dffb49b734858fe64a9a3c79a2ec89a6509d6997b7d",
}


@pytest.mark.parametrize("group,p", sorted(LARGE_FIELD_DIGESTS),
                         ids=[f"{g}-p{p}" for g, p in sorted(LARGE_FIELD_DIGESTS)])
def test_large_field_oracle_digest(group, p):
    code, text = run(RunConfig(command="oracle-check", group=group, p=p, fmt="json",
                               samples=5, seed=0))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        LARGE_FIELD_DIGESTS[(group, p)]


LATTICE_DIGESTS = {
    ("S5", 3): "a435e11b888536aa9e268d78506827349f7f71c5a114d1fcafc91b3e46823ac9",
    ("S4xC2", 2): "c519c246b9fb24a01b89ad4eb90337148e868c56d1efb5bf17cc95d16d6ba7a6",
    ("C2xC2xC2xC2", 2): "40fcc3ada5a9664a1f5acbf654a2339fa84b1b5b95db99c6ff63ea4dcb4242df",
    ("S4xS3", 3): "14e4ccd64b5f62415ce7e8ff28c6f88bb6cf55cfdae79aaf64bff36a50ea473c",
}


@pytest.mark.parametrize("group,p", sorted(LATTICE_DIGESTS),
                         ids=[f"{g}-p{p}" for g, p in sorted(LATTICE_DIGESTS)])
def test_large_lattice_digest(group, p):
    code, text = run(RunConfig(command="lattice", group=group, p=p, fmt="json"))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LATTICE_DIGESTS[(group, p)]


def test_verify_s5_p3_digest():
    code, text = run(RunConfig(command="verify", group="S5", p=3, fmt="json"))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "3c46809b638c4c2acd4707691200e965b39aba10eb57f85a55e31457fb2270fc"


def test_clear_caches_empties_every_memo():
    run(RunConfig(command="verify", group="S4", p=2, fmt="json"))
    run(RunConfig(command="oracle-check", group="S3", p=3, fmt="json", samples=5, seed=0))
    oracle_memos = (ffq.realize_generator, ffq._brauer_quotient, ffq.oracle_tau)
    assert all(memo.cache_info().currsize for memo in oracle_memos)
    calculus_memos = (ppelem._canonical, ppelem._mackey, ppelem._res_gen)
    assert all(memo.cache_info().currsize for memo in calculus_memos)
    ppring.clear_caches()
    modules = [importlib.import_module(f"ppring.{m.name}")
               for m in pkgutil.iter_modules(ppring.__path__)]
    caches = {id(obj): obj for module in modules for obj in vars(module).values()
              if hasattr(obj, "cache_info")}
    assert len(caches) >= 24
    assert [c for c in caches.values() if c.cache_info().currsize != 0] == []
    assert all(id(memo) in caches for memo in calculus_memos)
    code, text = run(RunConfig(command="verify", group="S4", p=2, fmt="json"))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS["verify S4 p=2"]


def test_optimized_mode_keeps_the_verify_digest():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-O", "-m", "ppring.cli", "verify", "--group", "S4",
         "--p", "2", "--format", "json"],
        env=env, capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS["verify S4 p=2"]


def test_no_assert_statement_in_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"
