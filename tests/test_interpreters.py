"""The kit under every Python on PATH: each writes the corpus's traces byte
for byte as this one does, and forks a simulator cut mid-run, with every
DeprecationWarning an error, so a copy protocol on its way out of the
language fails here before it fails a user."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from poabcast.runner import run
from poabcast.scenario import PROTOCOLS, random_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

# argv[1]: the corpus digest this interpreter must reproduce
SCRIPT = """
import copy, hashlib, pickle, sys
from poabcast.runner import build, run
from poabcast.scenario import PROTOCOLS, random_scenario

digest = hashlib.sha256()
for seed in range(5):
    for protocol in PROTOCOLS:
        digest.update(run(random_scenario(seed, protocol)).to_jsonl().encode())
assert digest.hexdigest() == sys.argv[1], digest.hexdigest()
scenario = random_scenario(0, "tau-seq")
want = run(scenario).to_jsonl()
sim = build(scenario)
sim.run(150)
for fork in (copy.deepcopy(sim), pickle.loads(pickle.dumps(sim)), sim):
    assert fork.run(scenario.horizon).to_jsonl() == want
"""


def corpus_digest() -> str:
    """sha256 of the JSONL of seeds 0-4 under every protocol, in this process."""
    digest = hashlib.sha256()
    for seed in range(5):
        for protocol in PROTOCOLS:
            digest.update(run(random_scenario(seed, protocol)).to_jsonl().encode())
    return digest.hexdigest()


def version(python: str) -> str:
    """``python --version``'s output, or "" if it does not run."""
    try:
        done = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=60)
    except OSError:
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def interpreters():
    """This interpreter, then each ``python3.N`` (N >= 10) first on PATH that
    runs and is not this interpreter's version."""
    found, names = [sys.executable], set()
    seen = {f"Python {sys.version.split()[0]}"}
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        for path in sorted(Path(folder or ".").glob("python3.*")):
            match = re.fullmatch(r"python3\.(\d+)", path.name)
            if not match or int(match[1]) < 10 or path.name in names:
                continue
            names.add(path.name)
            ran = version(str(path))
            if ran and ran not in seen:
                seen.add(ran)
                found.append(str(path))
    return found


def test_every_python_on_path_writes_the_corpus_and_forks_alike():
    want = corpus_digest()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for python in interpreters():
        done = subprocess.run(
            [python, "-W", "error::DeprecationWarning", "-c", SCRIPT, want],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, (python, done.stderr)
