"""Importing the package pins BLAS to one thread unless the user chose a count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import storyfactors

SRC = Path(storyfactors.__file__).parents[1]
DATA = Path(storyfactors.__file__).parent / "data"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
linux_only = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads /proc/self/status")

# Imports the package first, fits CA on a seeded 300 x 300 table, then reports
# whether os.environ is as before the import, and the process's thread count.
PROBE = """
import json, os
before = dict(os.environ)
import storyfactors
import numpy as np
counts = np.random.default_rng(0).poisson(2.0, size=(300, 300)) + 1
labels = tuple(map(str, range(300)))
storyfactors.fit_ca(storyfactors.ContingencyTable(labels, labels, counts))
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps({"environ_kept": dict(os.environ) == before,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads}))
"""


def _env(**thread_vars: str) -> dict[str, str]:
    """This environment without the three thread variables, plus ``thread_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env | thread_vars


def _probe(**thread_vars: str) -> dict:
    done = subprocess.run([sys.executable, "-c", PROBE], env=_env(**thread_vars),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@linux_only
def test_import_runs_blas_on_one_thread():
    assert _probe() == {"environ_kept": True, "openblas": None, "threads": 1}


def test_user_thread_count_is_kept():
    probe = _probe(OPENBLAS_NUM_THREADS="2")
    assert probe["environ_kept"] and probe["openblas"] == "2"
    if probe["threads"] is not None and len(os.sched_getaffinity(0)) >= 2:
        assert probe["threads"] == 2


def test_cli_bytes_do_not_depend_on_the_thread_variables(tmp_path):
    # Every CA axis of the bundled sentence table feeds Ward, so a last-bit
    # change in the SVD reaches the coordinates, contributions and merges.
    config = tmp_path / "sentences.cfg"
    config.write_text(f"input_text = {DATA / 'purloined_letter.txt'}\n"
                      f"abbreviations = {DATA / 'abbreviations.txt'}\n"
                      f"stopwords = {DATA / 'stopwords_english.txt'}\n"
                      "min_total_count = 3\nmin_doc_count = 3\nmin_word_length = 2\n"
                      "cluster = ward\ncut = 11\n")
    outputs = []
    for name, env in (("unset", _env()), ("one", _env(OPENBLAS_NUM_THREADS="1"))):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "storyfactors.cli", "run",
                        "--config", str(config), "--out", str(out)],
                       env=env, capture_output=True, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 12
    assert outputs[0] == outputs[1]
