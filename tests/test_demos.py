"""Smoke test: the narrative demos run to completion against the source tree.

Demo 06 (the window ablation) is left out because acceptance criterion 8
already runs the same pipeline.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_coarticulation_weights.py",
    "02_losses_and_gradients.py",
    "03_metrics_and_dtw.py",
    "04_synthetic_corpus.py",
    "05_toy_training.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
