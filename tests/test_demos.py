"""The demos run end to end. Demo 04 trains for about 100 s and is left out."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", [
    "01_self_expression_basics.py",
    "02_biased_data_generator.py",
    "03_train_and_cluster_clean.py",
    "05_metrics_and_spectral.py",
])
def test_demo_runs(name, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
