"""The benchmark spine: one harness, seven named workloads, every layer.

``BENCHMARK.json`` at the repo root declares the contract (workloads,
end-to-end metrics with regression bounds, per-layer metrics); this
package implements it.  Two entry points share all the code:

- ``python3 benchmarks/spine/run.py --workload W --seed S --seconds N
  --trace 0|1`` — one workload in this interpreter, one JSON object on
  the last line of stdout (the command ``BENCHMARK.json`` names),
- ``PYTHONPATH=src python -m benchmarks.spine`` — every workload, each
  in a fresh child interpreter running the command above, with a
  printed table, an archived result and an appended history line.

Nothing under ``src/`` knows this package exists: every layer is timed
from outside, by shadowing the public bound methods the engines already
look up on their components (see :mod:`benchmarks.spine.spans`).
"""

#: Bumped whenever a workload, a metric definition or the digest
#: canonicalisation changes, i.e. whenever old history lines stop being
#: comparable with new ones.
HARNESS_VERSION = 1
