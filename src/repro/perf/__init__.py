"""The lease-policy ablation lab behind ``repro-perf --lease-ablation``
(:mod:`repro.perf.bench`, :mod:`repro.perf.cli`).

It runs every registered lease policy on RCC and RCC-WO and writes an
``ABLATION_<date>.json`` report. Timing the simulator is
``bench/run.py``'s job, with ``bench/ab.py`` for A/B comparisons.
"""
