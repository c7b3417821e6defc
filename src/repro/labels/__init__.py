"""Bounded labeling scheme (Section 4.1 of the paper).

Labels are the bounded substitute for an unbounded epoch number: a processor
that knows a set of labels can always create a label greater than all of
them, and the system converges to a single globally-maximal label even after
transient faults corrupt the label storage.

* :mod:`repro.labels.label` — the epoch-label value type, the ``≺lb`` partial
  order and ``nextLabel()``;
* :mod:`repro.labels.store` — the bounded per-creator label-pair queues and
  the receipt action of Algorithm 4.2;
* :mod:`repro.labels.labeling` — the reconfiguration-aware wrapper
  (Algorithm 4.1) run by configuration members, and the member skeleton
  that :mod:`repro.counters.service` extends.
"""
