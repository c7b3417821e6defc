"""Practically-unbounded counters built on the bounded labeling scheme.

Section 4.2 of the paper: a counter is a triple ``⟨label, seqn, wid⟩``.  The
label orders *epochs*; within an epoch the integer sequence number orders
increments, with the writer identifier breaking ties.  When the sequence
number of the maximal label is exhausted, the members cancel that label and
move to a fresh epoch label, so the counter never wraps in practice even
after transient faults drive the sequence number to its maximum.

* :mod:`repro.counters.counter` — the counter value type and ``≺ct`` order;
* :mod:`repro.counters.service` — the member-side counter management
  (Algorithm 4.3, extending :mod:`repro.labels.labeling`'s member service)
  and the increment protocols for members (Algorithm 4.4) and non-member
  participants (Algorithm 4.5).
"""
