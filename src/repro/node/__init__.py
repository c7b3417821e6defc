"""The host-neutral node: what one processor is, whichever host runs it.

The paper's processor (Section 2) steps on a periodic timer, receives and
sends packets over unreliable channels, and draws local coins.  This package
defines that processor and everything that configures it; the simulator
(:mod:`repro.sim`) and the asyncio runtime (:mod:`repro.runtime`) both host
it and neither imports the other:

* :mod:`repro.node.process` — :class:`~repro.node.process.Process` and
  :class:`~repro.node.process.ProcessContext`, the one capability boundary
  between a processor and its host;
* :mod:`repro.node.config` — :class:`~repro.node.config.ClusterConfig`, its
  :class:`~repro.node.config.ChannelConfig`, the presets and ``preset``;
* :mod:`repro.node.stacks` — the :class:`~repro.node.stacks.StackProfile`
  registry of application services;
* :mod:`repro.node.node` — :class:`~repro.node.node.ClusterNode`, the boot
  rule both hosts call (:func:`~repro.node.node.boot`) and the convergence
  query both ask (:func:`~repro.node.node.converged_scan`);
* :mod:`repro.node.links` — :class:`~repro.node.links.LinkModel`, the
  channel adversary's link rules, partitions and transition log, which both
  hosts read;
* :mod:`repro.node.faults` — the :class:`~repro.node.faults.CorruptionAtom`
  and :func:`~repro.node.faults.apply_plan`, which apply a transient-fault
  plan to either host's cluster.

``tests/test_layers.py`` enforces the layer graph this package sits in:
``common`` ← protocol ← ``node`` ← {``sim``, ``runtime``, ``baselines``} ←
{``scenarios``, ``audit``, ``analysis``}.
"""
