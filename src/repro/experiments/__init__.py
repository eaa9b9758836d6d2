"""Experiment harness: fault-rate sweeps and per-figure reproductions.

Every table and figure of the paper's evaluation is a kernel of the
application-kernel registry (:mod:`repro.experiments.kernels`), built by
``get_kernel(name).build(**overrides)``:

========  ===========================  ==================================
Figure    Kernel                       Built by
========  ===========================  ==================================
5.1       ``fault_distribution``       :func:`~repro.experiments.figures.figure_5_1`
5.2       ``voltage_curve``            :func:`~repro.experiments.figures.figure_5_2`
6.1       ``sorting``                  :meth:`~repro.experiments.kernels.KernelSpec.build`
6.2       ``least_squares_sgd``        :meth:`~repro.experiments.kernels.KernelSpec.build`
6.3       ``iir``                      :meth:`~repro.experiments.kernels.KernelSpec.build`
6.4       ``matching``                 :meth:`~repro.experiments.kernels.KernelSpec.build`
6.5       ``matching_enhancements``    :meth:`~repro.experiments.kernels.KernelSpec.build`
6.6       ``cg_least_squares``         :meth:`~repro.experiments.kernels.KernelSpec.build`
6.7       ``energy``                   :func:`~repro.experiments.figures.figure_6_7`
§6.2.2    ``momentum``                 :meth:`~repro.experiments.kernels.KernelSpec.build`
§6.3      ``flop_costs``               :func:`~repro.experiments.figures.flop_cost_comparison`
§7        ``overhead``                 :func:`~repro.experiments.figures.overhead_table`
========  ===========================  ==================================

Beyond the paper's own figures, the suite ships **scenario-grid studies**
(cross-fault-model and voltage-vs-quality comparisons for sorting, least
squares, and matching: the ``sorting_cross_model`` … ``matching_voltage``
kernels) built on the scenario axis of
:class:`~repro.experiments.spec.SweepSpec`, whose entries — scenario preset
names or :class:`~repro.experiments.scenarios.Scenario` objects — are the
one way a sweep names an operating point; see
:mod:`repro.experiments.scenarios` and ``docs/scenarios.md``.

Each build returns a :class:`repro.experiments.results.FigureResult` whose
series can be printed with :func:`repro.experiments.reporting.format_figure`.
The kernel's registration holds the paper value of every parameter
(``KernelSpec.defaults``); ``KernelSpec.reduced_kwargs`` scales it down to
laptop-scale settings.  The registry also records each workload's trial
factory, metric, batch capability, and presentation metadata under a stable
kernel name (``"sorting"``, ``"cg_least_squares"``, ...).

A sweep is one :class:`~repro.experiments.spec.SweepSpec` — trial
functions, fault rates, trials, seed, and optionally a scenario axis and an
adaptive budget policy — run in one of two ways:
:meth:`ExperimentEngine.run_sweep <repro.experiments.engine.ExperimentEngine.run_sweep>`
in this process, or ``CampaignRunner(store).submit(sweep).run()``
(:mod:`repro.experiments.campaign`) as sharded, resumable work on a worker
pool.  Both expand the sweep into seeded
:class:`~repro.experiments.spec.TrialSpec` entries and hand them to a
pluggable executor (``serial``, ``batched``, or ``vectorized``), all of
which produce bit-identical results.  The ``vectorized`` executor is the
tensorized trial backend (:mod:`repro.experiments.tensor`): it runs a whole
(fault-rate × trials) series grid as one stacked numpy computation for trial
functions that declare a batch implementation.  Completed figures can be
cached on disk through :class:`~repro.experiments.cache.ResultCache`.
"""
