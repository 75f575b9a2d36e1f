"""repro - reproduction of *Efficient Scalable Computing through Flexible
Applications and Adaptive Workloads* (Iserte et al., ICPP 2017).

The package rebuilds the paper's full system in Python:

* :mod:`repro.api` - the public facade: the composable ``Session``
  builder, the live ``SessionObserver`` hook, and the artifact registry
  behind ``python -m repro``;
* :mod:`repro.core` - the DMR API (the paper's primary contribution);
* :mod:`repro.slurm` - the Slurm substrate with the Algorithm 1
  reconfiguration plug-in and the node-resize protocol;
* :mod:`repro.runtime` - the Nanos++-style runtime driving malleable
  jobs (offload semantics, redistribution, sync/async DMR calls);
* :mod:`repro.mpi` - an in-process deterministic MPI with
  ``MPI_Comm_spawn`` for real-data validation;
* :mod:`repro.apps`, :mod:`repro.workload`, :mod:`repro.cluster`,
  :mod:`repro.checkpoint`, :mod:`repro.metrics`, :mod:`repro.sim` -
  the applications, workload model, hardware models, C/R baseline,
  measurement layer and simulation kernel;
* :mod:`repro.experiments` - one driver per paper figure/table.

See README.md for a tour and EXPERIMENTS.md for paper-vs-measured data.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
