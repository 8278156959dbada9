"""The service's job protocol: :class:`~repro.runner.job.JobSpec`.

The job service accepts, keys and runs the same spec as sweeps and ``repro
run`` do (see :mod:`repro.runner.job`).  This module keeps the two names
perfbench imports from here: ``JobSpec``, and ``execute_spec``, an alias of
:func:`~repro.runner.job.execute_job`.
"""

from ..runner.job import JobSpec, execute_job

__all__ = ["JobSpec", "execute_spec"]

execute_spec = execute_job
