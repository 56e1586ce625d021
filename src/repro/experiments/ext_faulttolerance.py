"""Extension -- fault-tolerant execution: recovery overhead and identity.

The paper assumes a healthy SMP; real deployments lose workers (OOM
kills, wedged workers, flaky kernels).  The supervision layer
(:mod:`repro.core.supervise`) recovers by re-running only the unfinished
units of the idempotent decomposition, so the *product* is unaffected --
the only cost is time.  This experiment measures that cost: one
baseline encode per backend, the same encode supervised with no fault
(the supervision tax), and supervised encodes under each compute-fault
kind (``exc`` / ``kill`` / ``hang``), each row checked byte-identical
against the serial reference.  The degradation ladder is exercised with
a persistent fault that forces a ``processes`` run down to ``serial``,
the ladder's only other rung.

Wall-clock *ratios* are environment-dependent and deliberately
unchecked; byte-identity and report accounting are the checks.
"""

from __future__ import annotations

import time

from ..codec import CodecParams, encode_image
from ..core.backend import get_backend
from ..core.supervise import SupervisionPolicy, supervised
from ..faults import ComputeFault, FaultyBackend
from ..image import SyntheticSpec, synthetic_image
from .common import ExperimentResult

__all__ = ["run"]


def _encode(image, params, backend=None, n_workers=2):
    t0 = time.perf_counter()
    result = encode_image(image, params, backend=backend, n_workers=n_workers)
    return result, time.perf_counter() - t0


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_faulttolerance",
        description="Extension: supervised recovery from compute faults",
        paper=(
            "Not in the paper (it assumes healthy CPUs); contract derived "
            "from its structure: the static decomposition is idempotent, "
            "so re-running unfinished units after a fault must emit the "
            "byte-identical codestream"
        ),
    )
    side = 96 if quick else 192
    image = synthetic_image(SyntheticSpec(side, side, "mix", seed=17))
    params = CodecParams(
        levels=3, filter_name="5/3", cb_size=32 if quick else 64
    )
    n_workers = 2
    policy = SupervisionPolicy(max_retries=2, backoff_base=0.0)
    reference, t_serial = _encode(image, params, n_workers=1)
    result.rows.append(
        {"run": "serial baseline", "backend": "serial",
         "wall (s)": t_serial, "retries": 0, "identical": True}
    )

    backends = ("serial",) if quick else ("serial", "processes")
    faults = {
        "none": [],
        "exc": [ComputeFault("exc", op="map")],
        "kill": [ComputeFault("kill", op="map")],
        "hang": [ComputeFault("hang", op="map", arg=0.2)],
    }
    identical = True
    accounted = True
    for backend in backends:
        baseline, t_base = _encode(
            image, params, backend=backend, n_workers=n_workers
        )
        result.rows.append(
            {"run": "unsupervised", "backend": backend,
             "wall (s)": t_base, "retries": 0,
             "identical": baseline.data == reference.data}
        )
        identical &= baseline.data == reference.data
        for label, schedule in faults.items():
            # hang needs a killable worker; the serial rung checks its
            # deadline only between units, so it would just sleep out
            # the hang.
            if label == "hang" and backend != "processes":
                continue
            pol = policy
            if label == "hang":
                pol = SupervisionPolicy(
                    max_retries=2, phase_timeout=0.1, backoff_base=0.0
                )
            sup = supervised(
                FaultyBackend(get_backend(backend, n_workers), schedule),
                pol, owns_inner=True,
            )
            try:
                res, wall = _encode(
                    image, params, backend=sup, n_workers=n_workers
                )
            finally:
                sup.close()
            same = res.data == reference.data
            identical &= same
            rep = sup.report
            if label == "none":
                accounted &= rep.clean
            else:
                accounted &= rep.retries >= 1 and not rep.clean
            result.rows.append(
                {"run": f"supervised fault={label}", "backend": backend,
                 "wall (s)": wall, "retries": rep.retries,
                 "identical": same}
            )

    # Degradation ladder: a persistent kernel fault pushes the run down
    # to the serial rung -- and the bytes still match.
    sup = supervised(
        FaultyBackend(
            get_backend("processes", n_workers),
            [ComputeFault("exc", op="map", persistent=True)],
        ),
        SupervisionPolicy(max_retries=1, backoff_base=0.0),
        owns_inner=True,
    )
    try:
        res, wall = _encode(image, params, backend=sup, n_workers=n_workers)
    finally:
        sup.close()
    identical &= res.data == reference.data
    result.rows.append(
        {"run": "supervised persistent exc (degrades)",
         "backend": f"processes->{sup.report.final_backend}",
         "wall (s)": wall, "retries": sup.report.retries,
         "identical": res.data == reference.data}
    )

    result.check("every run byte-identical to the serial reference", identical)
    result.check("supervision reports account for every fault", accounted)
    result.check(
        "persistent fault degraded to the serial rung",
        sup.report.degraded and sup.report.final_backend == "serial",
    )
    return result
