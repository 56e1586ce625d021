"""Full-scale extension study: serial/processes execution backends
under the differential contract -- byte-identical codestreams,
bit-exact decodes (see the experiment module's docstring)."""

from repro.experiments import ext_backends as _mod

from conftest import run_experiment


def test_bench_ext_backends(benchmark):
    run_experiment(benchmark, _mod)
