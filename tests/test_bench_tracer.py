"""The benchmark tracer against the package it wraps.

``bench/tracing.py`` looks up every (module, attribute) pair of its
``SITES`` on the imported qbmlab.  A name deleted or renamed in the
package makes ``Tracer.install`` raise, and with it every traced
benchmark run; this test is the only place such a deletion shows.
"""
from pathlib import Path

import qbmlab
import qbmlab.cli  # noqa: F401  (the worker imports it before installing)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_sites_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    sites = [(getattr(qbmlab, mod), attr) for mod, attr, *_ in tracing.SITES]
    missing = [f"{module.__name__}.{attr}" for module, attr in sites
               if not hasattr(module, attr)]
    assert missing == []
    before = [getattr(module, attr) for module, attr in sites]

    tracer = tracing.Tracer(qbmlab)
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn
                   for (module, attr), fn in zip(sites, before))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn
               for (module, attr), fn in zip(sites, before))
