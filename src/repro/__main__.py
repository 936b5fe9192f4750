"""``python -m repro`` entry point.

Everything sits under the ``__main__`` guard, the import of the CLI
included: the ``process`` comm backend spawns workers with the ``spawn``
start method, which can re-run the parent's main module in the child as
``__mp_main__``.  Guarded, that costs the child nothing — it neither
re-runs the CLI nor imports it before parking on its command pipe.
"""

if __name__ == "__main__":
    import sys

    from repro.cli import main

    sys.exit(main())
