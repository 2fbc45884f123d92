"""Exact Verblunsky data and quantum-walk dynamics for the Riesz measure.

Import every name from the module that defines it; the package namespace
re-exports nothing.  The exact modules (``series``, ``riesz``, ``schur``,
``ansatz``) are pure Python and never import numpy; the numeric modules
(``cmv``, ``walk``) do.
"""
