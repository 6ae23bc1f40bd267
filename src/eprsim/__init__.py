"""Continuous-variable EPR-state synthesis simulator.

Import each name from the module that defines it; ``import eprsim`` loads
no submodule.  ``gaussian``: squeezers, beam splitter, loss, the EPR
pipeline; ``homodyne``: swept-phase sampling, variance traces, CSV I/O;
``fitting``: trace fits back to (zeta, eta); ``fock``: Fock density
matrices, exact Gaussian-to-Fock conversion, fidelity; ``tomography``:
maximum-likelihood reconstruction; ``optics``: beam-geometry and walk-off
arithmetic (``math`` only); ``errors``: the exception types; ``cli``: the
``eprsim`` command.
"""

__version__ = "0.1.0"
