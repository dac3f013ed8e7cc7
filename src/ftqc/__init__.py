"""Resource estimates for fault-tolerant simulation of chemistry Hamiltonians.

Electronic-structure tensors are ingested, factored into sparse, low-rank,
or hypercontracted forms, and costed: 1-norms, Toffoli counts, logical
qubit counts, randomized-compilation alternatives, and a surface-code
physical layer.  Small instances can be verified exactly against dense
many-body spectra.

The library is used by submodule (``from ftqc import costs, tensors``); the
package itself re-exports nothing.
"""

__version__ = "0.1.0"
